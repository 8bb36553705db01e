"""Feature extractors: forward arithmetic and exact backward passes."""

import re

import numpy as np
import pytest

from recseq.features import (
    IdentityExtractor,
    LinearExtractor,
    Mlp1Extractor,
    SmallConvExtractor,
    conv2d_valid,
    make_extractor,
    maxpool2x2,
    maxpool2x2_backward,
    phi_backward,
    phi_forward,
)
from recseq.tensor_ops import finite_diff_grad

# hand-computed valid convolution of 1..16 with kernel [[1,2],[3,4]]
CONV_1_TO_16_EXPECTED = np.array(
    [
        [44.0, 54.0, 64.0],
        [84.0, 94.0, 104.0],
        [124.0, 134.0, 144.0],
    ]
)


def test_identity_flattens():
    ext = IdentityExtractor((2, 3))
    x = np.arange(6.0).reshape(2, 3)
    v, _ = ext.forward(x)
    assert np.array_equal(v, np.arange(6.0))
    assert ext.out_dim == 6


def test_identity_backward_passthrough():
    ext = IdentityExtractor((2, 2))
    _, cache = ext.forward(np.zeros((2, 2)))
    dx, grads = ext.backward(cache, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(dx, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert grads == {}


def test_linear_zero_weights_zero_output():
    ext = LinearExtractor((4,), np.zeros((3, 4)), np.zeros(3))
    v, _ = ext.forward(np.array([1.0, -2.0, 5.0, 0.5]))
    assert np.array_equal(v, np.zeros(3))


def test_linear_known_affine():
    W = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    b = np.array([0.5, -0.5, 0.0])
    ext = LinearExtractor((2,), W, b)
    v, _ = ext.forward(np.array([3.0, 4.0]))
    assert np.allclose(v, np.array([3.5, 7.5, 7.0]))


def test_conv_hand_example():
    x = np.arange(1.0, 17.0).reshape(1, 4, 4)
    kernels = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = conv2d_valid(x, kernels, np.zeros(1))
    assert out.shape == (1, 3, 3)
    assert np.array_equal(out[0], CONV_1_TO_16_EXPECTED)


def test_conv_bias_added():
    x = np.zeros((1, 3, 3))
    kernels = np.zeros((2, 1, 2, 2))
    out = conv2d_valid(x, kernels, np.array([1.5, -2.0]))
    assert np.all(out[0] == 1.5) and np.all(out[1] == -2.0)


def test_conv_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        conv2d_valid(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


def test_maxpool_values_and_argmax():
    x = np.array([[[1.0, 2.0, 5.0, 1.0], [3.0, 4.0, 2.0, 0.0]]])
    pooled, argmax = maxpool2x2(x)
    assert pooled.shape == (1, 1, 2)
    assert pooled[0, 0, 0] == 4.0 and pooled[0, 0, 1] == 5.0
    dx = maxpool2x2_backward(x.shape, argmax, np.array([[[1.0, 1.0]]]))
    assert dx[0, 1, 1] == 1.0 and dx[0, 0, 2] == 1.0
    assert np.sum(dx != 0.0) == 2


def test_maxpool_tie_takes_first():
    x = np.full((1, 2, 2), 7.0)
    pooled, argmax = maxpool2x2(x)
    assert pooled[0, 0, 0] == 7.0
    dx = maxpool2x2_backward(x.shape, argmax, np.array([[[2.0]]]))
    assert dx[0, 0, 0] == 2.0 and np.sum(dx) == 2.0


def _check_extractor_fd(ext, x, rtol):
    v, cache = phi_forward(ext, x)
    d_out = np.linspace(0.5, 1.5, v.size)
    dx, grads = phi_backward(ext, cache, d_out)

    def loss_at_x(flat):
        out, _ = phi_forward(ext, flat.reshape(x.shape))
        return float(np.dot(d_out, out))

    num_dx = finite_diff_grad(loss_at_x, x.reshape(-1).copy()).reshape(x.shape)
    assert np.allclose(dx, num_dx, rtol=rtol, atol=1e-7)

    for name, view in ext.blocks():
        flat = view.reshape(-1)
        analytic = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            f_plus = loss_at_x(x.reshape(-1))
            flat[idx] = orig - 1e-5
            f_minus = loss_at_x(x.reshape(-1))
            flat[idx] = orig
            numeric = (f_plus - f_minus) / 2e-5
            assert abs(analytic[idx] - numeric) <= max(1e-7, rtol * max(abs(analytic[idx]), abs(numeric))), name


def test_linear_backward_finite_differences():
    rng = np.random.default_rng(0)
    ext = LinearExtractor.init((5,), 3, rng)
    _check_extractor_fd(ext, rng.uniform(-1, 1, 5), rtol=1e-5)


def test_mlp1_backward_finite_differences():
    rng = np.random.default_rng(1)
    ext = Mlp1Extractor.init((4,), 3, rng, hidden_dim=6)
    _check_extractor_fd(ext, rng.uniform(-1, 1, 4), rtol=1e-5)


def test_smallconv_backward_finite_differences():
    rng = np.random.default_rng(2)
    ext = SmallConvExtractor.init((1, 6, 6), 4, rng, n_filters=2, kernel_size=3)
    _check_extractor_fd(ext, rng.uniform(-1, 1, (1, 6, 6)), rtol=1e-4)


def test_extractor_is_time_invariant():
    # the same parameters apply at every step: same frame, same vector
    rng = np.random.default_rng(3)
    ext = Mlp1Extractor.init((4,), 3, rng)
    frame = rng.uniform(-1, 1, 4)
    v1, _ = phi_forward(ext, frame)
    v2, _ = phi_forward(ext, frame.copy())
    assert np.array_equal(v1, v2)


def test_make_extractor_variants_and_errors():
    rng = np.random.default_rng(4)
    assert make_extractor("identity", (3, 3)).out_dim == 9
    assert make_extractor("linear", (4,), out_dim=2, rng=rng).out_dim == 2
    assert make_extractor("mlp1", (4,), out_dim=2, rng=rng).out_dim == 2
    conv = make_extractor("smallconv", (1, 6, 6), out_dim=3, rng=rng)
    assert conv.out_dim == 3
    with pytest.raises(ValueError):
        make_extractor("resnet", (4,))
    with pytest.raises(ValueError):
        make_extractor("linear", (4,))  # needs rng
    with pytest.raises(ValueError):
        make_extractor("linear", (4,), rng=rng)  # needs out_dim


def test_extractor_validates_input_shape():
    ext = LinearExtractor.init((4,), 2, np.random.default_rng(5))
    with pytest.raises(ValueError):
        ext.forward(np.zeros(5))


def test_joint_training_moves_extractor_weights():
    # end-to-end gradients reach the extractor through the recurrent stack
    from recseq.data import CaptionPair
    from recseq.models import Vocabulary, build_model
    from recseq.training import TrainConfig, fit

    rng = np.random.default_rng(6)
    vocab = Vocabulary.from_words(["a", "b"])
    ext = make_extractor("linear", (3,), out_dim=4, rng=rng)
    m = build_model("caption", rng=rng, hidden=6, layers=1, extractor=ext,
                    vocab=vocab, embed_dim=4)
    before = m.extractor.W.copy()
    pairs = [CaptionPair(rng.uniform(-1, 1, 3), (0, 1, vocab.eos)) for _ in range(4)]
    fit(m, pairs, TrainConfig(lr=0.2, epochs=3, batch_size=2, seed=0))
    assert not np.allclose(before, m.extractor.W)


# Stacks: N frames in one call against N one-frame calls.
VARIANTS = {
    "identity": lambda rng: IdentityExtractor((2, 3)),
    "linear": lambda rng: LinearExtractor.init((5,), 3, rng),
    "mlp1": lambda rng: Mlp1Extractor.init((2, 2), 3, rng, hidden_dim=6),
    # odd height and width: the pool drops a trailing row and column
    "smallconv": lambda rng: SmallConvExtractor.init((2, 8, 7), 4, rng, n_filters=3, kernel_size=2),
    "smallconv_k3": lambda rng: SmallConvExtractor.init((1, 8, 8), 5, rng, n_filters=4, kernel_size=3),
}
N_FRAMES = 7


def _stack_case(variant, seed=7):
    rng = np.random.default_rng(seed)
    ext = VARIANTS[variant](rng)
    return ext, rng.uniform(-1, 1, (N_FRAMES,) + ext.input_shape), rng


@pytest.mark.parametrize("variant", VARIANTS)
def test_stack_forward_equals_one_frame_calls(variant):
    ext, frames, _ = _stack_case(variant)
    stacked, _ = phi_forward(ext, frames)
    single = np.array([phi_forward(ext, frame)[0] for frame in frames])
    assert stacked.shape == (N_FRAMES, ext.out_dim)
    assert np.max(np.abs(stacked - single)) <= 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("variant", VARIANTS)
def test_stack_backward_equals_per_frame_sums(variant):
    ext, frames, rng = _stack_case(variant)
    d_out = rng.uniform(-1, 1, (N_FRAMES, ext.out_dim))
    _, cache = phi_forward(ext, frames)
    dx, grads = phi_backward(ext, cache, d_out)
    assert dx.shape == frames.shape
    want = {name: np.zeros_like(a) for name, a in ext.blocks()}
    for frame, d, row in zip(frames, d_out, dx):
        dx_one, grads_one = phi_backward(ext, phi_forward(ext, frame)[1], d)
        assert np.max(np.abs(row - dx_one)) <= 1e-12
        for name in want:
            want[name] += grads_one[name]
    assert sorted(grads) == sorted(want)
    for name, a in want.items():
        assert grads[name].shape == a.shape
        assert np.max(np.abs(grads[name] - a)) <= 1e-12, name


def test_stack_pool_tie_takes_the_first_maximum():
    x = np.zeros((3, 2, 2, 4))
    x[1, 1] = [[7.0, 7.0, 1.0, 3.0], [7.0, 7.0, 3.0, 3.0]]
    pooled, argmax = maxpool2x2(x)
    assert pooled.shape == (3, 2, 1, 2)
    assert pooled[1, 1, 0, 0] == 7.0 and pooled[1, 1, 0, 1] == 3.0
    dx = maxpool2x2_backward(x.shape, argmax, np.full(pooled.shape, 2.0))
    assert dx[1, 1, 0, 0] == 2.0 and dx[1, 1, 0, 3] == 2.0
    assert np.sum(dx[1, 1]) == 4.0
    # the other all-zero windows tie too; each routes to its first element
    assert np.array_equal(dx[0, 0], [[2.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


def test_stack_conv_equals_one_frame_convolutions():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (4, 2, 5, 6))
    kernels = rng.uniform(-1, 1, (3, 2, 3, 3))
    bias = rng.uniform(-1, 1, 3)
    out = conv2d_valid(x, kernels, bias)
    assert out.shape == (4, 3, 3, 4)
    for frame, got in zip(x, out):
        want = conv2d_valid(frame, kernels, bias)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # one output element at a time, as the definition reads
        for f, i, j in np.ndindex(got.shape):
            assert abs(got[f, i, j] - (np.sum(frame[:, i:i + 3, j:j + 3] * kernels[f]) + bias[f])) <= 1e-14


@pytest.mark.parametrize("variant", VARIANTS)
def test_stack_of_the_wrong_frame_shape_is_rejected(variant):
    ext, frames, _ = _stack_case(variant)
    assert phi_forward(ext, frames)[0].shape == (N_FRAMES, ext.out_dim)
    wrong = np.zeros(frames.shape[:-1] + (frames.shape[-1] + 1,))
    with pytest.raises(ValueError, match="extractor expects shape"):
        phi_forward(ext, wrong)
    with pytest.raises(ValueError, match="extractor expects shape"):
        phi_forward(ext, frames[None])


@pytest.mark.parametrize("shape,kernel_size", [((1, 3, 3), 3), ((1, 3, 9), 3), ((2, 9, 2), 2)])
def test_smallconv_rejects_frames_too_small_for_kernel_and_pool(shape, kernel_size):
    with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*{kernel_size}x{kernel_size} kernel"):
        make_extractor("smallconv", shape, out_dim=3, rng=np.random.default_rng(9), kernel_size=kernel_size)
