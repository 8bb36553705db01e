"""Tests of the benchmark's reference forward pass.

    python3 -m pytest perfbench/test_reference.py

The fixtures are worked out by hand (scalar arithmetic with ``math``);
the last test compares the reference with recseq on the small standard
models of ``recseq gradcheck``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def lstm_blocks(n, d, layer=0):
    P = {}
    for k in "ifoc":
        P[f"cell{layer}.W_x{k}"] = np.zeros((n, d))
        P[f"cell{layer}.W_h{k}"] = np.zeros((n, n))
        P[f"cell{layer}.b_{k}"] = np.zeros(n)
    return P


def rnn_blocks(layer, w_x, w_h, b):
    return {f"cell{layer}.W_xh": np.array(w_x, dtype=float), f"cell{layer}.W_hh": np.array(w_h, dtype=float),
            f"cell{layer}.b_h": np.array(b, dtype=float)}


def log_softmax_by_hand(values, k):
    return values[k] - math.log(sum(math.exp(v) for v in values))


def test_zero_parameter_lstm_halves_the_memory():
    # All gates sit at sigmoid(0) = 1/2 and the candidate at tanh(0) = 0.
    P = lstm_blocks(3, 2)
    c_prev = np.array([0.5, -3.0, 1.0])
    h, c = ref.lstm_step(P, 0, np.array([0.7, -0.3]), np.array([0.2, -0.1, 0.4]), c_prev)
    np.testing.assert_allclose(c, 0.5 * c_prev, rtol=0, atol=1e-15)
    np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), rtol=0, atol=1e-15)


def test_saturated_gates_keep_the_memory():
    P = lstm_blocks(3, 2)
    P["cell0.b_f"][:] = 20.0
    P["cell0.b_i"][:] = -20.0
    c_prev = np.array([0.5, -3.0, 1.0])
    _, c = ref.lstm_step(P, 0, np.array([0.7, -0.3]), np.zeros(3), c_prev)
    np.testing.assert_allclose(c, c_prev, rtol=0, atol=1e-8)


def test_rnn_step_by_hand():
    P = rnn_blocks(0, [[2.0]], [[0.5]], [0.1])
    x, h = np.array([0.3]), np.array([-0.4])
    # 2 * 0.3 + 0.5 * -0.4 + 0.1 = 0.5
    assert ref.rnn_step(P, 0, x, h)[0] == pytest.approx(math.tanh(0.5), abs=1e-15)
    assert ref.rnn_step(P, 0, x, h, "sigmoid")[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-15)


def test_log_softmax_by_hand():
    np.testing.assert_allclose(ref.log_softmax([0.0, math.log(3.0)]), [math.log(0.25), math.log(0.75)], atol=1e-15)
    np.testing.assert_allclose(ref.log_softmax([1000.0, 1000.0]), [-math.log(2.0)] * 2, atol=1e-15)
    np.testing.assert_allclose(ref.softmax([0.0, math.log(3.0)]), [0.25, 0.75], atol=1e-15)


def test_conv_pool_and_head_by_hand():
    x = np.arange(9.0).reshape(1, 3, 3)
    kernels = np.ones((1, 1, 2, 2))
    # Each output sums a 2x2 window of 0..8, plus the bias 1.
    conv = ref.conv2d_valid(x, kernels, np.array([1.0]))
    np.testing.assert_array_equal(conv, [[[9.0, 13.0], [21.0, 25.0]]])
    np.testing.assert_array_equal(ref.maxpool2x2(conv), [[[25.0]]])
    topo = ref.Topology(task="classify", cell="rnn", n_layers=1, extractor="smallconv", input_shape=(1, 3, 3))
    P = {"phi.kernels": kernels, "phi.conv_bias": np.array([1.0]), "phi.W": np.array([[2.0]]), "phi.b": np.array([-1.0])}
    np.testing.assert_array_equal(ref.extract(topo, P, x), [49.0])


def caption_model(factored):
    """Hidden size 1, embedding size 1, vocabulary (w0, <bos>, <eos>)."""
    P = {"embed.W_e": np.array([[0.2, 0.5, 0.0]]), "pred.W_z": np.array([[1.0], [0.0], [-1.0]]),
         "pred.b_z": np.zeros(3), "phi.W": np.array([[1.0]]), "phi.b": np.array([0.0])}
    if factored:
        P.update(rnn_blocks(0, [[1.0]], [[0.0]], [0.0]))
        P.update(rnn_blocks(1, [[1.0, 1.0]], [[0.0]], [0.0]))
        return ref.Topology("caption", "rnn", 2, extractor="linear", input_shape=(1,),
                            factored=True, inject_layer=2, bos=1), P
    P.update(rnn_blocks(0, [[1.0, 1.0]], [[0.5]], [0.0]))
    return ref.Topology("caption", "rnn", 1, extractor="linear", input_shape=(1,), bos=1), P


def test_factored_caption_injects_the_image_at_layer_two():
    topo, P = caption_model(factored=True)
    v = 0.3
    # Layer 1 sees only the previous token's embedding; layer 2 sees [h1, v].
    h_a = math.tanh(math.tanh(0.5) + v)  # after <bos>
    h_b = math.tanh(math.tanh(0.2) + v)  # after w0
    want = log_softmax_by_hand([h_a, 0.0, -h_a], 0) + log_softmax_by_hand([h_b, 0.0, -h_b], 2)
    assert ref.caption_log_likelihood(topo, P, np.array([v]), (0, 2)) == pytest.approx(want, abs=1e-14)
    assert ref.caption_nll(topo, P, np.array([v]), (0, 2)) == pytest.approx(-want, abs=1e-14)


def test_unfactored_caption_reads_token_and_image_together():
    topo, P = caption_model(factored=False)
    v = 0.3
    h_a = math.tanh(0.5 + v)
    h_b = math.tanh(0.2 + v + 0.5 * h_a)
    want = log_softmax_by_hand([h_a, 0.0, -h_a], 0) + log_softmax_by_hand([h_b, 0.0, -h_b], 2)
    assert ref.caption_log_likelihood(topo, P, np.array([v]), (0, 2)) == pytest.approx(want, abs=1e-14)


def test_encode_decode_switches_from_inputs_to_tokens():
    # Input slots are [token, x]; vocabulary (w0, <bos>, <eos>).
    topo = ref.Topology("encode_decode", "rnn", 1, bos=1)
    P = {"embed.W_e": np.array([[0.2, 0.5, 0.0]]), "pred.W_z": np.array([[1.0], [0.0], [-1.0]]),
         "pred.b_z": np.zeros(3)}
    P.update(rnn_blocks(0, [[1.0, 2.0]], [[0.5]], [0.0]))
    inputs = np.array([[0.1], [-0.2], [0.3]])
    h0 = math.tanh(2.0 * 0.1)                 # encoder step: [0, x0]
    h1 = math.tanh(2.0 * -0.2 + 0.5 * h0)     # encoder step: [0, x1]
    h2 = math.tanh(0.5 + 2.0 * 0.3 + 0.5 * h1)  # boundary: [e(<bos>), x2], emits w0
    h3 = math.tanh(0.2 + 0.5 * h2)            # [e(w0), 0], emits <eos>
    want = log_softmax_by_hand([h2, 0.0, -h2], 0) + log_softmax_by_hand([h3, 0.0, -h3], 2)
    assert ref.encode_decode_log_likelihood(topo, P, inputs, (0, 2)) == pytest.approx(want, abs=1e-14)


def test_classify_averages_per_step_distributions():
    topo = ref.Topology("classify", "rnn", 1, extractor="identity", input_shape=(1,))
    P = {"pred.W_z": np.array([[1.0], [-1.0]]), "pred.b_z": np.zeros(2)}
    P.update(rnn_blocks(0, [[1.0]], [[0.0]], [0.0]))
    frames = np.array([[1.0], [-1.0]])
    # Step outputs are +tanh(1) and -tanh(1): the two softmaxes mirror
    # each other, so their mean is uniform.
    np.testing.assert_allclose(ref.classify_distribution(topo, P, frames), [0.5, 0.5], atol=1e-15)
    t = math.tanh(1.0)
    want = -(log_softmax_by_hand([t, -t], 1) + log_softmax_by_hand([-t, t], 1))
    assert ref.classify_nll(topo, P, frames, 1) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("topology", ["classify", "caption_1u", "caption_2u", "caption_2f", "encode_decode"])
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_reference_agrees_with_recseq(topology, cell):
    from recseq.training import build_demo_batch, build_demo_model, sequence_nll

    m = build_demo_model(topology, seed=3, cell=cell)
    batch = build_demo_batch(topology, m, seed=3)
    topo, P = ref.topology_of(m), ref.params_of(m)
    for b in range(len(batch)):
        x, y = batch.example(b)
        if topology == "classify":
            want = ref.classify_nll(topo, P, x, y)
        elif topology == "encode_decode":
            want = -ref.encode_decode_log_likelihood(topo, P, x, y)
        else:
            want = ref.caption_nll(topo, P, x, y)
        got = sequence_nll(m, type(batch).from_examples(batch.task, [_example(batch, b)])).total_nll
        assert got == pytest.approx(want, rel=1e-12)


def _example(batch, b):
    from recseq.data import CaptionPair, LabeledSequence, SeqPair

    x, y = batch.example(b)
    if batch.task == "classify":
        return LabeledSequence(x, y)
    if batch.task == "caption":
        return CaptionPair(x, y)
    return SeqPair(x, y)
