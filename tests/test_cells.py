"""Recurrent cell math against scalar reference implementations.

The forward oracle below re-evaluates the gate equations one scalar at a
time with math.exp/math.tanh, sharing no code with the vectorized cells.
"""

import math

import numpy as np
import pytest

from recseq.cells import (
    LstmCellParams,
    RecurrentState,
    RnnCellParams,
    _layer_forward,
    lstm_step,
    lstm_step_backward,
    rnn_step,
    rnn_step_backward,
    stack_backward,
    stack_forward,
)
from recseq.tensor_ops import finite_diff_grad


def scalar_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def lstm_step_reference(p, x, h_prev, c_prev):
    """Scalar-loop evaluation of the six gate equations."""
    n = p.n_hidden
    h = np.zeros(n)
    c = np.zeros(n)
    for j in range(n):
        zi = p.b_i[j] + sum(p.W_xi[j, a] * x[a] for a in range(len(x)))
        zi += sum(p.W_hi[j, a] * h_prev[a] for a in range(n))
        zf = p.b_f[j] + sum(p.W_xf[j, a] * x[a] for a in range(len(x)))
        zf += sum(p.W_hf[j, a] * h_prev[a] for a in range(n))
        zo = p.b_o[j] + sum(p.W_xo[j, a] * x[a] for a in range(len(x)))
        zo += sum(p.W_ho[j, a] * h_prev[a] for a in range(n))
        zc = p.b_c[j] + sum(p.W_xc[j, a] * x[a] for a in range(len(x)))
        zc += sum(p.W_hc[j, a] * h_prev[a] for a in range(n))
        i = scalar_sigmoid(zi)
        f = scalar_sigmoid(zf)
        o = scalar_sigmoid(zo)
        g = math.tanh(zc)
        c[j] = f * c_prev[j] + i * g
        h[j] = o * math.tanh(c[j])
    return h, c


def random_lstm(n, d, seed):
    rng = np.random.default_rng(seed)
    p = LstmCellParams.init(n, d, rng)
    # overwrite with a fresh draw so biases are nonzero too
    p.w_x[:] = rng.uniform(-0.8, 0.8, p.w_x.shape)
    p.w_h[:] = rng.uniform(-0.8, 0.8, p.w_h.shape)
    p.b[:] = rng.uniform(-0.5, 0.5, p.b.shape)
    return p


def test_zero_param_step_algebra():
    # all parameters zero: i=f=o=1/2, g=0, so c = c_prev/2, h = tanh(c)/2
    n = 5
    p = LstmCellParams.zeros(n, 3)
    c_prev = np.array([1.0, -2.0, 0.5, 3.0, -0.25])
    h_prev = np.zeros(n)
    x = np.array([7.0, -1.0, 2.0])
    h, c, gates = lstm_step(p, x, h_prev, c_prev)
    assert np.max(np.abs(c - 0.5 * c_prev)) <= 1e-14
    assert np.max(np.abs(h - 0.5 * np.tanh(0.5 * c_prev))) <= 1e-14


def test_saturated_gate_carry():
    n = 4
    p = LstmCellParams.zeros(n, 2)
    p.b_f[:] = 20.0
    p.b_i[:] = -20.0
    c_prev = np.array([0.3, -1.7, 2.2, 0.0])
    h, c, _ = lstm_step(p, np.zeros(2), np.zeros(n), c_prev)
    assert np.max(np.abs(c - c_prev)) <= 1e-8


def test_saturated_full_forget():
    n = 3
    p = LstmCellParams.zeros(n, 2)
    p.b_f[:] = -20.0
    p.b_i[:] = -20.0
    _, c, _ = lstm_step(p, np.zeros(2), np.zeros(n), np.array([0.5, -3.0, 1.0]))
    assert np.max(np.abs(c)) <= 1e-8


def test_forward_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for seed in range(5):
        p = random_lstm(4, 3, seed)
        x = rng.uniform(-1, 1, 3)
        h_prev = rng.uniform(-1, 1, 4)
        c_prev = rng.uniform(-1, 1, 4)
        h, c, _ = lstm_step(p, x, h_prev, c_prev)
        h_ref, c_ref = lstm_step_reference(p, x, h_prev, c_prev)
        assert np.max(np.abs(h - h_ref)) < 1e-12
        assert np.max(np.abs(c - c_ref)) < 1e-12


def test_gate_activations_in_range():
    p = random_lstm(6, 4, 11)
    rng = np.random.default_rng(11)
    _, _, gates = lstm_step(p, rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
    for arr in (gates.i, gates.f, gates.o):
        assert np.all((arr > 0.0) & (arr < 1.0))
    assert np.all((gates.g > -1.0) & (gates.g < 1.0))


def test_gate_views_alias_stacked_storage():
    p = LstmCellParams.zeros(3, 2)
    p.W_xf[0, 0] = 9.0
    assert p.w_x[3, 0] == 9.0  # forget rows sit in the second block of four
    p.b_c[2] = -4.0
    assert p.b[3 * 3 + 2] == -4.0


def test_rnn_identity_weights_zero_input():
    p = RnnCellParams(np.eye(3), np.zeros((3, 3)), np.zeros(3), "tanh")
    h = rnn_step(p, np.zeros(3), np.array([0.4, -0.2, 0.9]))
    assert np.array_equal(h, np.zeros(3))


def test_rnn_sigmoid_nonlinearity():
    p = RnnCellParams(np.ones((1, 1)), np.zeros((1, 1)), np.zeros(1), "sigmoid")
    h = rnn_step(p, np.array([0.0]), np.zeros(1))
    assert abs(float(h[0]) - 0.5) < 1e-14


def test_rnn_rejects_unknown_nonlinearity():
    with pytest.raises(ValueError):
        RnnCellParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), "relu")


def test_rnn_single_step_hand_chain_rule():
    # 1x1 weights: h = tanh(w_x * x + w_h * h_prev + b)
    w_x, w_h, b = 0.7, -0.3, 0.1
    x_val, h_prev_val = 0.5, 0.25
    p = RnnCellParams(np.array([[w_x]]), np.array([[w_h]]), np.array([b]), "tanh")
    h = rnn_step(p, np.array([x_val]), np.array([h_prev_val]))
    z = w_x * x_val + w_h * h_prev_val + b
    assert abs(float(h[0]) - math.tanh(z)) < 1e-14

    cache = (_layer_forward(p, np.array([[x_val]]), np.array([h_prev_val]), None, None), 0)
    dx, dh_prev, grads = rnn_step_backward(p, cache, np.array([1.0]))
    dtanh = 1.0 - math.tanh(z) ** 2
    assert abs(float(dx[0]) - dtanh * w_x) < 1e-12
    assert abs(float(dh_prev[0]) - dtanh * w_h) < 1e-12
    assert abs(float(grads.W_xh[0, 0]) - dtanh * x_val) < 1e-12
    assert abs(float(grads.W_hh[0, 0]) - dtanh * h_prev_val) < 1e-12
    assert abs(float(grads.b_h[0]) - dtanh) < 1e-12


def _lstm_loss_for_params(p, x, h_prev, c_prev, mode):
    h, c, _ = lstm_step(p, x, h_prev, c_prev)
    return float(np.sum(h)) if mode == "h" else float(np.sum(c))


def test_lstm_step_backward_finite_differences():
    p = random_lstm(3, 2, 21)
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, 2)
    h_prev = rng.uniform(-1, 1, 3)
    c_prev = rng.uniform(-1, 1, 3)

    for mode in ("h", "c"):
        cache = (_layer_forward(p, x[None], h_prev, c_prev, None), 0)
        dh = np.ones(3) if mode == "h" else np.zeros(3)
        dc = np.zeros(3) if mode == "h" else np.ones(3)
        dx, dh_prev, dc_prev, grads = lstm_step_backward(p, cache, dh, dc)

        assert np.allclose(
            dx,
            finite_diff_grad(lambda v: _lstm_loss_for_params(p, v, h_prev, c_prev, mode), x),
            rtol=1e-5, atol=1e-7,
        )
        assert np.allclose(
            dh_prev,
            finite_diff_grad(lambda v: _lstm_loss_for_params(p, x, v, c_prev, mode), h_prev),
            rtol=1e-5, atol=1e-7,
        )
        assert np.allclose(
            dc_prev,
            finite_diff_grad(lambda v: _lstm_loss_for_params(p, x, h_prev, v, mode), c_prev),
            rtol=1e-5, atol=1e-7,
        )
        analytic = dict(grads.blocks())
        for name, view in p.blocks():
            flat = view.reshape(-1)
            num = np.empty(flat.size)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                f_plus = _lstm_loss_for_params(p, x, h_prev, c_prev, mode)
                flat[idx] = orig - 1e-5
                f_minus = _lstm_loss_for_params(p, x, h_prev, c_prev, mode)
                flat[idx] = orig
                num[idx] = (f_plus - f_minus) / 2e-5
            assert np.allclose(analytic[name].reshape(-1), num, rtol=1e-5, atol=1e-7), (mode, name)


def test_gradient_highway_under_saturated_forget():
    p = LstmCellParams.zeros(3, 2)
    p.b_f[:] = 20.0  # f ~= 1: the cell state passes gradient straight through
    cache = (_layer_forward(p, np.zeros((1, 2)), np.zeros(3), np.array([0.5, -1.0, 2.0]), None), 0)
    upstream = np.array([1.0, -2.0, 0.5])
    _, _, dc_prev, _ = lstm_step_backward(p, cache, np.zeros(3), upstream)
    assert np.max(np.abs(dc_prev - upstream)) < 1e-8


def test_rnn_step_backward_finite_differences():
    rng = np.random.default_rng(31)
    for nonlin in ("tanh", "sigmoid"):
        p = RnnCellParams.init(3, 2, rng, nonlin)
        x = rng.uniform(-1, 1, 2)
        h_prev = rng.uniform(-1, 1, 3)
        cache = (_layer_forward(p, x[None], h_prev, None, None), 0)
        dx, dh_prev, grads = rnn_step_backward(p, cache, np.ones(3))

        def loss(which, v):
            if which == "x":
                return float(np.sum(rnn_step(p, v, h_prev)))
            return float(np.sum(rnn_step(p, x, v)))

        assert np.allclose(dx, finite_diff_grad(lambda v: loss("x", v), x), rtol=1e-5, atol=1e-7)
        assert np.allclose(dh_prev, finite_diff_grad(lambda v: loss("h", v), h_prev), rtol=1e-5, atol=1e-7)


def test_stack_single_layer_single_step_reduces_to_cell():
    p = random_lstm(4, 3, 41)
    x = np.array([0.2, -0.6, 1.0])
    hs, state, _ = stack_forward([p], [x])
    h_direct, c_direct, _ = lstm_step(p, x, np.zeros(4), np.zeros(4))
    assert np.array_equal(hs[0][0], h_direct)
    assert np.array_equal(state.cs[0], c_direct)


def test_stack_two_layers_matches_manual_composition():
    p1 = random_lstm(4, 3, 42)
    p2 = random_lstm(5, 4, 43)
    x = np.array([0.3, -0.1, 0.8])
    hs, state, _ = stack_forward([p1, p2], [x])
    h1, c1, _ = lstm_step(p1, x, np.zeros(4), np.zeros(4))
    h2, c2, _ = lstm_step(p2, h1, np.zeros(5), np.zeros(5))
    assert np.max(np.abs(hs[1][0] - h2)) < 1e-15
    assert np.max(np.abs(state.cs[1] - c2)) < 1e-15


def test_stack_two_layers_four_steps_finite_differences():
    cells = [random_lstm(3, 2, 51), random_lstm(3, 3, 52)]
    rng = np.random.default_rng(53)
    xs = [rng.uniform(-1, 1, 2) for _ in range(4)]

    def total_loss():
        hs, _, _ = stack_forward(cells, xs)
        return float(sum(np.sum(h) for h in hs[-1]))

    hs, _, caches = stack_forward(cells, xs)
    d_top = [np.ones(3) for _ in range(4)]
    d_xs, grads = stack_backward(cells, caches, d_top)

    for layer, cell in enumerate(cells):
        analytic = dict(grads[layer].blocks())
        for name, view in cell.blocks():
            flat = view.reshape(-1)
            num = np.empty(flat.size)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                f_plus = total_loss()
                flat[idx] = orig - 1e-5
                f_minus = total_loss()
                flat[idx] = orig
                num[idx] = (f_plus - f_minus) / 2e-5
            assert np.allclose(analytic[name].reshape(-1), num, rtol=1e-4, atol=1e-7), (layer, name)

    for t in range(4):
        num = finite_diff_grad(
            lambda v, t=t: float(sum(np.sum(h) for h in stack_forward(cells, xs[:t] + [v] + xs[t + 1:])[0][-1])),
            xs[t],
        )
        assert np.allclose(d_xs[t], num, rtol=1e-4, atol=1e-7)


def test_weights_shared_across_time():
    # gradient contributions from both steps land in the same arrays
    p = random_lstm(2, 2, 61)
    xs = [np.array([0.5, -0.5]), np.array([-0.2, 0.9])]
    _, _, caches = stack_forward([p], xs)
    d_top = [np.ones(2), np.ones(2)]
    _, grads_both = stack_backward([p], caches, d_top)
    _, grads_last = stack_backward([p], caches, [None, np.ones(2)])
    _, grads_first = stack_backward([p], caches, [np.ones(2), None])
    total = grads_first[0].w_x + grads_last[0].w_x
    assert np.allclose(grads_both[0].w_x, total, atol=1e-12)


@pytest.mark.parametrize("kind", ["lstm", "rnn"])
def test_unroll_keeps_one_tape_per_layer_over_its_hidden_states(kind):
    from recseq.cells import _unroll

    rng = np.random.default_rng(91)
    make = LstmCellParams.init if kind == "lstm" else RnnCellParams.init
    cells = [make(3, 2, rng), make(4, 3, rng)]
    hs, state, tapes = _unroll(cells, rng.uniform(-1, 1, (5, 2, 2)))
    assert len(tapes) == len(cells)
    for layer, (a, h_tape, c_tape, acts, mask) in enumerate(tapes):
        assert np.shares_memory(h_tape, hs[layer])
        assert np.array_equal(h_tape[1:], hs[layer])
        assert np.array_equal(h_tape[-1], state.hs[layer])
        assert (c_tape is None) == (kind == "rnn")
        assert acts.shape[:2] == a.shape[:2] and mask is None
    # Without dropout a layer reads the states below in place.
    assert np.shares_memory(tapes[1][0], hs[0])


def test_recurrent_state_zeroes_match_cells():
    cells = [random_lstm(3, 2, 71), random_lstm(4, 3, 72)]
    state = RecurrentState.zeros(cells)
    assert [len(h) for h in state.hs] == [3, 4]
    assert [len(c) for c in state.cs] == [3, 4]


def test_stack_validates_layer_input_shape():
    p = random_lstm(3, 2, 81)
    with pytest.raises(ValueError):
        stack_forward([p], [np.zeros(5)])


def _ragged_layer(kind, nonlin="tanh", seed=101):
    """One layer over a right-padded batch of lengths (5, 2, 4) with a
    dropout mask that is zero on padded steps, and gradients from above
    only on real steps."""
    from recseq.cells import _dropout_masks

    rng = np.random.default_rng(seed)
    if kind == "lstm":
        cell = random_lstm(3, 4, seed)
    else:
        cell = RnnCellParams.init(3, 4, rng, nonlin)
        cell.b_h[:] = rng.uniform(-0.5, 0.5, 3)
    lengths = np.array([5, 2, 4])
    real = (np.arange(5)[:, None] < lengths)[..., None]
    xs = rng.uniform(-1, 1, (5, 3, 4)) * real
    (mask,) = _dropout_masks([cell], 5, lengths, (0.3, rng))
    h0 = rng.uniform(-1, 1, (3, 3))
    c0 = rng.uniform(-1, 1, (3, 3)) if kind == "lstm" else None
    tape = _layer_forward(cell, xs, h0, c0, mask)
    d_above = rng.uniform(-1, 1, (5, 3, 3)) * real
    return cell, tape, d_above


@pytest.mark.parametrize("kind, nonlin", [("lstm", "tanh"), ("rnn", "tanh"), ("rnn", "sigmoid")])
def test_layer_backward_equals_chained_one_step_backwards(kind, nonlin):
    from recseq.cells import _layer_backward

    cell, tape, d_above = _ragged_layer(kind, nonlin)
    whole = cell.new_zeros()
    d_in, dh0, dc0 = _layer_backward(cell, tape, d_above, whole)

    chained = cell.new_zeros()
    dh, dc = np.zeros_like(d_above[0]), np.zeros_like(d_above[0])
    d_steps = np.empty_like(d_in)
    for t in range(len(d_above) - 1, -1, -1):
        if kind == "lstm":
            d_steps[t], dh, dc, _ = lstm_step_backward(cell, (tape, t), d_above[t] + dh, dc, chained)
        else:
            d_steps[t], dh, _ = rnn_step_backward(cell, (tape, t), d_above[t] + dh, chained)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    close(d_in, d_steps)
    close(dh0, dh)
    if kind == "lstm":
        close(dc0, dc)
    else:
        assert dc0 is None
    for (name, got), (_, want) in zip(whole.blocks(), chained.blocks()):
        assert np.any(want != 0.0), name
        close(got, want)
    # Padded steps pass no gradient to the input.
    assert np.all(d_in[2:, 1] == 0.0) and np.all(d_in[4:, 2] == 0.0)


def test_lstm_gates_are_sigmoid_and_tanh_of_the_pre_activations():
    from recseq.cells import _lstm_cell
    from recseq.tensor_ops import sigmoid

    n = 5
    rng = np.random.default_rng(7)
    grid = np.concatenate([
        np.linspace(-800.0, 800.0, 4001), rng.uniform(-40.0, 40.0, 4000), rng.standard_normal(3000),
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, 36.7, -36.7, 709.0, -745.0],
        [np.inf, -np.inf, np.nan],
    ])
    pre = np.resize(grid, (len(grid) // (4 * n) + 1) * 4 * n).reshape(-1, 4 * n)
    p = LstmCellParams.zeros(n, 2)
    act = pre.copy()
    zeros = np.zeros((len(pre), n))
    _lstm_cell(p, act, zeros, zeros)
    want = np.concatenate([sigmoid(pre[:, :3 * n]), np.tanh(pre[:, 3 * n:])], axis=1)
    assert np.array_equal(np.isnan(act), np.isnan(pre))
    finite = ~np.isnan(pre)
    assert np.max(np.abs(act[finite] - want[finite])) <= 2.3e-16
    gates = act[:, :3 * n]
    assert np.all((gates >= 0.0) & (gates <= 1.0) | np.isnan(gates))
    assert np.array_equal(act[:, 3 * n:], np.tanh(pre[:, 3 * n:]), equal_nan=True)
