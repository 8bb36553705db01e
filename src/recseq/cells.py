"""Recurrent cell steps, their exact reverse-mode derivatives, and stacking.

The LSTM update uses four gates computed from the current input x_t and the
previous hidden state h_{t-1}:

    i_t = sigmoid(W_xi x_t + W_hi h_{t-1} + b_i)      input gate
    f_t = sigmoid(W_xf x_t + W_hf h_{t-1} + b_f)      forget gate
    o_t = sigmoid(W_xo x_t + W_ho h_{t-1} + b_o)      output gate
    g_t = tanh   (W_xc x_t + W_hc h_{t-1} + b_c)      candidate
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The vanilla RNN update is h_t = g(W_xh x_t + W_hh h_{t-1} + b_h) with g
either tanh or sigmoid.

Internally each LSTM layer stores its weights as three stacked arrays
(w_x: (4N, d), w_h: (4N, N), b: (4N,)) with gate rows ordered
[input, forget, output, candidate]; the per-gate matrices are exposed as
views so a step costs two matrix products instead of eight.

One engine runs every recurrence, a single vector or a right-padded
batch alike: per layer, the input product is one GEMM over all time-major
steps and each step adds one recurrent GEMM. The single-step functions are
one-step calls into it. Step caches are tuples of views into the layer's
arrays (input, previous state, gate activations, cell value, dropout
mask); backward walks the layers top down and their steps in reverse.
Cells emit only hidden states; output layers live with the task models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import NamedParams, as_f64, dropout_mask, sigmoid, uniform_fan_in

__all__ = [
    "GateActivations",
    "LstmCellParams",
    "RnnCellParams",
    "RecurrentState",
    "lstm_step",
    "lstm_step_backward",
    "rnn_step",
    "rnn_step_backward",
    "stack_forward",
    "stack_backward",
]

_INIT_FORGET_BIAS = 1.0


@dataclass(frozen=True)
class GateActivations:
    """Post-nonlinearity gate values from one LSTM step."""

    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray


class LstmCellParams(NamedParams):
    """Weights of one LSTM layer, stacked by gate.

    Attributes W_xi, W_hi, b_i, ... are read/write views into the stacked
    arrays, one (N, d) or (N, N) matrix and one (N,) bias per gate. The
    stacked arrays are the layout (``PARAMS``); the per-gate views are the
    named blocks.
    """

    PARAMS = ("w_x", "w_h", "b")

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
        w_x = as_f64(w_x)
        w_h = as_f64(w_h)
        b = as_f64(b)
        if w_x.ndim != 2 or w_x.shape[0] % 4 != 0:
            raise ValueError(f"stacked input weights must be (4N, d), got {w_x.shape}")
        n = w_x.shape[0] // 4
        if w_h.shape != (4 * n, n):
            raise ValueError(f"stacked recurrent weights must be (4N, N), got {w_h.shape}")
        if b.shape != (4 * n,):
            raise ValueError(f"stacked bias must be (4N,), got {b.shape}")
        self.w_x = w_x
        self.w_h = w_h
        self.b = b
        self.n_hidden = n
        self.n_input = w_x.shape[1]

    @classmethod
    def zeros(cls, n_hidden: int, n_input: int) -> "LstmCellParams":
        return cls(
            np.zeros((4 * n_hidden, n_input)),
            np.zeros((4 * n_hidden, n_hidden)),
            np.zeros(4 * n_hidden),
        )

    @classmethod
    def init(cls, n_hidden: int, n_input: int, rng: np.random.Generator) -> "LstmCellParams":
        """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights.

        Biases start at zero except the forget gate, which starts at +1 so
        the memory cell carries information early in training.
        """
        p = cls(
            uniform_fan_in(rng, (4 * n_hidden, n_input), n_input),
            uniform_fan_in(rng, (4 * n_hidden, n_hidden), n_hidden),
            np.zeros(4 * n_hidden),
        )
        p.b_f[:] = _INIT_FORGET_BIAS
        return p

    def new_zeros(self) -> "LstmCellParams":
        return LstmCellParams.zeros(self.n_hidden, self.n_input)

    def blocks(self):
        """Named per-gate parameter views, in gate-equation order."""
        return [(name, getattr(self, name)) for g in "ifoc" for name in (f"W_x{g}", f"W_h{g}", f"b_{g}")]

    def _gate(self, which: int):
        n = self.n_hidden
        return slice(which * n, (which + 1) * n)

    # Per-gate views. Assignments through them update the stacked arrays.
    W_xi = property(lambda self: self.w_x[self._gate(0)])
    W_xf = property(lambda self: self.w_x[self._gate(1)])
    W_xo = property(lambda self: self.w_x[self._gate(2)])
    W_xc = property(lambda self: self.w_x[self._gate(3)])
    W_hi = property(lambda self: self.w_h[self._gate(0)])
    W_hf = property(lambda self: self.w_h[self._gate(1)])
    W_ho = property(lambda self: self.w_h[self._gate(2)])
    W_hc = property(lambda self: self.w_h[self._gate(3)])
    b_i = property(lambda self: self.b[self._gate(0)])
    b_f = property(lambda self: self.b[self._gate(1)])
    b_o = property(lambda self: self.b[self._gate(2)])
    b_c = property(lambda self: self.b[self._gate(3)])


class RnnCellParams(NamedParams):
    """Weights of one vanilla RNN layer."""

    PARAMS = ("W_xh", "W_hh", "b_h")

    def __init__(self, W_xh: np.ndarray, W_hh: np.ndarray, b_h: np.ndarray, nonlinearity: str = "tanh"):
        W_xh = as_f64(W_xh)
        W_hh = as_f64(W_hh)
        b_h = as_f64(b_h)
        n = W_xh.shape[0]
        if W_hh.shape != (n, n):
            raise ValueError(f"recurrent weights must be (N, N), got {W_hh.shape}")
        if b_h.shape != (n,):
            raise ValueError(f"bias must be (N,), got {b_h.shape}")
        if nonlinearity not in ("tanh", "sigmoid"):
            raise ValueError(f"unknown nonlinearity {nonlinearity!r}")
        self.W_xh = W_xh
        self.W_hh = W_hh
        self.b_h = b_h
        self.nonlinearity = nonlinearity
        self.n_hidden = n
        self.n_input = W_xh.shape[1]

    @classmethod
    def zeros(cls, n_hidden: int, n_input: int, nonlinearity: str = "tanh") -> "RnnCellParams":
        return cls(
            np.zeros((n_hidden, n_input)),
            np.zeros((n_hidden, n_hidden)),
            np.zeros(n_hidden),
            nonlinearity,
        )

    @classmethod
    def init(cls, n_hidden: int, n_input: int, rng: np.random.Generator, nonlinearity: str = "tanh") -> "RnnCellParams":
        return cls(
            uniform_fan_in(rng, (n_hidden, n_input), n_input),
            uniform_fan_in(rng, (n_hidden, n_hidden), n_hidden),
            np.zeros(n_hidden),
            nonlinearity,
        )

    def new_zeros(self) -> "RnnCellParams":
        return RnnCellParams.zeros(self.n_hidden, self.n_input, self.nonlinearity)


def _lstm_cell(p: LstmCellParams, act, h_prev, c_prev):
    """The LSTM step. ``act`` holds W_x x + b on entry and the gate
    activations [i f o g] on return. Returns (h, c, act)."""
    n = p.n_hidden
    act += h_prev @ p.w_h.T
    act[..., :3 * n] = sigmoid(act[..., :3 * n])
    act[..., 3 * n:] = np.tanh(act[..., 3 * n:])
    c = act[..., n:2 * n] * c_prev + act[..., :n] * act[..., 3 * n:]
    return act[..., 2 * n:3 * n] * np.tanh(c), c, act


def _layer_forward(cell, a, h0, c0, mask):
    """Run one layer over time-major inputs ``a`` (T, ..., d) from (h0, c0).

    The input product is one GEMM over every step; each step then adds one
    recurrent product in place, so a step's slice of it ends up holding
    that step's activations. Returns (hs, cs, step caches) with hs[0] = h0
    and hs[t + 1] the state after step t; cs is None for a vanilla layer.
    """
    if mask is not None:
        a = a * mask
    w_x, _, b = (getattr(cell, name) for name in cell.PARAMS)
    xw = (a.reshape(-1, a.shape[-1]) @ w_x.T + b).reshape(a.shape[:-1] + b.shape)
    hs = np.empty((len(a) + 1,) + a.shape[1:-1] + (cell.n_hidden,))
    hs[0] = h0
    lstm = isinstance(cell, LstmCellParams)
    cs = np.empty_like(hs) if lstm else None
    if lstm:
        cs[0] = c0
    caches = []
    for t in range(len(a)):
        m_t = None if mask is None else mask[t]
        if lstm:
            hs[t + 1], cs[t + 1], act = _lstm_cell(cell, xw[t], hs[t], cs[t])
            caches.append((a[t], hs[t], cs[t], act, cs[t + 1], m_t))
        else:
            xw[t] += hs[t] @ cell.W_hh.T
            hs[t + 1] = np.tanh(xw[t]) if cell.nonlinearity == "tanh" else sigmoid(xw[t])
            caches.append((a[t], hs[t], hs[t + 1], m_t))
    return hs, cs, caches


def _lstm_step_full(p: LstmCellParams, x, h_prev, c_prev):
    """One LSTM step through the engine. Returns (h, c, step cache)."""
    hs, cs, caches = _layer_forward(p, x[None], h_prev, c_prev, None)
    return hs[1], cs[1], caches[0]


def lstm_step(p: LstmCellParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One LSTM step. Returns (h_t, c_t, GateActivations)."""
    x = as_f64(x)
    if x.shape != (p.n_input,):
        raise ValueError(f"lstm_step input shape {x.shape}, cell expects ({p.n_input},)")
    h, c, cache = _lstm_step_full(p, x, as_f64(h_prev), as_f64(c_prev))
    return h, c, GateActivations(*np.split(cache[3], 4))


def _accumulate(p, grad_acc, d_pre, x, h_prev):
    """Add one step's parameter gradients, summed over its batch rows."""
    if grad_acc is None:
        grad_acc = p.new_zeros()
    g_x, g_h, g_b = (getattr(grad_acc, name) for name in p.PARAMS)
    rows = d_pre.reshape(-1, d_pre.shape[-1])
    g_x += rows.T @ x.reshape(len(rows), -1)
    g_h += rows.T @ h_prev.reshape(len(rows), -1)
    g_b += rows.sum(axis=0)
    return grad_acc


def lstm_step_backward(p: LstmCellParams, cache, dh: np.ndarray, dc: np.ndarray, grad_acc: LstmCellParams | None = None):
    """Backward through one LSTM step, for one vector or a batch of rows.

    dh and dc are the loss gradients flowing into h_t and c_t. Gradients of
    the parameters are accumulated into grad_acc (allocated when None).
    Returns (dx, dh_prev, dc_prev, grad_acc); dx is with respect to the
    pre-dropout input when the forward step used a mask.
    """
    x, h_prev, c_prev, act, c, mask = cache
    n = p.n_hidden
    i, f, o, g = (act[..., k * n:(k + 1) * n] for k in range(4))
    tc = np.tanh(c)
    dc_total = dc + dh * o * (1.0 - tc * tc)
    d_pre = np.empty_like(act)
    d_pre[..., :n] = (dc_total * g) * i * (1.0 - i)
    d_pre[..., n:2 * n] = (dc_total * c_prev) * f * (1.0 - f)
    d_pre[..., 2 * n:3 * n] = (dh * tc) * o * (1.0 - o)
    d_pre[..., 3 * n:] = (dc_total * i) * (1.0 - g * g)
    grad_acc = _accumulate(p, grad_acc, d_pre, x, h_prev)
    dx = d_pre @ p.w_x
    if mask is not None:
        dx = dx * mask
    return dx, d_pre @ p.w_h, dc_total * f, grad_acc


def _rnn_step_full(p: RnnCellParams, x, h_prev):
    """One vanilla step through the engine. Returns (h, step cache)."""
    hs, _, caches = _layer_forward(p, x[None], h_prev, None, None)
    return hs[1], caches[0]


def rnn_step(p: RnnCellParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """One vanilla RNN step. Returns h_t."""
    x = as_f64(x)
    if x.shape != (p.n_input,):
        raise ValueError(f"rnn_step input shape {x.shape}, cell expects ({p.n_input},)")
    return _rnn_step_full(p, x, as_f64(h_prev))[0]


def rnn_step_backward(p: RnnCellParams, cache, dh: np.ndarray, grad_acc: RnnCellParams | None = None):
    """Backward through one RNN step. Returns (dx, dh_prev, grad_acc)."""
    x, h_prev, h, mask = cache
    if p.nonlinearity == "tanh":
        d_pre = dh * (1.0 - h * h)
    else:
        d_pre = dh * h * (1.0 - h)
    grad_acc = _accumulate(p, grad_acc, d_pre, x, h_prev)
    dx = d_pre @ p.W_xh
    if mask is not None:
        dx = dx * mask
    return dx, d_pre @ p.W_hh, grad_acc


class RecurrentState:
    """Hidden (and, for LSTM layers, cell) vectors for a stack of layers."""

    __slots__ = ("hs", "cs")

    def __init__(self, hs, cs):
        self.hs = list(hs)
        self.cs = list(cs)

    @classmethod
    def zeros(cls, cells) -> "RecurrentState":
        hs = [np.zeros(c.n_hidden) for c in cells]
        cs = [np.zeros(c.n_hidden) if isinstance(c, LstmCellParams) else None for c in cells]
        return cls(hs, cs)


def _dropout_masks(cells, n_steps, lengths, drop):
    """Inverted-dropout masks (T, B, d) for every layer input.

    Draws run example by example, then step by step, then layer by layer,
    one mask per layer input; padded steps keep a zero mask.
    """
    p, rng = drop
    dims = [c.n_input for c in cells]
    masks = [np.zeros((n_steps, len(lengths), d)) for d in dims]
    for b, n in enumerate(lengths):
        drawn = dropout_mask((int(n), sum(dims)), p, rng)
        for mask, part in zip(masks, np.split(drawn, np.cumsum(dims)[:-1], axis=1)):
            mask[:n, b] = part
    return masks


def _unroll(cells, xs, initial=None, inject=None, inject_layer=None, drop=None, lengths=None):
    """Run a stack of cells over time-major layer-1 inputs.

    xs: (T, d) for one sequence (a list of vectors works too) or (T, B, d)
        for a batch padded on the right.
    inject/inject_layer: optional vector, one per sequence, concatenated
        onto the input of one layer (0-based index) at every step.
    drop: optional (p, rng) for a batch whose sequences run ``lengths``
        steps; see :func:`_dropout_masks`.

    Returns (hs, final_state, caches): hs[layer] is that layer's (T, ..., N)
    hidden states and caches[t][layer] the step caches that feed
    :func:`_unroll_backward`.
    """
    xs = as_f64(xs)
    state = RecurrentState.zeros(cells) if initial is None else initial
    masks = None if drop is None or drop[0] == 0.0 else _dropout_masks(cells, len(xs), lengths, drop)
    hs, finals, by_layer = [], RecurrentState([], []), []
    below = xs
    for layer, cell in enumerate(cells):
        if layer == inject_layer:
            joined = np.empty(below.shape[:-1] + (below.shape[-1] + inject.shape[-1],))
            joined[..., :below.shape[-1]] = below
            joined[..., below.shape[-1]:] = inject
            below = joined
        if below.shape[-1] != cell.n_input:
            raise ValueError(f"layer {layer} input has shape {below.shape[-1:]}, cell expects ({cell.n_input},)")
        h_seq, c_seq, caches = _layer_forward(
            cell, below, state.hs[layer], state.cs[layer], None if masks is None else masks[layer])
        finals.hs.append(h_seq[-1])
        finals.cs.append(None if c_seq is None else c_seq[-1])
        by_layer.append(caches)
        below = h_seq[1:]
        hs.append(below)
    return hs, finals, [list(step) for step in zip(*by_layer)]


def _unroll_backward(cells, caches, d_top, d_final=None, inject_dim=0, inject_layer=None, grad_accs=None):
    """Reverse-mode pass matching :func:`_unroll`, one layer at a time.

    d_top: (T, ..., N) gradients flowing into the top layer's hidden states.
    d_final: optional RecurrentState gradient on the final state.
    grad_accs: optional per-layer parameter-gradient accumulators; fresh
        zero containers are allocated when omitted.

    Returns (d_xs, d_inject, grads, d_initial); d_xs has the shape of the
    layer-1 inputs and d_inject, summed over steps, is None when no vector
    was injected.
    """
    grads = grad_accs if grad_accs is not None else [c.new_zeros() for c in cells]
    d_above = as_f64(d_top)
    d_initial = RecurrentState([], [])
    d_inject = None
    for layer in range(len(cells) - 1, -1, -1):
        cell = cells[layer]
        lstm = isinstance(cell, LstmCellParams)
        dh = np.zeros(d_above.shape[1:-1] + (cell.n_hidden,)) if d_final is None else as_f64(d_final.hs[layer])
        dc = np.zeros_like(dh) if d_final is None or d_final.cs[layer] is None else as_f64(d_final.cs[layer])
        d_in = np.empty(d_above.shape[:-1] + (cell.n_input,))
        for t in range(len(caches) - 1, -1, -1):
            if lstm:
                d_in[t], dh, dc, _ = lstm_step_backward(cell, caches[t][layer], d_above[t] + dh, dc, grads[layer])
            else:
                d_in[t], dh, _ = rnn_step_backward(cell, caches[t][layer], d_above[t] + dh, grads[layer])
        d_initial.hs.insert(0, dh)
        d_initial.cs.insert(0, dc if lstm else None)
        if layer == inject_layer:
            d_inject = d_in[..., -inject_dim:].sum(axis=0)
            d_in = d_in[..., :-inject_dim]
        d_above = d_in
    return d_above, d_inject, grads, d_initial


def stack_forward(layers, xs, initial: RecurrentState | None = None):
    """Run stacked cells over a sequence; layer l feeds layer l+1.

    Returns (hs, final_state, caches) with hs[layer][t] the hidden vector of
    that layer at step t. Initial state defaults to zeros.
    """
    return _unroll(layers, xs, initial=initial)


def stack_backward(layers, caches, d_top, d_final: RecurrentState | None = None):
    """Backward through :func:`stack_forward`.

    d_top holds per-step gradients on the top layer's hidden vectors (None
    for a step without one). Returns (d_xs, grads, d_initial).
    """
    n = layers[-1].n_hidden
    d_top = [np.zeros(n) if d is None else d for d in d_top]
    d_xs, _, grads, d_initial = _unroll_backward(layers, caches, d_top, d_final)
    return list(d_xs), grads, d_initial
