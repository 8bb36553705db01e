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

Backward passes consume caches produced by the forward passes. Caches hold
the gate activations and the pre-tanh cell value, so nothing expensive is
recomputed. Cells emit only hidden states; output layers live with the
task models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import NamedParams, as_f64, dropout_mask, sigmoid, tanh_act

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


def _uniform_fan_in(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


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
            _uniform_fan_in(rng, (4 * n_hidden, n_input), n_input),
            _uniform_fan_in(rng, (4 * n_hidden, n_hidden), n_hidden),
            np.zeros(4 * n_hidden),
        )
        p.b_f[:] = _INIT_FORGET_BIAS
        return p

    def new_zeros(self) -> "LstmCellParams":
        return LstmCellParams.zeros(self.n_hidden, self.n_input)

    def blocks(self):
        """Named per-gate parameter views, in gate-equation order."""
        n = self.n_hidden
        s = {"i": slice(0, n), "f": slice(n, 2 * n), "o": slice(2 * n, 3 * n), "c": slice(3 * n, 4 * n)}
        out = []
        for gate in ("i", "f", "o", "c"):
            out.append((f"W_x{gate}", self.w_x[s[gate]]))
            out.append((f"W_h{gate}", self.w_h[s[gate]]))
            out.append((f"b_{gate}", self.b[s[gate]]))
        return out

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
            _uniform_fan_in(rng, (n_hidden, n_input), n_input),
            _uniform_fan_in(rng, (n_hidden, n_hidden), n_hidden),
            np.zeros(n_hidden),
            nonlinearity,
        )

    def new_zeros(self) -> "RnnCellParams":
        return RnnCellParams.zeros(self.n_hidden, self.n_input, self.nonlinearity)


@dataclass(slots=True)
class _LstmStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    mask: np.ndarray | None


@dataclass(slots=True)
class _RnnStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    h: np.ndarray
    mask: np.ndarray | None


def _lstm_step_full(p: LstmCellParams, x, h_prev, c_prev, mask=None):
    """One LSTM step returning (h, c, cache). x is the pre-dropout input."""
    if mask is not None:
        x = x * mask
    n = p.n_hidden
    pre = p.w_x @ x + p.w_h @ h_prev + p.b
    i = sigmoid(pre[:n])
    f = sigmoid(pre[n:2 * n])
    o = sigmoid(pre[2 * n:3 * n])
    g = tanh_act(pre[3 * n:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, _LstmStepCache(x, h_prev, c_prev, i, f, o, g, c, mask)


def lstm_step(p: LstmCellParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One LSTM step. Returns (h_t, c_t, GateActivations)."""
    x = as_f64(x)
    if x.shape != (p.n_input,):
        raise ValueError(f"lstm_step input shape {x.shape}, cell expects ({p.n_input},)")
    h, c, cache = _lstm_step_full(p, x, as_f64(h_prev), as_f64(c_prev))
    return h, c, GateActivations(cache.i, cache.f, cache.o, cache.g)


def lstm_step_backward(p: LstmCellParams, cache: _LstmStepCache, dh: np.ndarray, dc: np.ndarray, grad_acc: LstmCellParams | None = None):
    """Backward through one LSTM step.

    dh and dc are the loss gradients flowing into h_t and c_t. Gradients of
    the parameters are accumulated into grad_acc (allocated when None).
    Returns (dx, dh_prev, dc_prev, grad_acc); dx is with respect to the
    pre-dropout input when the forward step used a mask.
    """
    if grad_acc is None:
        grad_acc = p.new_zeros()
    n = p.n_hidden
    i, f, o, g, c = cache.i, cache.f, cache.o, cache.g, cache.c
    tc = np.tanh(c)
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    d_pre = np.empty(4 * n)
    d_pre[:n] = (dc_total * g) * i * (1.0 - i)
    d_pre[n:2 * n] = (dc_total * cache.c_prev) * f * (1.0 - f)
    d_pre[2 * n:3 * n] = do * o * (1.0 - o)
    d_pre[3 * n:] = (dc_total * i) * (1.0 - g * g)
    grad_acc.w_x += np.outer(d_pre, cache.x)
    grad_acc.w_h += np.outer(d_pre, cache.h_prev)
    grad_acc.b += d_pre
    dx = p.w_x.T @ d_pre
    if cache.mask is not None:
        dx = dx * cache.mask
    dh_prev = p.w_h.T @ d_pre
    dc_prev = dc_total * f
    return dx, dh_prev, dc_prev, grad_acc


def _rnn_step_full(p: RnnCellParams, x, h_prev, mask=None):
    if mask is not None:
        x = x * mask
    pre = p.W_xh @ x + p.W_hh @ h_prev + p.b_h
    h = tanh_act(pre) if p.nonlinearity == "tanh" else sigmoid(pre)
    return h, _RnnStepCache(x, h_prev, h, mask)


def rnn_step(p: RnnCellParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """One vanilla RNN step. Returns h_t."""
    x = as_f64(x)
    if x.shape != (p.n_input,):
        raise ValueError(f"rnn_step input shape {x.shape}, cell expects ({p.n_input},)")
    h, _ = _rnn_step_full(p, x, as_f64(h_prev))
    return h


def rnn_step_backward(p: RnnCellParams, cache: _RnnStepCache, dh: np.ndarray, grad_acc: RnnCellParams | None = None):
    """Backward through one RNN step. Returns (dx, dh_prev, grad_acc)."""
    if grad_acc is None:
        grad_acc = p.new_zeros()
    h = cache.h
    if p.nonlinearity == "tanh":
        d_pre = dh * (1.0 - h * h)
    else:
        d_pre = dh * h * (1.0 - h)
    grad_acc.W_xh += np.outer(d_pre, cache.x)
    grad_acc.W_hh += np.outer(d_pre, cache.h_prev)
    grad_acc.b_h += d_pre
    dx = p.W_xh.T @ d_pre
    if cache.mask is not None:
        dx = dx * cache.mask
    dh_prev = p.W_hh.T @ d_pre
    return dx, dh_prev, grad_acc


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

    def copy(self) -> "RecurrentState":
        return RecurrentState(list(self.hs), list(self.cs))


def _unroll(cells, xs, initial=None, inject=None, inject_layer=None, drop=None):
    """Run a stack of cells over a sequence of layer-1 inputs.

    xs: list of input vectors, one per step.
    inject/inject_layer: optional vector concatenated onto the input of one
        layer (0-based index) at every step.
    drop: optional (p, rng); a fresh inverted-dropout mask is drawn for every
        layer input at every step.

    Returns (hs, final_state, caches) where hs[layer][t] is that layer's
    hidden vector at step t and caches feed :func:`_unroll_backward`.
    """
    n_layers = len(cells)
    if initial is None:
        state = RecurrentState.zeros(cells)
    else:
        state = initial.copy()
    hs = [[] for _ in range(n_layers)]
    caches = []
    for t, x in enumerate(xs):
        step_caches = []
        below = as_f64(x)
        for layer, cell in enumerate(cells):
            a = below
            if inject_layer is not None and layer == inject_layer:
                a = np.concatenate([a, inject])
            if a.shape != (cell.n_input,):
                raise ValueError(
                    f"layer {layer} input has shape {a.shape} at step {t}, cell expects ({cell.n_input},)"
                )
            mask = None
            if drop is not None and drop[0] > 0.0:
                mask = dropout_mask(a.shape, drop[0], drop[1])
            if isinstance(cell, LstmCellParams):
                h, c, cache = _lstm_step_full(cell, a, state.hs[layer], state.cs[layer], mask)
                state.cs[layer] = c
            else:
                h, cache = _rnn_step_full(cell, a, state.hs[layer], mask)
            state.hs[layer] = h
            hs[layer].append(h)
            step_caches.append(cache)
            below = h
        caches.append(step_caches)
    return hs, state, caches


def _unroll_backward(cells, caches, d_top, d_final=None, inject_dim=0, inject_layer=None, grad_accs=None):
    """Reverse-mode pass matching :func:`_unroll`.

    d_top: per-step gradients flowing into the top layer's hidden vector
        (entries may be None for steps that received no loss).
    d_final: optional RecurrentState gradient on the final state.
    grad_accs: optional per-layer parameter-gradient accumulators; fresh
        zero containers are allocated when omitted.

    Returns (d_xs, d_inject, grads, d_initial). d_inject is None when no
    vector was injected.
    """
    n_layers = len(cells)
    n_steps = len(caches)
    grads = grad_accs if grad_accs is not None else [c.new_zeros() for c in cells]
    if d_final is None:
        dh_next = [np.zeros(c.n_hidden) for c in cells]
        dc_next = [np.zeros(c.n_hidden) for c in cells]
    else:
        dh_next = [np.array(v, dtype=np.float64) for v in d_final.hs]
        dc_next = [
            np.zeros(c.n_hidden) if d_final.cs[l] is None else np.array(d_final.cs[l], dtype=np.float64)
            for l, c in enumerate(cells)
        ]
    d_inject = np.zeros(inject_dim) if inject_layer is not None else None
    d_xs = [None] * n_steps
    for t in range(n_steps - 1, -1, -1):
        dh_cur = [dh_next[l] for l in range(n_layers)]
        if d_top[t] is not None:
            dh_cur[n_layers - 1] = dh_cur[n_layers - 1] + d_top[t]
        for layer in range(n_layers - 1, -1, -1):
            cache = caches[t][layer]
            cell = cells[layer]
            if isinstance(cell, LstmCellParams):
                dx, dh_prev, dc_prev, _ = lstm_step_backward(cell, cache, dh_cur[layer], dc_next[layer], grads[layer])
                dc_next[layer] = dc_prev
            else:
                dx, dh_prev, _ = rnn_step_backward(cell, cache, dh_cur[layer], grads[layer])
            if inject_layer is not None and layer == inject_layer:
                d_inject += dx[-inject_dim:]
                dx = dx[:-inject_dim]
            if layer > 0:
                dh_cur[layer - 1] = dh_cur[layer - 1] + dx
            else:
                d_xs[t] = dx
            dh_next[layer] = dh_prev
        # dh_next now holds gradients into the step t-1 hidden states.
    d_initial = RecurrentState(
        dh_next,
        [dc_next[l] if isinstance(c, LstmCellParams) else None for l, c in enumerate(cells)],
    )
    return d_xs, d_inject, grads, d_initial


def stack_forward(layers, xs, initial: RecurrentState | None = None):
    """Run stacked cells over a sequence; layer l feeds layer l+1.

    Returns (hs, final_state, caches) with hs[layer][t] the hidden vector of
    that layer at step t. Initial state defaults to zeros.
    """
    return _unroll(layers, xs, initial=initial)


def stack_backward(layers, caches, d_top, d_final: RecurrentState | None = None):
    """Backward through :func:`stack_forward`.

    d_top holds per-step gradients on the top layer's hidden vectors.
    Returns (d_xs, grads, d_initial).
    """
    d_xs, _, grads, d_initial = _unroll_backward(layers, caches, d_top, d_final)
    return d_xs, grads, d_initial
