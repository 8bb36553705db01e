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
one-step calls into it. Each layer's forward leaves one tape, the arrays
it filled: (input, hidden states, cell states, activations, dropout
mask). A step's cache is the pair (tape, t). Backward walks the layers
top down, one :func:`_layer_backward` per layer: the gate derivatives of
all steps come from the tape at once, the reverse step loop carries only
the state gradients and the recurrent product, and the parameter and
input gradients are one product each over all steps. The single-step
backward functions are one-step calls into it. The LSTM gates take one
tanh over all four blocks. A decode step never runs a backward, so
it keeps no tape: :func:`_stack_step` applies the same cell formulas
(:func:`_lstm_cell`, :func:`_rnn_cell`) straight to the state vectors.
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
    activations [i f o g] on return. Returns (h, c).

    One tanh covers all four blocks: sigmoid(z) = 0.5 + 0.5 tanh(z / 2),
    and halving the i, f, o pre-activations is exact."""
    n = p.n_hidden
    act += h_prev @ p.w_h.T
    gates = act[..., :3 * n]
    gates *= 0.5
    np.tanh(act, out=act)
    gates *= 0.5
    gates += 0.5
    c = act[..., n:2 * n] * c_prev + act[..., :n] * act[..., 3 * n:]
    return act[..., 2 * n:3 * n] * np.tanh(c), c


def _rnn_cell(p: RnnCellParams, act, h_prev):
    """The vanilla step. ``act`` holds W_xh x + b_h on entry and the
    pre-activations on return. Returns h."""
    act += h_prev @ p.W_hh.T
    return np.tanh(act) if p.nonlinearity == "tanh" else sigmoid(act)


def _layer_forward(cell, a, h0, c0, mask):
    """Run one layer over time-major inputs ``a`` (T, ..., d) from (h0, c0).

    The input product is one GEMM over every step; each step then adds one
    recurrent product in place, so a step's slice of it ends up holding
    that step's activations. Returns the layer's tape (a, hs, cs, acts,
    mask): ``a`` is the input after dropout, hs[0] = h0 and hs[t + 1] the
    state after step t, cs likewise (None for a vanilla layer), and acts
    the activations (an LSTM's gates, a vanilla layer's pre-activations).
    """
    if mask is not None:
        a = a * mask
    w_x, _, b = (getattr(cell, name) for name in cell.PARAMS)
    acts = (a.reshape(-1, a.shape[-1]) @ w_x.T + b).reshape(a.shape[:-1] + b.shape)
    hs = np.empty((len(a) + 1,) + a.shape[1:-1] + (cell.n_hidden,))
    hs[0] = h0
    lstm = isinstance(cell, LstmCellParams)
    cs = np.empty_like(hs) if lstm else None
    if lstm:
        cs[0] = c0
    for t in range(len(a)):
        if lstm:
            hs[t + 1], cs[t + 1] = _lstm_cell(cell, acts[t], hs[t], cs[t])
        else:
            hs[t + 1] = _rnn_cell(cell, acts[t], hs[t])
    return a, hs, cs, acts, mask


def lstm_step(p: LstmCellParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One LSTM step. Returns (h_t, c_t, GateActivations)."""
    x = as_f64(x)
    if x.shape != (p.n_input,):
        raise ValueError(f"lstm_step input shape {x.shape}, cell expects ({p.n_input},)")
    _, hs, cs, acts, _ = _layer_forward(p, x[None], as_f64(h_prev), as_f64(c_prev), None)
    return hs[1], cs[1], GateActivations(*np.split(acts[0], 4))


def rnn_step(p: RnnCellParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """One vanilla RNN step. Returns h_t."""
    x = as_f64(x)
    if x.shape != (p.n_input,):
        raise ValueError(f"rnn_step input shape {x.shape}, cell expects ({p.n_input},)")
    return _layer_forward(p, x[None], as_f64(h_prev), None, None)[1][1]


def _layer_backward(cell, tape, d_above, grad, dc=None):
    """Reverse-mode pass through one layer's tape.

    d_above: (T, ..., N) gradients flowing into the layer's hidden states
        from above; dc: optional gradient flowing into its last cell state.
    grad: container of the layer's parameter gradients, added to in place.

    The gate derivatives of every step are formed from the tape before the
    step loop, which keeps only the carried state gradients, one product
    per gate block into that step's pre-activation gradient and the
    recurrent product. The parameter gradients and the input gradient are
    then one product each over all steps. Returns (d_in, dh0, dc0): the
    gradients of the layer's input before dropout, of its initial hidden
    state and of its initial cell state (None for a vanilla layer).
    """
    a, hs, cs, acts, mask = tape
    w_x, w_h, _ = (getattr(cell, name) for name in cell.PARAMS)
    d_pre = np.empty(acts.shape)
    dh = np.zeros(hs.shape[1:])
    if isinstance(cell, LstmCellParams):
        n = cell.n_hidden
        i, f, o, g = (acts[..., k * n:(k + 1) * n] for k in range(4))
        tc = np.tanh(cs[1:])
        # Per step, d_pre = coef * (dc, dc, dh, dc) block by block, where dc
        # is the cell state's gradient: what the next step carries back
        # plus dh * c_from_h through h = o * tanh(c).
        coef = np.empty(acts.shape)
        coef[..., :n] = g * i * (1.0 - i)
        coef[..., n:2 * n] = cs[:-1] * f * (1.0 - f)
        coef[..., 2 * n:3 * n] = tc * o * (1.0 - o)
        coef[..., 3 * n:] = i * (1.0 - g * g)
        c_from_h = o * (1.0 - tc * tc)
        blocks = d_pre.reshape(acts.shape[:-1] + (4, n))
        coef = coef.reshape(blocks.shape)
        dc = np.zeros_like(dh) if dc is None else dc
        for t in range(len(acts) - 1, -1, -1):
            dh += d_above[t]
            dc = dc + dh * c_from_h[t]
            np.multiply(coef[t], dc[..., None, :], out=blocks[t])
            np.multiply(coef[t, ..., 2, :], dh, out=blocks[t, ..., 2, :])
            dc = dc * f[t]
            dh = d_pre[t] @ w_h
    else:
        h = hs[1:]
        slope = 1.0 - h * h if cell.nonlinearity == "tanh" else h * (1.0 - h)
        for t in range(len(acts) - 1, -1, -1):
            dh += d_above[t]
            np.multiply(dh, slope[t], out=d_pre[t])
            dh = d_pre[t] @ w_h
    g_x, g_h, g_b = (getattr(grad, name) for name in cell.PARAMS)
    rows = d_pre.reshape(-1, d_pre.shape[-1])
    g_x += rows.T @ a.reshape(len(rows), -1)
    g_h += rows.T @ hs[:-1].reshape(len(rows), -1)
    g_b += rows.sum(axis=0)
    d_in = (rows @ w_x).reshape(a.shape)
    if mask is not None:
        d_in *= mask
    return d_in, dh, dc


def _step_tape(cache):
    """The one-step tape of step t of a (tape, t) cache: the input,
    activations and mask rows of step t, and the states before and after."""
    tape, t = cache
    return tuple(None if arr is None else arr[t:t + k] for arr, k in zip(tape, (1, 2, 2, 1, 1)))


def lstm_step_backward(p: LstmCellParams, cache, dh: np.ndarray, dc: np.ndarray, grad_acc: LstmCellParams | None = None):
    """Backward through one LSTM step, for one vector or a batch of rows.

    ``cache`` is the step's (tape, t). dh and dc are the loss gradients
    flowing into h_t and c_t. Gradients of the parameters are accumulated
    into grad_acc (allocated when None). Returns (dx, dh_prev, dc_prev,
    grad_acc); dx is with respect to the pre-dropout input when the forward
    step used a mask.
    """
    grad_acc = p.new_zeros() if grad_acc is None else grad_acc
    d_in, dh_prev, dc_prev = _layer_backward(p, _step_tape(cache), as_f64(dh)[None], grad_acc, as_f64(dc))
    return d_in[0], dh_prev, dc_prev, grad_acc


def rnn_step_backward(p: RnnCellParams, cache, dh: np.ndarray, grad_acc: RnnCellParams | None = None):
    """Backward through one RNN step from its (tape, t) cache. Returns (dx,
    dh_prev, grad_acc)."""
    grad_acc = p.new_zeros() if grad_acc is None else grad_acc
    d_in, dh_prev, _ = _layer_backward(p, _step_tape(cache), as_f64(dh)[None], grad_acc)
    return d_in[0], dh_prev, grad_acc


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
    # One draw whose rows are the real steps example by example: the
    # generator yields the same numbers as one draw per example.
    b_idx, t_idx = np.nonzero(np.arange(n_steps) < np.asarray(lengths)[:, None])
    drawn = dropout_mask((len(b_idx), sum(dims)), p, rng)
    masks = [np.zeros((n_steps, len(lengths), d)) for d in dims]
    for mask, lo, d in zip(masks, np.cumsum([0] + dims), dims):
        mask[t_idx, b_idx] = drawn[:, lo:lo + d]
    return masks


def _unroll(cells, xs, initial=None, inject=None, inject_layer=0, drop=None, lengths=None):
    """Run a stack of cells over time-major layer-1 inputs.

    xs: (T, d) for one sequence (a list of vectors works too) or (T, B, d)
        for a batch padded on the right.
    inject/inject_layer: optional slot joined after the input of one layer
        (0-based index) at every step: one vector per sequence, or one per
        step shaped like that layer's input.
    drop: optional (p, rng) for a batch whose sequences run ``lengths``
        steps; see :func:`_dropout_masks`.

    Returns (hs, final_state, tapes): hs[layer] is that layer's (T, ..., N)
    hidden states and tapes[layer] the tape of :func:`_layer_forward` that
    feeds :func:`_unroll_backward`.
    """
    xs = as_f64(xs)
    state = RecurrentState.zeros(cells) if initial is None else initial
    masks = None if drop is None or drop[0] == 0.0 else _dropout_masks(cells, len(xs), lengths, drop)
    hs, finals, tapes = [], RecurrentState([], []), []
    below = xs
    for layer, cell in enumerate(cells):
        if inject is not None and layer == inject_layer:
            joined = np.empty(below.shape[:-1] + (below.shape[-1] + inject.shape[-1],))
            joined[..., :below.shape[-1]] = below
            joined[..., below.shape[-1]:] = inject
            below = joined
        if below.shape[-1] != cell.n_input:
            raise ValueError(f"layer {layer} input has shape {below.shape[-1:]}, cell expects ({cell.n_input},)")
        tape = _layer_forward(cell, below, state.hs[layer], state.cs[layer], None if masks is None else masks[layer])
        _, h_seq, c_seq, _, _ = tape
        finals.hs.append(h_seq[-1])
        finals.cs.append(None if c_seq is None else c_seq[-1])
        tapes.append(tape)
        below = h_seq[1:]
        hs.append(below)
    return hs, finals, tapes


def _stack_step(cells, x, state, inject, inject_layer):
    """One step of a stack of cells on state vectors, keeping no tape.

    x is the layer-1 input vector and ``inject`` the slot joined after the
    input of layer ``inject_layer`` (0-based). Each layer's input product
    has the engine's (1, d) row shape, so the step computes what a one-step
    :func:`_unroll` computes. Returns (top hidden vector, new state).
    """
    new = RecurrentState([], [])
    below = x
    for layer, cell in enumerate(cells):
        if layer == inject_layer:
            below = np.concatenate([below, inject])
        w_x, _, b = (getattr(cell, name) for name in cell.PARAMS)
        act = (below[None] @ w_x.T + b)[0]
        if isinstance(cell, LstmCellParams):
            below, c = _lstm_cell(cell, act, state.hs[layer], state.cs[layer])
        else:
            below, c = _rnn_cell(cell, act, state.hs[layer]), None
        new.hs.append(below)
        new.cs.append(c)
    return below, new


def _unroll_backward(cells, d_top, tapes, inject_dim=0, inject_layer=0, grad_accs=None):
    """Reverse-mode pass matching :func:`_unroll`, one layer at a time.

    d_top: (T, ..., N) gradients flowing into the top layer's hidden states.
    inject_dim/inject_layer: width and layer of the slot the forward joined.
    grad_accs: optional per-layer parameter-gradient accumulators; fresh
        zero containers are allocated when omitted.

    Returns (d_xs, d_inject, grads); d_xs has the shape of the layer-1
    inputs and d_inject, (T, ..., inject_dim), is the slot's gradient at
    every step, None when nothing was injected.
    """
    grads = grad_accs if grad_accs is not None else [c.new_zeros() for c in cells]
    d_above = as_f64(d_top)
    d_inject = None
    for layer in range(len(cells) - 1, -1, -1):
        d_in, _, _ = _layer_backward(cells[layer], tapes[layer], d_above, grads[layer])
        if inject_dim and layer == inject_layer:
            d_inject = d_in[..., -inject_dim:]
            d_in = d_in[..., :-inject_dim]
        d_above = d_in
    return d_above, d_inject, grads


def stack_forward(layers, xs, initial: RecurrentState | None = None):
    """Run stacked cells over a sequence; layer l feeds layer l+1.

    Returns (hs, final_state, tapes) with hs[layer][t] the hidden vector of
    that layer at step t. Initial state defaults to zeros.
    """
    return _unroll(layers, xs, initial=initial)


def stack_backward(layers, tapes, d_top):
    """Backward through :func:`stack_forward`.

    d_top holds per-step gradients on the top layer's hidden vectors (None
    for a step without one). Returns (d_xs, grads).
    """
    n = layers[-1].n_hidden
    d_top = [np.zeros(n) if d is None else d for d in d_top]
    d_xs, _, grads = _unroll_backward(layers, d_top, tapes)
    return list(d_xs), grads
