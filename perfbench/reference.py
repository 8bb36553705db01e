"""Independent numpy forward pass used to check recseq's outputs.

Written from the update equations in the ``recseq.cells`` docstring and
the wiring in the ``recseq.models`` docstring, not from their code. The
parameters are read only by block name (``ModelSpec.blocks()``); the
topology comes from :func:`topology_of`. Convolution and pooling loop
over output positions, a different order of work from the library's
per-offset accumulation, so agreement is evidence rather than echo.

Per-gate LSTM update (gates i, f, o, candidate c):

    a_k = W_xk x + W_hk h_prev + b_k
    c_t = sigmoid(a_f) * c_prev + sigmoid(a_i) * tanh(a_c)
    h_t = sigmoid(a_o) * tanh(c_t)

Vanilla cell: h_t = g(W_xh x + W_hh h_prev + b_h), g = tanh or sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Topology:
    """What the reference needs to know besides the parameter blocks."""

    task: str
    cell: str  # "lstm" or "rnn"
    n_layers: int
    nonlinearity: str = "tanh"
    extractor: str | None = None  # identity / linear / mlp1 / smallconv
    input_shape: tuple = ()
    factored: bool = False
    inject_layer: int | None = None  # 1-based, factored captions only
    bos: int | None = None


def topology_of(m) -> Topology:
    """Describe a ``recseq.models.ModelSpec`` through its public fields."""
    ext = m.extractor
    return Topology(
        task=m.task,
        cell=m.cell_kind,
        n_layers=m.n_layers,
        nonlinearity=getattr(m.cells[0], "nonlinearity", "tanh"),
        extractor=None if ext is None else ext.variant,
        input_shape=() if ext is None else tuple(ext.input_shape),
        factored=m.factored,
        inject_layer=m.inject_layer,
        bos=None if m.vocab is None else m.vocab.bos,
    )


def params_of(m) -> dict:
    """Copies of every parameter block, keyed by block name."""
    return {name: np.array(arr, dtype=np.float64, copy=True) for name, arr in m.blocks()}


def sigmoid(x):
    # 0.5 * (1 + tanh(x / 2)) is the logistic function without overflow.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def log_softmax(z):
    z = np.asarray(z, dtype=np.float64)
    top = np.max(z)
    return z - (top + np.log(np.sum(np.exp(z - top))))


def softmax(z):
    return np.exp(log_softmax(z))


def lstm_step(P, layer, x, h, c):
    def pre(k):
        return P[f"cell{layer}.W_x{k}"] @ x + P[f"cell{layer}.W_h{k}"] @ h + P[f"cell{layer}.b_{k}"]

    c_new = sigmoid(pre("f")) * c + sigmoid(pre("i")) * np.tanh(pre("c"))
    h_new = sigmoid(pre("o")) * np.tanh(c_new)
    return h_new, c_new


def rnn_step(P, layer, x, h, nonlinearity="tanh"):
    a = P[f"cell{layer}.W_xh"] @ x + P[f"cell{layer}.W_hh"] @ h + P[f"cell{layer}.b_h"]
    return np.tanh(a) if nonlinearity == "tanh" else sigmoid(a)


def hidden_size(P, layer):
    key = f"cell{layer}.b_i" if f"cell{layer}.b_i" in P else f"cell{layer}.b_h"
    return P[key].shape[0]


def run_stack(topo: Topology, P, xs, inject=None):
    """Top-layer hidden vectors of the stack over layer-1 inputs ``xs``.

    ``inject`` is concatenated onto the input of layer ``topo.inject_layer``
    (1-based) at every step, as in the factored caption wiring.
    """
    hs = [np.zeros(hidden_size(P, l)) for l in range(topo.n_layers)]
    cs = [np.zeros(hidden_size(P, l)) for l in range(topo.n_layers)]
    tops = []
    for x in xs:
        below = np.asarray(x, dtype=np.float64)
        for l in range(topo.n_layers):
            a = below
            if inject is not None and l == topo.inject_layer - 1:
                a = np.concatenate([a, inject])
            if topo.cell == "lstm":
                hs[l], cs[l] = lstm_step(P, l, a, hs[l], cs[l])
            else:
                hs[l] = rnn_step(P, l, a, hs[l], topo.nonlinearity)
            below = hs[l]
        tops.append(below)
    return tops


def conv2d_valid(x, kernels, bias):
    """Cross-correlation, valid padding, stride 1; one output at a time."""
    f, _, k, _ = kernels.shape
    _, h, w = x.shape
    out = np.empty((f, h - k + 1, w - k + 1))
    for q in range(f):
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                out[q, i, j] = bias[q] + np.sum(kernels[q] * x[:, i:i + k, j:j + k])
    return out


def maxpool2x2(x):
    f, h, w = x.shape
    out = np.empty((f, h // 2, w // 2))
    for q in range(f):
        for i in range(h // 2):
            for j in range(w // 2):
                out[q, i, j] = np.max(x[q, 2 * i:2 * i + 2, 2 * j:2 * j + 2])
    return out


def extract(topo: Topology, P, x):
    """The feature vector of one raw input under the model's extractor."""
    x = np.asarray(x, dtype=np.float64)
    if topo.extractor == "identity":
        return x.reshape(-1)
    if topo.extractor == "linear":
        return P["phi.W"] @ x.reshape(-1) + P["phi.b"]
    if topo.extractor == "mlp1":
        return P["phi.W2"] @ np.tanh(P["phi.W1"] @ x.reshape(-1) + P["phi.b1"]) + P["phi.b2"]
    if topo.extractor == "smallconv":
        pooled = maxpool2x2(conv2d_valid(x, P["phi.kernels"], P["phi.conv_bias"]))
        return P["phi.W"] @ pooled.reshape(-1) + P["phi.b"]
    raise ValueError(f"no reference for extractor {topo.extractor!r}")


def _logp(P, h):
    return log_softmax(P["pred.W_z"] @ h + P["pred.b_z"])


def caption_log_likelihood(topo: Topology, P, visual, tokens):
    """Teacher-forced log P(tokens | extracted image feature ``visual``)."""
    prev = [topo.bos] + list(tokens[:-1])
    emb = [P["embed.W_e"][:, p] for p in prev]
    if topo.factored:
        tops = run_stack(topo, P, emb, inject=visual)
    else:
        tops = run_stack(topo, P, [np.concatenate([e, visual]) for e in emb])
    return sum(float(_logp(P, h)[tok]) for h, tok in zip(tops, tokens))


def caption_nll(topo: Topology, P, image, tokens):
    """NLL of a caption given the raw image (the extractor runs first)."""
    return -caption_log_likelihood(topo, P, extract(topo, P, image), tokens)


def encode_decode_log_likelihood(topo: Topology, P, inputs, targets):
    """Teacher-forced log P(targets | input vectors) of the shared recurrence.

    Encoder steps see [zero token slot, x_t] for all but the last input;
    the boundary step sees [embedded BOS, x_{T-1}]; later steps see
    [embedded previous target, zero input slot]. Every step from the
    boundary on emits one target.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    d_e = P["embed.W_e"].shape[0]
    prev = [topo.bos] + list(targets[:-1])
    xs = [np.concatenate([np.zeros(d_e), x]) for x in inputs[:-1]]
    for j, p in enumerate(prev):
        slot = inputs[-1] if j == 0 else np.zeros(inputs.shape[1])
        xs.append(np.concatenate([P["embed.W_e"][:, p], slot]))
    tops = run_stack(topo, P, xs)[len(inputs) - 1:]
    return sum(float(_logp(P, h)[tok]) for h, tok in zip(tops, targets))


def classify_distribution(topo: Topology, P, frames):
    """Late fusion: the mean over steps of the per-step class softmax."""
    tops = run_stack(topo, P, [extract(topo, P, fr) for fr in frames])
    return np.mean([softmax(P["pred.W_z"] @ h + P["pred.b_z"]) for h in tops], axis=0)


def classify_nll(topo: Topology, P, frames, label):
    """Sum over steps of -log P(label) under each step's softmax."""
    tops = run_stack(topo, P, [extract(topo, P, fr) for fr in frames])
    return -sum(float(_logp(P, h)[label]) for h in tops)
