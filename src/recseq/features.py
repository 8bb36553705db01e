"""Differentiable feature extractors mapping raw inputs to flat vectors.

A recurrent task model sees one feature vector per step. These extractors
produce that vector from a raw frame (or a static image) and expose exact
backward passes so the whole pipeline trains jointly. The same parameters
are applied at every time step, so every call also takes a stack of frames
``(N, *input_shape)`` and maps it with one pass of matrix products; a
single frame runs as a stack of one.

Variants:
  identity   flatten the input, no parameters
  linear     affine map of the flattened input
  mlp1       one tanh hidden layer, then an affine map
  smallconv  one 2-D convolution (valid padding, stride 1), 2x2 max pool,
             then an affine map of the flattened pool output
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import NamedParams, as_f64, uniform_fan_in

__all__ = [
    "IdentityExtractor",
    "LinearExtractor",
    "Mlp1Extractor",
    "SmallConvExtractor",
    "make_extractor",
    "phi_forward",
    "phi_backward",
    "conv2d_valid",
    "conv2d_valid_backward",
    "maxpool2x2",
    "maxpool2x2_backward",
]


class _Extractor(NamedParams):
    """Base of the extractors: one frame or a stack of frames per call.

    Subclasses implement ``_forward`` on a stack ``(N, *input_shape)``,
    returning ``(N, out_dim)`` and a cache, and ``_backward`` from
    ``(N, out_dim)`` to the per-frame input gradients and the parameter
    gradients summed over the frames. A single frame runs as a stack of one.
    """

    def forward(self, x):
        x = as_f64(x)
        if x.shape == self.input_shape:
            y, cache = self._forward(x[None])
            return y[0], cache
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"extractor expects shape {self.input_shape} or (N,) + {self.input_shape}, got {x.shape}")
        return self._forward(x)

    def backward(self, cache, d_out):
        if d_out.ndim == 1:
            dx, grads = self._backward(cache, d_out[None])
            return dx[0], grads
        return self._backward(cache, d_out)


class IdentityExtractor(_Extractor):
    """Flattens the input; output dim equals the input size."""

    variant = "identity"

    def __init__(self, input_shape):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.out_dim = int(np.prod(self.input_shape))

    def _forward(self, x):
        return x.reshape(len(x), self.out_dim), None

    def _backward(self, cache, d_out):
        return d_out.reshape((len(d_out),) + self.input_shape), {}


class LinearExtractor(_Extractor):
    """y = W x + b over the flattened input."""

    variant = "linear"
    PARAMS = ("W", "b")

    def __init__(self, input_shape, W, b):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.W = as_f64(W)
        self.b = as_f64(b)
        in_dim = int(np.prod(self.input_shape))
        if self.W.shape[1] != in_dim or self.W.shape[0] != self.b.shape[0]:
            raise ValueError(f"linear extractor shapes {self.W.shape}, {self.b.shape} do not fit input {self.input_shape}")
        self.out_dim = self.W.shape[0]

    @classmethod
    def init(cls, input_shape, out_dim, rng):
        in_dim = int(np.prod(input_shape))
        return cls(input_shape, uniform_fan_in(rng, (out_dim, in_dim), in_dim), np.zeros(out_dim))

    def _forward(self, x):
        flat = x.reshape(len(x), self.W.shape[1])
        return flat @ self.W.T + self.b, flat

    def _backward(self, cache, d_out):
        flat = cache
        grads = {"W": d_out.T @ flat, "b": d_out.sum(axis=0)}
        return (d_out @ self.W).reshape((len(d_out),) + self.input_shape), grads


class Mlp1Extractor(_Extractor):
    """y = W2 tanh(W1 x + b1) + b2 over the flattened input."""

    variant = "mlp1"
    PARAMS = ("W1", "b1", "W2", "b2")

    def __init__(self, input_shape, W1, b1, W2, b2):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.W1 = as_f64(W1)
        self.b1 = as_f64(b1)
        self.W2 = as_f64(W2)
        self.b2 = as_f64(b2)
        in_dim = int(np.prod(self.input_shape))
        if self.W1.shape[1] != in_dim or self.W2.shape[1] != self.W1.shape[0]:
            raise ValueError("mlp1 extractor shapes are inconsistent")
        self.hidden_dim = self.W1.shape[0]
        self.out_dim = self.W2.shape[0]

    @classmethod
    def init(cls, input_shape, out_dim, rng, hidden_dim=16):
        in_dim = int(np.prod(input_shape))
        return cls(
            input_shape,
            uniform_fan_in(rng, (hidden_dim, in_dim), in_dim),
            np.zeros(hidden_dim),
            uniform_fan_in(rng, (out_dim, hidden_dim), hidden_dim),
            np.zeros(out_dim),
        )

    def _forward(self, x):
        flat = x.reshape(len(x), self.W1.shape[1])
        hidden = np.tanh(flat @ self.W1.T + self.b1)
        return hidden @ self.W2.T + self.b2, (flat, hidden)

    def _backward(self, cache, d_out):
        flat, hidden = cache
        d_hidden = (d_out @ self.W2) * (1.0 - hidden * hidden)
        grads = {
            "W1": d_hidden.T @ flat,
            "b1": d_hidden.sum(axis=0),
            "W2": d_out.T @ hidden,
            "b2": d_out.sum(axis=0),
        }
        return (d_hidden @ self.W1).reshape((len(d_out),) + self.input_shape), grads


def _im2col(x, k):
    """(N*oh*ow, C*k*k) patch rows of a (N, C, H, W) stack, in (n, i, j) order."""
    c = x.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))  # (N, C, oh, ow, k, k)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, c * k * k)


def conv2d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid-padding stride-1 convolution of every frame in a stack.

    x: (..., C, H, W), any number of leading frame axes; kernels:
    (F, C, k, k); bias: (F,). Returns (..., F, H-k+1, W-k+1). Kernels are
    applied as stated, without flipping (cross-correlation, the usual
    network convention). The whole stack is one GEMM over its im2col rows.
    """
    x = as_f64(x)
    *lead, c, h, w = x.shape
    f, kc, k, k2 = kernels.shape
    if kc != c or k != k2:
        raise ValueError(f"kernel shape {kernels.shape} does not fit input {x.shape}")
    oh, ow = h - k + 1, w - k + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {k}x{k} larger than input {h}x{w}")
    frames = x.reshape(-1, c, h, w)
    out = _im2col(frames, k) @ kernels.reshape(f, -1).T + bias
    return out.reshape(len(frames), oh, ow, f).transpose(0, 3, 1, 2).reshape(*lead, f, oh, ow)


def conv2d_valid_backward(x, kernels, d_out):
    """Gradients of :func:`conv2d_valid` with respect to x, kernels, bias.

    The kernel and bias gradients are summed over the frames; x's gradient
    has x's shape.
    """
    *_, c, h, w = x.shape
    f, _, k, _ = kernels.shape
    oh, ow = d_out.shape[-2:]
    frames = x.reshape(-1, c, h, w)
    n = len(frames)
    d_rows = d_out.reshape(n, f, oh * ow).transpose(0, 2, 1).reshape(-1, f)
    dk = (d_rows.T @ _im2col(frames, k)).reshape(kernels.shape)
    db = d_rows.sum(axis=0)
    d_cols = (d_rows @ kernels.reshape(f, -1)).reshape(n, oh, ow, c, k, k)
    dx = np.zeros((n, c, h, w))
    for a in range(k):
        for b in range(k):
            dx[:, :, a:a + oh, b:b + ow] += d_cols[..., a, b].transpose(0, 3, 1, 2)
    return dx.reshape(x.shape), dk, db


def maxpool2x2(x: np.ndarray):
    """2x2 max pooling with stride 2; trailing odd rows/columns are dropped.

    x: (..., H, W), any number of leading axes. Returns (pooled, argmax)
    where argmax holds, per pooled position, the row-major position 0..3
    of the selected element within its 2x2 window (first maximum wins on
    ties).
    """
    *lead, h, w = x.shape
    ph, pw = h // 2, w // 2
    if ph < 1 or pw < 1:
        raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
    trimmed = x[..., :2 * ph, :2 * pw]
    windows = trimmed.reshape(*lead, ph, 2, pw, 2).swapaxes(-3, -2).reshape(*lead, ph, pw, 4)
    argmax = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    return pooled, argmax


def maxpool2x2_backward(x_shape, argmax, d_pooled):
    """Route pooled gradients back to the selected input positions.

    The windows are disjoint, so each pooled gradient lands on one input
    position and nothing is accumulated.
    """
    *lead, ph, pw = argmax.shape
    d_windows = np.where(argmax[..., None] == np.arange(4), d_pooled[..., None], 0.0)
    dx = np.zeros(x_shape)
    dx[..., :2 * ph, :2 * pw] = d_windows.reshape(*lead, ph, pw, 2, 2).swapaxes(-3, -2).reshape(*lead, 2 * ph, 2 * pw)
    return dx


def _pooled_hw(input_shape, k):
    """(H, W) after a valid k x k convolution and a 2x2 pool of (C, H, W) frames."""
    if len(input_shape) != 3:
        raise ValueError(f"smallconv input must be (C, H, W), got {tuple(input_shape)}")
    _, h, w = input_shape
    ph, pw = (h - k + 1) // 2, (w - k + 1) // 2
    if ph < 1 or pw < 1:
        raise ValueError(f"smallconv frames of shape {tuple(input_shape)} are too small for a {k}x{k} kernel "
                         f"and a 2x2 pool (need at least {k + 1}x{k + 1})")
    return ph, pw


class SmallConvExtractor(_Extractor):
    """Convolution, 2x2 max pool, then an affine head.

    Input shape must be (C, H, W). The max pool is the only nonlinearity;
    it is enough to make the map non-affine while keeping the arithmetic
    easy to verify by hand.
    """

    variant = "smallconv"
    PARAMS = ("kernels", "conv_bias", "W", "b")

    def __init__(self, input_shape, kernels, conv_bias, W, b):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.kernels = as_f64(kernels)
        self.conv_bias = as_f64(conv_bias)
        self.W = as_f64(W)
        self.b = as_f64(b)
        f, kc, k, _ = self.kernels.shape
        ph, pw = _pooled_hw(self.input_shape, k)
        if kc != self.input_shape[0]:
            raise ValueError("kernel channel count does not match input")
        self.kernel_size = k
        self.n_filters = f
        flat = f * ph * pw
        if self.W.shape[1] != flat:
            raise ValueError(f"head expects {self.W.shape[1]} inputs, pool produces {flat}")
        self.out_dim = self.W.shape[0]

    @classmethod
    def init(cls, input_shape, out_dim, rng, n_filters=4, kernel_size=3):
        k = kernel_size
        ph, pw = _pooled_hw(input_shape, k)
        c = input_shape[0]
        fan_in = c * k * k
        kernels = uniform_fan_in(rng, (n_filters, c, k, k), fan_in)
        flat = n_filters * ph * pw
        return cls(
            input_shape,
            kernels,
            np.zeros(n_filters),
            uniform_fan_in(rng, (out_dim, flat), flat),
            np.zeros(out_dim),
        )

    def _forward(self, x):
        conv = conv2d_valid(x, self.kernels, self.conv_bias)
        pooled, argmax = maxpool2x2(conv)
        flat = pooled.reshape(len(x), -1)
        return flat @ self.W.T + self.b, (x, conv.shape, argmax, flat)

    def _backward(self, cache, d_out):
        x, conv_shape, argmax, flat = cache
        d_pooled = (d_out @ self.W).reshape(argmax.shape)
        d_conv = maxpool2x2_backward(conv_shape, argmax, d_pooled)
        dx, dk, dcb = conv2d_valid_backward(x, self.kernels, d_conv)
        grads = {
            "kernels": dk,
            "conv_bias": dcb,
            "W": d_out.T @ flat,
            "b": d_out.sum(axis=0),
        }
        return dx, grads


def make_extractor(variant, input_shape, out_dim=None, rng=None, **kwargs):
    """Build an extractor by variant name with freshly initialized weights."""
    if variant == "identity":
        return IdentityExtractor(input_shape)
    if rng is None:
        raise ValueError(f"variant {variant!r} has parameters and needs an rng")
    if out_dim is None:
        raise ValueError(f"variant {variant!r} needs an explicit output dim")
    if variant == "linear":
        return LinearExtractor.init(input_shape, out_dim, rng)
    if variant == "mlp1":
        return Mlp1Extractor.init(input_shape, out_dim, rng, **kwargs)
    if variant == "smallconv":
        return SmallConvExtractor.init(input_shape, out_dim, rng, **kwargs)
    raise ValueError(f"unknown extractor variant {variant!r}")


def phi_forward(extractor, x):
    """Apply an extractor to one raw input or a stack of them. Returns (vectors, cache).

    ``x`` of the extractor's input shape gives one vector; a stack
    ``(N, *input_shape)`` gives ``(N, out_dim)`` rows from one call.
    """
    return extractor.forward(x)


def phi_backward(extractor, cache, d_out):
    """Backward through :func:`phi_forward`. Returns (d_x, param grads).

    For a stack, ``d_out`` is ``(N, out_dim)``, ``d_x`` holds one row per
    frame and the parameter gradients are summed over the frames.
    """
    return extractor.backward(cache, d_out)
