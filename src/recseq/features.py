"""Differentiable feature extractors mapping raw inputs to flat vectors.

A recurrent task model sees one feature vector per step. These extractors
produce that vector from a raw frame (or a static image) and expose exact
backward passes so the whole pipeline trains jointly. The same parameters
are applied at every time step.

Variants:
  identity   flatten the input, no parameters
  linear     affine map of the flattened input
  mlp1       one tanh hidden layer, then an affine map
  smallconv  one 2-D convolution (valid padding, stride 1), 2x2 max pool,
             then an affine map of the flattened pool output
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import NamedParams, as_f64

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


def _uniform_fan_in(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class IdentityExtractor(NamedParams):
    """Flattens the input; output dim equals the input size."""

    variant = "identity"

    def __init__(self, input_shape):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.out_dim = int(np.prod(self.input_shape))

    def forward(self, x):
        x = as_f64(x)
        if x.shape != self.input_shape:
            raise ValueError(f"extractor expects shape {self.input_shape}, got {x.shape}")
        return x.reshape(-1), None

    def backward(self, cache, d_out):
        return d_out.reshape(self.input_shape), {}


class LinearExtractor(NamedParams):
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
        return cls(input_shape, _uniform_fan_in(rng, (out_dim, in_dim), in_dim), np.zeros(out_dim))

    def forward(self, x):
        x = as_f64(x)
        if x.shape != self.input_shape:
            raise ValueError(f"extractor expects shape {self.input_shape}, got {x.shape}")
        flat = x.reshape(-1)
        return self.W @ flat + self.b, flat

    def backward(self, cache, d_out):
        flat = cache
        grads = {"W": np.outer(d_out, flat), "b": d_out.copy()}
        return (self.W.T @ d_out).reshape(self.input_shape), grads


class Mlp1Extractor(NamedParams):
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
            _uniform_fan_in(rng, (hidden_dim, in_dim), in_dim),
            np.zeros(hidden_dim),
            _uniform_fan_in(rng, (out_dim, hidden_dim), hidden_dim),
            np.zeros(out_dim),
        )

    def forward(self, x):
        x = as_f64(x)
        if x.shape != self.input_shape:
            raise ValueError(f"extractor expects shape {self.input_shape}, got {x.shape}")
        flat = x.reshape(-1)
        hidden = np.tanh(self.W1 @ flat + self.b1)
        return self.W2 @ hidden + self.b2, (flat, hidden)

    def backward(self, cache, d_out):
        flat, hidden = cache
        d_hidden = (self.W2.T @ d_out) * (1.0 - hidden * hidden)
        grads = {
            "W1": np.outer(d_hidden, flat),
            "b1": d_hidden,
            "W2": np.outer(d_out, hidden),
            "b2": d_out.copy(),
        }
        return (self.W1.T @ d_hidden).reshape(self.input_shape), grads


def conv2d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid-padding stride-1 convolution.

    x: (C, H, W); kernels: (F, C, k, k); bias: (F,).
    Returns (F, H-k+1, W-k+1). Kernels are applied as stated, without
    flipping (cross-correlation, the usual network convention).
    """
    x = as_f64(x)
    c, h, w = x.shape
    f, kc, k, k2 = kernels.shape
    if kc != c or k != k2:
        raise ValueError(f"kernel shape {kernels.shape} does not fit input {x.shape}")
    oh, ow = h - k + 1, w - k + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {k}x{k} larger than input {h}x{w}")
    out = np.empty((f, oh, ow))
    out[:] = bias[:, None, None]
    for a in range(k):
        for b in range(k):
            patch = x[:, a:a + oh, b:b + ow]
            # (F, C) x (C, oh*ow) accumulated per kernel offset
            out += (kernels[:, :, a, b] @ patch.reshape(c, -1)).reshape(f, oh, ow)
    return out


def conv2d_valid_backward(x, kernels, d_out):
    """Gradients of :func:`conv2d_valid` with respect to x, kernels, bias."""
    c, h, w = x.shape
    f, _, k, _ = kernels.shape
    oh, ow = d_out.shape[1], d_out.shape[2]
    dx = np.zeros_like(x)
    dk = np.zeros_like(kernels)
    db = d_out.sum(axis=(1, 2))
    dflat = d_out.reshape(f, -1)
    for a in range(k):
        for b in range(k):
            patch = x[:, a:a + oh, b:b + ow].reshape(c, -1)
            dk[:, :, a, b] = dflat @ patch.T
            dx[:, a:a + oh, b:b + ow] += (kernels[:, :, a, b].T @ dflat).reshape(c, oh, ow)
    return dx, dk, db


def maxpool2x2(x: np.ndarray):
    """2x2 max pooling with stride 2; trailing odd rows/columns are dropped.

    Returns (pooled, argmax_flat) where argmax_flat holds, per pooled
    position, the flat index into x of the selected element (first maximum
    wins on ties).
    """
    f, h, w = x.shape
    ph, pw = h // 2, w // 2
    if ph < 1 or pw < 1:
        raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
    trimmed = x[:, :2 * ph, :2 * pw]
    windows = trimmed.reshape(f, ph, 2, pw, 2).transpose(0, 1, 3, 2, 4).reshape(f, ph, pw, 4)
    local = windows.argmax(axis=3)
    pooled = np.take_along_axis(windows, local[..., None], axis=3)[..., 0]
    # Convert window-local argmax to flat indices into the unpooled array.
    fi, pi, pj = np.meshgrid(np.arange(f), np.arange(ph), np.arange(pw), indexing="ij")
    rows = 2 * pi + local // 2
    cols = 2 * pj + local % 2
    argmax_flat = (fi * h + rows) * w + cols
    return pooled, argmax_flat


def maxpool2x2_backward(x_shape, argmax_flat, d_pooled):
    """Route pooled gradients back to the selected input positions."""
    dx = np.zeros(int(np.prod(x_shape)))
    np.add.at(dx, argmax_flat.ravel(), d_pooled.ravel())
    return dx.reshape(x_shape)


class SmallConvExtractor(NamedParams):
    """Convolution, 2x2 max pool, then an affine head.

    Input shape must be (C, H, W). The max pool is the only nonlinearity;
    it is enough to make the map non-affine while keeping the arithmetic
    easy to verify by hand.
    """

    variant = "smallconv"
    PARAMS = ("kernels", "conv_bias", "W", "b")

    def __init__(self, input_shape, kernels, conv_bias, W, b):
        if len(input_shape) != 3:
            raise ValueError(f"smallconv input must be (C, H, W), got {input_shape}")
        self.input_shape = tuple(int(s) for s in input_shape)
        self.kernels = as_f64(kernels)
        self.conv_bias = as_f64(conv_bias)
        self.W = as_f64(W)
        self.b = as_f64(b)
        c, h, w = self.input_shape
        f, kc, k, _ = self.kernels.shape
        if kc != c:
            raise ValueError("kernel channel count does not match input")
        self.kernel_size = k
        self.n_filters = f
        oh, ow = h - k + 1, w - k + 1
        self.pooled_shape = (f, oh // 2, ow // 2)
        flat = int(np.prod(self.pooled_shape))
        if self.W.shape[1] != flat:
            raise ValueError(f"head expects {self.W.shape[1]} inputs, pool produces {flat}")
        self.out_dim = self.W.shape[0]

    @classmethod
    def init(cls, input_shape, out_dim, rng, n_filters=4, kernel_size=3):
        c, h, w = input_shape
        k = kernel_size
        fan_in = c * k * k
        kernels = _uniform_fan_in(rng, (n_filters, c, k, k), fan_in)
        oh, ow = h - k + 1, w - k + 1
        flat = n_filters * (oh // 2) * (ow // 2)
        return cls(
            input_shape,
            kernels,
            np.zeros(n_filters),
            _uniform_fan_in(rng, (out_dim, flat), flat),
            np.zeros(out_dim),
        )

    def forward(self, x):
        x = as_f64(x)
        if x.shape != self.input_shape:
            raise ValueError(f"extractor expects shape {self.input_shape}, got {x.shape}")
        conv = conv2d_valid(x, self.kernels, self.conv_bias)
        pooled, argmax = maxpool2x2(conv)
        flat = pooled.reshape(-1)
        return self.W @ flat + self.b, (x, conv.shape, argmax, flat)

    def backward(self, cache, d_out):
        x, conv_shape, argmax, flat = cache
        d_flat = self.W.T @ d_out
        d_pooled = d_flat.reshape(self.pooled_shape)
        d_conv = maxpool2x2_backward(conv_shape, argmax, d_pooled)
        dx, dk, dcb = conv2d_valid_backward(x, self.kernels, d_conv)
        grads = {
            "kernels": dk,
            "conv_bias": dcb,
            "W": np.outer(d_out, flat),
            "b": d_out.copy(),
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
    """Apply an extractor to one raw input. Returns (vector, cache)."""
    return extractor.forward(x)


def phi_backward(extractor, cache, d_out):
    """Backward through :func:`phi_forward`. Returns (d_x, param grads)."""
    return extractor.backward(cache, d_out)
