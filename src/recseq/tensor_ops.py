"""Elementwise and linear-algebra primitives on float64 numpy arrays.

All tensors in this package are plain ``numpy.ndarray`` values with dtype
float64 and C (row-major) layout. Dense products are delegated to numpy;
the functions here add the shape checking, numerical stabilization and
small conventions the rest of the package relies on. :class:`NamedParams`
is the base of every parameter container.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

__all__ = [
    "as_f64",
    "NamedParams",
    "matmul",
    "sigmoid",
    "tanh_act",
    "softmax",
    "log_softmax",
    "finite_diff_grad",
    "uniform_fan_in",
    "dropout_mask",
    "apply_dropout",
]


def as_f64(values) -> np.ndarray:
    """Coerce to a float64 array without copying when already one."""
    return np.asarray(values, dtype=np.float64)


class NamedParams:
    """Base of parameter containers.

    ``PARAMS`` names the container's arrays once, in the order they take in
    a model's parameter vector, and :meth:`blocks` reads them by those names.
    """

    PARAMS: tuple = ()

    def blocks(self):
        """Named parameter arrays, in ``PARAMS`` order."""
        return [(name, getattr(self, name)) for name in self.PARAMS]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D arrays.

    Raises ValueError naming both shapes when the inner dimensions do not
    agree, so callers can surface wiring mistakes directly.
    """
    a = as_f64(a)
    b = as_f64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), stable for large |x|."""
    x = as_f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def tanh_act(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent activation."""
    return np.tanh(as_f64(x))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability.

    Raises ValueError on an empty input; a distribution over zero outcomes
    is meaningless.
    """
    z = as_f64(z)
    if z.size == 0:
        raise ValueError("softmax of an empty input")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log of softmax over the last axis, computed without underflow."""
    z = as_f64(z)
    if z.size == 0:
        raise ValueError("log_softmax of an empty input")
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``x``.

    Evaluates (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps) for every
    coordinate. ``x`` is never mutated from the caller's point of view.
    Raises NumericError if any probe produces a non-finite value.
    """
    x = as_f64(x).copy()
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite value in finite differences at index {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def uniform_fan_in(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Weights drawn uniformly from [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 with probability p, else 1/(1-p).

    Multiplying by the mask keeps the expectation of the input unchanged,
    so no rescaling is needed at evaluation time.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = (rng.random(shape) >= p).astype(np.float64)
    return keep / (1.0 - p)


def apply_dropout(x: np.ndarray, p: float, mask: np.ndarray) -> np.ndarray:
    """Apply a mask produced by :func:`dropout_mask`. p=0 is the identity."""
    x = as_f64(x)
    if p == 0.0:
        return x
    return x * mask
