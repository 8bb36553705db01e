"""Numeric primitives checked against independent scalar reference routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recseq.errors import NumericError
from recseq.tensor_ops import (
    apply_dropout,
    as_f64,
    dropout_mask,
    finite_diff_grad,
    log_softmax,
    sigmoid,
    softmax,
)


def test_sigmoid_saturation():
    # independent scalar route: math.exp
    assert abs(float(sigmoid(np.array(20.0))) - 1.0 / (1.0 + math.exp(-20.0))) < 1e-15
    assert abs(float(sigmoid(np.array(20.0))) - 1.0) <= 1e-8
    assert float(sigmoid(np.array(-20.0))) <= 1e-8
    assert float(sigmoid(np.array(0.0))) == 0.5


def masked_sigmoid(x):
    """The two-branch formula evaluated through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_masked_two_branch_formula():
    grid = np.concatenate([
        np.linspace(-800.0, 800.0, 200_000),
        [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, np.nan],
    ])
    with np.errstate(over="ignore"):
        assert np.array_equal(sigmoid(grid), masked_sigmoid(grid), equal_nan=True)
    assert np.signbit(sigmoid(np.array([-0.0, 0.0]))).tolist() == [False, False]


def test_sigmoid_extreme_inputs_finite():
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4])
    y = sigmoid(x)
    assert np.all(np.isfinite(y))
    assert np.all((y >= 0.0) & (y <= 1.0))


@given(st.floats(min_value=-30, max_value=30))
def test_tanh_sigmoid_identity(x):
    # tanh(x) = 2 sigmoid(2x) - 1
    lhs = float(np.tanh(x))
    rhs = 2.0 * float(sigmoid(np.array(2.0 * x))) - 1.0
    assert abs(lhs - rhs) < 1e-12


def test_softmax_log_integers():
    z = np.log(np.array([1.0, 2.0, 3.0]))
    got = softmax(z)
    assert np.max(np.abs(got - np.array([1 / 6, 2 / 6, 3 / 6]))) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(7)
    assert np.allclose(softmax(z), softmax(z + 123.456), atol=1e-12)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_softmax_is_distribution(values):
    p = softmax(np.array(values))
    assert abs(float(np.sum(p)) - 1.0) < 1e-12
    assert np.all(p >= 0.0)


def test_softmax_handles_large_logits():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all()
    assert abs(float(p[0]) - 1.0) < 1e-12


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(9) * 5
    assert np.allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(np.array([]))


def test_finite_diff_sigmoid_derivative_at_zero():
    # sigma'(0) = sigma(0)(1 - sigma(0)) = 0.25 by hand
    grad = finite_diff_grad(lambda v: float(sigmoid(v)[0]), np.array([0.0]))
    assert abs(grad[0] - 0.25) < 1e-6


def test_finite_diff_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    grad = finite_diff_grad(lambda v: float(np.sum(v * v)), x)
    assert np.allclose(grad, 2 * x, atol=1e-6)


def test_finite_diff_rejects_nonfinite_probe():
    def f(v):
        return float("nan")

    with pytest.raises(NumericError):
        finite_diff_grad(f, np.array([0.0]))


def test_dropout_mask_values():
    rng = np.random.default_rng(4)
    p = 0.25
    mask = dropout_mask((200,), p, rng)
    keep = 1.0 / (1.0 - p)
    assert set(np.unique(mask)) <= {0.0, keep}


def test_dropout_mask_monte_carlo_mean():
    rng = np.random.default_rng(5)
    x = np.full(100_000, 3.0)
    mask = dropout_mask(x.shape, 0.5, rng)
    dropped = apply_dropout(x, 0.5, mask)
    # inverted scaling keeps the expectation; 2% slack for 1e5 draws
    assert abs(float(np.mean(dropped)) - 3.0) < 0.02 * 3.0


def test_dropout_p_zero_identity():
    x = np.arange(6.0)
    assert np.array_equal(apply_dropout(x, 0.0, None), x)


def test_dropout_mask_rejects_bad_p():
    rng = np.random.default_rng(6)
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            dropout_mask((4,), p, rng)


def test_as_f64_casts_and_copies_semantics():
    x = np.array([1, 2, 3], dtype=np.int32)
    y = as_f64(x)
    assert y.dtype == np.float64
    z = np.array([1.0, 2.0])
    assert as_f64(z).dtype == np.float64
