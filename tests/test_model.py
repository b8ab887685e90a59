"""Parameter containers and the loss/gradient kernel against scalar oracles."""

import math

import numpy as np
import pytest

from fedsim.model import ParamVector, loss_grad
from oracles import (
    fd_gradient,
    kernel,
    max_abs_diff,
    max_rel_err,
    rand_batch,
    rand_params,
    reference_loss_grad,
    scalar_cross_entropy,
)


def test_param_vector_stores_readonly_float64_copies():
    w = np.ones((2, 3), dtype=np.float32)
    b = np.zeros(2, dtype=np.float32)
    p = ParamVector(w, b)
    assert p.weights.dtype == np.float64
    assert p.bias.dtype == np.float64
    w[0, 0] = 99.0
    assert p.weights[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.weights[0, 0] = 5.0
    with pytest.raises(ValueError):
        p.bias[0] = 5.0


def test_param_vector_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError, match="2-D"):
        ParamVector(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="bias shape"):
        ParamVector(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        ParamVector(np.array([[np.inf, 0.0]]), np.zeros(1))
    with pytest.raises(ValueError, match="finite"):
        ParamVector(np.zeros((1, 2)), np.array([np.nan]))


def test_param_vector_zeros_and_sizes():
    p = ParamVector.zeros(3, 5)
    assert p.n_classes == 3
    assert p.feature_dim == 5
    assert not p.weights.any() and not p.bias.any()
    with pytest.raises(ValueError):
        ParamVector.zeros(0, 5)


def test_softmax_known_two_class_values():
    # Logits (log 2, 0) give probabilities (2/3, 1/3).
    p = ParamVector(np.zeros((2, 3)), [math.log(2.0), 0.0])
    loss, grad = kernel(p, np.ones((1, 3)), np.array([0]))
    assert loss == pytest.approx(math.log(1.5), abs=1e-15)
    assert grad.bias == pytest.approx([-1.0 / 3.0, 1.0 / 3.0], abs=1e-15)


def test_softmax_handles_large_logits():
    # Logits 1000 apart overflow a naive exp; the max-subtracted pass does not.
    p = ParamVector([[1000.0], [0.0]], [0.0, 0.0])
    x = np.ones((1, 1))
    with np.errstate(over="raise", invalid="raise"):
        right, right_grad = kernel(p, x, np.array([0]))
        wrong, wrong_grad = kernel(p, x, np.array([1]))
    assert right == pytest.approx(0.0, abs=1e-12)
    assert max(np.abs(right_grad.weights).max(), np.abs(right_grad.bias).max()) < 1e-12
    assert wrong == pytest.approx(1000.0, rel=1e-12)
    assert wrong_grad.bias == pytest.approx([1.0, -1.0], abs=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    # Probabilities sum to one, so the bias gradient, the batch mean of
    # p - onehot(y), sums to zero.  Adding a constant to every logit changes
    # neither the loss nor the gradient.
    rng = np.random.default_rng(9)
    p = ParamVector(rng.normal(size=(4, 3)) * 10, rng.normal(size=4) * 10)
    x, y = rand_batch(rng, 6, 4, 3)
    loss, grad = kernel(p, x, y)
    assert grad.bias.sum() == pytest.approx(0.0, abs=1e-12)
    shifted_loss, shifted_grad = kernel(ParamVector(p.weights, p.bias + 123.456), x, y)
    assert shifted_loss == pytest.approx(loss, abs=1e-12)
    assert max_abs_diff(grad, shifted_grad) < 1e-12


def test_zero_params_loss_is_log_n_classes():
    # Uniform predictions: every sample contributes exactly log(n_classes).
    p = ParamVector.zeros(4, 6)
    one = np.random.default_rng(1).normal(size=(1, 6))
    assert kernel(p, one, np.array([2]))[0] == math.log(4.0)
    four = np.random.default_rng(2).normal(size=(4, 6))
    assert kernel(p, four, np.array([0, 1, 2, 3]))[0] == math.log(4.0)


def test_cross_entropy_matches_scalar_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_classes = int(rng.integers(2, 5))
        dim = int(rng.integers(n_classes, 8))
        n = int(rng.integers(1, 9))
        p = rand_params(rng, n_classes, dim)
        x, y = rand_batch(rng, n, n_classes, dim)
        got = kernel(p, x, y)[0]
        assert got >= 0.0
        assert got == pytest.approx(scalar_cross_entropy(p, x, y), rel=1e-12, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n_classes = int(rng.integers(2, 5))
        dim = int(rng.integers(n_classes, 8))
        p = rand_params(rng, n_classes, dim)
        x, y = rand_batch(rng, int(rng.integers(1, 12)), n_classes, dim)
        assert max_rel_err(kernel(p, x, y)[1], fd_gradient(p, x, y)) < 1e-5


def test_gradient_uses_batch_mean():
    # Duplicating every sample must leave the mean loss and gradient unchanged.
    rng = np.random.default_rng(5)
    p = rand_params(rng, 3, 4)
    x, y = rand_batch(rng, 6, 3, 4)
    loss, grad = kernel(p, x, y)
    loss2, grad2 = kernel(p, np.vstack([x, x]), np.concatenate([y, y]))
    assert max_abs_diff(grad, grad2) < 1e-12
    assert loss == pytest.approx(loss2, rel=1e-12)


def test_loss_and_grad_consistent_with_parts():
    # Training skips the loss outside its last epoch; the gradient must not
    # depend on whether the loss is taken.
    rng = np.random.default_rng(6)
    p = rand_params(rng, 3, 5)
    x, y = rand_batch(rng, 7, 3, 5)
    _, gw, gb = loss_grad(p.weights, p.bias, x, y)
    no_loss, gw_only, gb_only = loss_grad(p.weights, p.bias, x, y, with_loss=False)
    assert no_loss is None
    assert np.array_equal(gw, gw_only) and np.array_equal(gb, gb_only)


@pytest.mark.parametrize("n_classes", range(1, 13))
def test_kernel_matches_the_reduction_reference_bit_for_bit(n_classes):
    # From 2 classes on the kernel folds the class-axis max column by column.
    # It folds the sum the same way below 8 classes and reduces it from 8 on;
    # either way every bit must match the reference.
    # Logits span a wide range, so a sum taken in another order would differ.
    rng = np.random.default_rng(100 + n_classes)
    d = 5
    for lead in [(), (1,), (3,), (2, 3)]:
        for n in (1, 7, 16):
            w = rng.normal(size=(*lead, n_classes, d)) * rng.choice([0.1, 3.0, 30.0])
            b = rng.normal(size=(*lead, n_classes)) * 10
            x = rng.normal(size=(*lead, n, d))
            y = rng.integers(0, n_classes, size=(*lead, n))
            for with_loss in (True, False):
                got = loss_grad(w, b, x, y, with_loss)
                want = reference_loss_grad(w, b, x, y, with_loss)
                assert (got[0] is None) == (want[0] is None) == (not with_loss)
                for g, r in zip(got, want):
                    if r is not None:
                        assert g.shape == r.shape
                        assert np.array_equal(g, r), (lead, n, with_loss)
                        assert np.array_equal(np.signbit(g), np.signbit(r))
    # One dominant logit among ones whose exponentials are near 1e-16: summed
    # in order they vanish, summed pairwise from 8 classes on they do not.
    w, b = np.zeros((n_classes, d)), np.r_[0.0, np.full(n_classes - 1, -36.8)]
    x, y = rng.normal(size=(4, d)), np.zeros(4, dtype=np.int64)
    for g, r in zip(loss_grad(w, b, x, y), reference_loss_grad(w, b, x, y)):
        assert np.array_equal(g, r)
