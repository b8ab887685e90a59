"""Linear softmax classifier: parameters, losses, analytic gradients.

Everything is float64.  Values are immutable once constructed and every
function is pure, so parameters and batches can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Batch",
    "ParamVector",
    "axpy_combine",
    "cross_entropy_loss",
    "forward_logits",
    "grad_cross_entropy",
    "loss_and_grad",
    "params_equal",
    "softmax",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Weights (n_classes x feature_dim) and per-class bias of a softmax head.

    Arrays are stored as read-only float64 copies; all entries must be finite.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        b = np.array(self.bias, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValueError(
                f"bias shape {b.shape} does not match {w.shape[0]} classes"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "bias", _readonly(b))

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def n_coords(self) -> int:
        """Total number of scalar parameters, bias included."""
        return self.weights.size + self.bias.size

    @classmethod
    def zeros(cls, n_classes: int, feature_dim: int) -> "ParamVector":
        if n_classes < 1 or feature_dim < 1:
            raise ValueError("n_classes and feature_dim must be >= 1")
        return cls(np.zeros((n_classes, feature_dim)), np.zeros(n_classes))


def params_equal(a: ParamVector, b: ParamVector) -> bool:
    """Exact equality of shapes and entries."""
    return (
        a.weights.shape == b.weights.shape
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.bias, b.bias)
    )


@dataclass(frozen=True, eq=False)
class Batch:
    """A non-empty mini-batch of feature rows and integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if x.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {y.dtype}")
        y = y.astype(np.int64)
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"labels shape {y.shape} does not match {x.shape[0]} samples"
            )
        if (y < 0).any():
            raise ValueError("labels must be non-negative class indices")
        object.__setattr__(self, "features", _readonly(x))
        object.__setattr__(self, "labels", _readonly(y))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def forward_logits(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Affine scores ``W x + b``; accepts one feature vector or a matrix of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.feature_dim:
        raise ValueError(
            f"feature length {x.shape[-1]} does not match "
            f"feature_dim {params.feature_dim}"
        )
    return x @ params.weights.T + params.bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, computed with max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("logits must be non-empty")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_compat(params: ParamVector, batch: Batch) -> None:
    if batch.features.shape[1] != params.feature_dim:
        raise ValueError(
            f"batch feature length {batch.features.shape[1]} does not match "
            f"feature_dim {params.feature_dim}"
        )
    top = int(batch.labels.max())
    if top >= params.n_classes:
        raise ValueError(f"label {top} out of range for {params.n_classes} classes")


def _loss_grad_arrays(
    weights: np.ndarray,
    bias: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    with_loss: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    # The one loss/gradient kernel: one max-subtracted softmax pass, loss taken
    # in log space.  Leading axes stack independent problems; each slice goes
    # through matmuls and reductions of the same shape as it would alone, so
    # its results are bit-identical to an unstacked call.
    z = x @ weights.swapaxes(-1, -2) + bias[..., None, :]
    z -= z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=-1, keepdims=True)
    n = x.shape[-2]
    rows = np.arange(y.size)
    labels = y.reshape(-1)
    loss = None
    if with_loss:
        picked = z.reshape(-1, z.shape[-1])[rows, labels].reshape(y.shape)
        loss = -(picked - np.log(denom[..., 0])).sum(axis=-1) / n
    probs = ez / denom
    probs.reshape(-1, probs.shape[-1])[rows, labels] -= 1.0
    gw = probs.swapaxes(-1, -2) @ x / n
    gb = probs.sum(axis=-2) / n
    return loss, gw, gb


def cross_entropy_loss(params: ParamVector, batch: Batch) -> float:
    """Mean negative log-probability of the true labels; always >= 0."""
    _check_compat(params, batch)
    loss, _, _ = _loss_grad_arrays(
        params.weights, params.bias, batch.features, batch.labels
    )
    return float(loss)


def grad_cross_entropy(params: ParamVector, batch: Batch) -> ParamVector:
    """Gradient of cross_entropy_loss w.r.t. params, packed as a ParamVector."""
    _check_compat(params, batch)
    _, gw, gb = _loss_grad_arrays(
        params.weights, params.bias, batch.features, batch.labels
    )
    return ParamVector(gw, gb)


def loss_and_grad(params: ParamVector, batch: Batch) -> tuple[float, ParamVector]:
    """Loss and gradient from a single forward pass."""
    _check_compat(params, batch)
    loss, gw, gb = _loss_grad_arrays(
        params.weights, params.bias, batch.features, batch.labels
    )
    return float(loss), ParamVector(gw, gb)


def axpy_combine(
    coeffs: Sequence[float], params: Sequence[ParamVector]
) -> ParamVector:
    """Linear combination ``sum(coeffs[i] * params[i])``, accumulated left to right."""
    if len(params) == 0:
        raise ValueError("params must be non-empty")
    if len(coeffs) != len(params):
        raise ValueError(
            f"got {len(coeffs)} coefficients for {len(params)} parameter sets"
        )
    first = params[0]
    for p in params[1:]:
        if p.weights.shape != first.weights.shape:
            raise ValueError(
                f"parameter shapes differ: {p.weights.shape} vs {first.weights.shape}"
            )
    w = float(coeffs[0]) * first.weights
    b = float(coeffs[0]) * first.bias
    for c, p in zip(coeffs[1:], params[1:]):
        w += float(c) * p.weights
        b += float(c) * p.bias
    return ParamVector(w, b)
