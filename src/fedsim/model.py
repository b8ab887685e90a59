"""Linear softmax classifier: parameters and the one loss/gradient kernel.

Everything is float64.  Parameters are immutable once constructed and every
function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _readonly

__all__ = ["ParamVector", "loss_grad", "params_equal"]


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


def loss_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    with_loss: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Mean cross-entropy of labels ``y`` on rows ``x``, and its gradient.

    Shapes are ``weights (..., C, d)``, ``bias (..., C)``, ``x (..., n, d)``
    and integer ``y (..., n)``; returns ``(loss (...), grad_w, grad_b)``, with
    the loss None unless ``with_loss``.  One max-subtracted softmax pass, the
    loss taken in log space.  Leading axes stack independent problems; each
    slice goes through matmuls and reductions of the same shape as it would
    alone, so its results are bit-identical to an unstacked call.  Inputs are
    not checked: callers pass labels in ``[0, C)`` and matching ``d``.
    """
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
