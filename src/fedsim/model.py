"""Linear softmax classifier: parameters and the one loss/gradient kernel.

Everything is float64.  Parameters are immutable once constructed and every
function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import _readonly

__all__ = ["ParamVector", "loss_grad"]


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


def _fold(op, a: np.ndarray) -> np.ndarray:
    # ``op`` over the last axis of ``a`` (2+ columns), one column at a time from the first.
    acc = op(a[..., 0], a[..., 1])
    for c in range(2, a.shape[-1]):
        op(acc, a[..., c], out=acc)
    return acc


@lru_cache(maxsize=256)  # steps repeat shapes; read-only, so no caller can change one
def _label_base(shape: tuple[int, ...], n_classes: int) -> np.ndarray:
    # The flat index of class 0 in each row of logits (*shape, n_classes).
    return _readonly(np.arange(0, math.prod(shape) * n_classes, n_classes).reshape(shape))


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

    From 2 to 7 classes the class-axis max and sum go one column at a time,
    which skips a reduction's per-row cost.  numpy's add-reduce sums fewer
    than 8 items in order, so the column sum keeps its bits; from 8 classes
    on it sums pairwise, and both stay whole-axis reductions.  Sums call
    ``np.add.reduce``, skipping ``ndarray.sum``'s Python-level wrapper.
    """
    z = x @ weights.swapaxes(-1, -2)
    z += bias[..., None, :]
    n_classes, n = z.shape[-1], x.shape[-2]
    fold = 2 <= n_classes < 8
    z -= (_fold(np.maximum, z) if fold else z.max(axis=-1))[..., None]
    ez = np.exp(z)
    denom = _fold(np.add, ez) if fold else np.add.reduce(ez, axis=-1)
    at = _label_base(y.shape, n_classes) + y  # each label's flat index, shaped as y
    loss = None
    if with_loss:
        loss = -np.add.reduce(z.reshape(-1)[at] - np.log(denom), axis=-1) / n
    ez /= denom[..., None]  # the softmax, then minus the one-hot labels
    ez.reshape(-1)[at] -= 1.0
    gw = ez.swapaxes(-1, -2) @ x
    gw /= n
    gb = np.add.reduce(ez, axis=-2)
    gb /= n
    return loss, gw, gb
