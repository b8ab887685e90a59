"""Model evaluation, pooled-data training, and multi-seed statistics."""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .data import ClientSplit, Dataset
from .model import ParamVector
from .training import train_cohort

__all__ = [
    "accuracy",
    "centralized_train",
    "summarize_accuracies",
]


def accuracy(params: ParamVector, test: Dataset) -> float:
    """Fraction of samples whose highest logit matches the label.

    Ties go to the lowest class index, and a NaN logit beats any number
    (``argmax``'s rules).  The logits are taken class-major, ``(C, n)``, so
    the bias and the max over classes run along contiguous rows.  A sample
    counts when its label's logit is the one logit equal to its column's max;
    only the columns where two classes share the max, or the max is NaN
    (which no logit equals), go to ``argmax``.
    """
    if test.feature_dim != params.feature_dim:
        raise ValueError(
            f"dataset feature_dim {test.feature_dim} does not match "
            f"parameters ({params.feature_dim})"
        )
    if test.n_classes != params.n_classes:
        raise ValueError(
            f"dataset has {test.n_classes} classes but parameters cover "
            f"{params.n_classes}"
        )
    z = params.weights @ test.features.T
    z += params.bias[:, None]
    n = test.n_samples
    at_max = z == np.maximum.reduce(z, axis=0)
    hit = at_max.reshape(-1).take(test.labels * n + np.arange(n))
    # Counted in the narrowest type that holds n_classes, as a wider one costs more.
    counts = np.add.reduce(at_max, axis=0, dtype=np.min_scalar_type(params.n_classes))
    odd = np.flatnonzero(counts != 1)
    hit[odd] = z[:, odd].argmax(axis=0) == test.labels[odd]
    return int(np.count_nonzero(hit)) / n


def centralized_train(train: Dataset, cfg: ExperimentConfig, epochs: int) -> ParamVector:
    """Plain pooled SGD from zero-initialized parameters, no proximal term.

    Trains at ``cfg``'s learning rate and batch size on the seed streams of
    client 0 in round 0 of a run of ``cfg``, so a one-client, full-participation,
    one-round federation with ``local_epochs = epochs`` reproduces it exactly.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    params = ParamVector.zeros(train.n_classes, train.feature_dim)
    if epochs == 0:
        return params
    pooled = ClientSplit(0, np.arange(train.n_samples))
    weights, bias, _ = train_cohort(params, train, [pooled],
                                    replace(cfg, local_epochs=epochs, method="fedavg"))
    return ParamVector(weights[0], bias[0])


def summarize_accuracies(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof = 1; 0.0 for a single value)."""
    if not values:
        raise ValueError("values must be non-empty")
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std
