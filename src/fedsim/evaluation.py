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

    Ties go to the lowest class index (argmax convention).
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
    logits = test.features @ params.weights.T
    logits += params.bias
    preds = logits.argmax(axis=1)
    return float((preds == test.labels).mean())


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
