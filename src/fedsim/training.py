"""Client-side local optimization.

Mini-batch SGD on the mean cross-entropy, optionally anchored to the global
parameters by a proximal term (mu/2) * ||w - w_g||^2 whose squared norm runs
over weights and bias alike.  The anchor is the round's incoming global
parameter vector, held fixed across the client's local steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .data import ClientSplit, Dataset
from .model import ParamVector, loss_grad
from .seeds import SeedKey, derive, key_rng

__all__ = [
    "OBJECTIVES",
    "DivergenceError",
    "HyperParams",
    "train_cohort",
]

OBJECTIVES = ("fedavg", "fedprox")


@dataclass(frozen=True)
class HyperParams:
    """Local-training knobs shared by every client in a run.

    ``mu`` only takes effect when ``objective == "fedprox"``; under "fedavg"
    the proximal term is identically zero no matter what mu holds.  A zero
    learning rate is accepted so no-op limit checks can run; configs reject it.
    """

    learning_rate: float = 0.01
    batch_size: int = 64
    local_epochs: int = 2
    mu: float = 0.2
    objective: str = "fedavg"

    def __post_init__(self) -> None:
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(
                f"learning_rate must be >= 0 and finite, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if not np.isfinite(self.mu) or self.mu < 0:
            raise ValueError(f"mu must be >= 0 and finite, got {self.mu}")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )


class DivergenceError(ValueError):
    """Local SGD overflowed, hit an invalid value, or left no float headroom."""


def _check_cohort(
    w_g: ParamVector,
    data: Dataset,
    splits: Sequence[ClientSplit],
    seeds: Sequence[SeedKey],
) -> None:
    if not splits:
        raise ValueError("splits must be non-empty")
    if len(seeds) != len(splits):
        raise ValueError(f"got {len(seeds)} seeds for {len(splits)} clients")
    for split in splits:
        if int(split.indices[-1]) >= data.n_samples:
            raise ValueError(
                f"client {split.client_id}: index {int(split.indices[-1])} out of "
                f"range for {data.n_samples} samples"
            )
    if data.feature_dim != w_g.feature_dim:
        raise ValueError(
            f"dataset feature_dim {data.feature_dim} does not match "
            f"parameters ({w_g.feature_dim})"
        )
    if data.n_classes > w_g.n_classes:
        raise ValueError(
            f"dataset has {data.n_classes} classes but parameters cover "
            f"{w_g.n_classes}"
        )


def _step_groups(
    sizes: Sequence[int], batch_size: int
) -> list[list[tuple[int, int, int]]]:
    # sizes descend, so at each step the clients with a batch left form a
    # prefix, and those whose batches have equal length a contiguous run in it.
    plan = []
    for start in range(0, sizes[0], batch_size):
        lengths = [min(n - start, batch_size) for n in sizes if n > start]
        groups, lo = [], 0
        for length, run in groupby(lengths):
            hi = lo + len(list(run))
            groups.append((lo, hi, length))
            lo = hi
        plan.append(groups)
    return plan


def train_cohort(
    w_g: ParamVector,
    data: Dataset,
    splits: Sequence[ClientSplit],
    h: HyperParams,
    seeds: Sequence[SeedKey],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``h.local_epochs`` epochs of mini-batch SGD for each client, in lockstep.

    Client i starts from a copy of ``w_g``.  Each epoch reshuffles its split's
    indices with its own stream, ``derive(seeds[i], epoch)``, then walks
    batches of ``h.batch_size`` in order, keeping the final partial batch.
    Gradients are means over the batch; the fedprox gradient adds
    ``mu * (w - w_g)``.  The reported loss is the mean per-batch objective of
    the final epoch, measured before each step.  Returns the cohort as one
    stack, ``(weights (m, C, d), bias (m, C), losses (m,))``, whose row i is
    the client of ``splits[i]``.  Pure function of its arguments: identical
    inputs give bit-identical rows.

    At each step, the clients whose batches have the same length go through
    the kernel as one stack, so each client's matmuls and reductions keep the
    shapes they have when it trains alone: a client's row is bit-identical
    whichever clients share its cohort.  An overflow or invalid value, or a
    squared update norm ``||w_i - w_g||^2`` that overflows at the end of an
    epoch, raises DivergenceError naming the first client, in the given
    order, whose training diverges on its own.
    """
    _check_cohort(w_g, data, splits, seeds)
    # Largest clients first, so that each step's groups are slices.
    rank = sorted(range(len(splits)), key=lambda i: -splits[i].n_samples)
    sizes = [splits[i].n_samples for i in rank]
    plan = _step_groups(sizes, h.batch_size)
    use_prox = h.objective == "fedprox" and h.mu != 0.0
    lr, bs = h.learning_rate, h.batch_size
    w = np.repeat(w_g.weights[None], len(rank), axis=0)
    b = np.repeat(w_g.bias[None], len(rank), axis=0)
    orders = np.zeros((len(rank), sizes[0]), dtype=np.int64)
    losses = np.empty((len(rank), len(plan)))
    epoch = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(h.local_epochs):
                for j, i in enumerate(rank):
                    orders[j, : sizes[j]] = key_rng(derive(seeds[i], epoch)).permutation(
                        splits[i].indices
                    )
                record = epoch == h.local_epochs - 1
                for step, groups in enumerate(plan):
                    start = step * bs
                    for lo, hi, length in groups:
                        idx = orders[lo:hi, start : start + length]
                        wg, bg = w[lo:hi], b[lo:hi]
                        loss, gw, gb = loss_grad(
                            wg, bg, data.features[idx], data.labels[idx], record
                        )
                        if use_prox:
                            dw = wg - w_g.weights
                            db = bg - w_g.bias
                            gw += h.mu * dw
                            gb += h.mu * db
                            if record:
                                loss += 0.5 * h.mu * (
                                    (dw * dw).reshape(hi - lo, -1).sum(axis=1)
                                    + (db * db).sum(axis=1)
                                )
                        if record:
                            losses[lo:hi, step] = loss
                        wg -= lr * gw
                        bg -= lr * gb
                # A saturated softmax can give zero loss and no overflow while
                # the weights run off toward the float limit.  Each client's
                # squared update norm is computed only for the overflow it
                # raises then.
                dw, db = w - w_g.weights, b - w_g.bias
                (dw * dw).reshape(len(rank), -1).sum(axis=1) + (db * db).sum(axis=1)
    except FloatingPointError:
        if len(splits) > 1:  # name the first client that diverges alone
            for split, seed in zip(splits, seeds):
                train_cohort(w_g, data, [split], h, [seed])
        raise DivergenceError(
            f"client {splits[0].client_id}, epoch {epoch}: local training diverged"
        ) from None
    steps = [-(-n // bs) for n in sizes]
    mean_losses = np.array([losses[j, :k].sum() for j, k in enumerate(steps)]) / steps
    back = np.argsort(rank)  # ranked rows back to the order of splits
    return w[back], b[back], mean_losses[back]
