"""Client-side local optimization.

Mini-batch SGD on the mean cross-entropy, optionally anchored to the global
parameters by a proximal term (mu/2) * ||w - w_g||^2 whose squared norm runs
over weights and bias alike.  The anchor is the round's incoming global
parameter vector, held fixed across the client's local steps.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .data import ClientSplit, Dataset
from .model import ParamVector, loss_grad
from .seeds import finish_states, local_words

__all__ = ["DivergenceError", "train_cohort"]


class DivergenceError(ValueError):
    """Local SGD overflowed, hit an invalid value, or left no float headroom."""


def _check_cohort(w_g: ParamVector, data: Dataset, splits: Sequence[ClientSplit]) -> None:
    if not splits:
        raise ValueError("splits must be non-empty")
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


@lru_cache(maxsize=256)  # rounds repeat sizes; tuples, so no caller can change a plan
def _step_groups(
    sizes: tuple[int, ...], batch_size: int
) -> tuple[tuple[tuple[int, int, int], ...], ...]:
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
        plan.append(tuple(groups))
    return tuple(plan)


_shuffler = threading.local()  # a generator per thread: seeding a new one costs ~14 us


def train_cohort(
    w_g: ParamVector, data: Dataset, splits: Sequence[ClientSplit], cfg: ExperimentConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``cfg.local_epochs`` epochs of mini-batch SGD for each client, in lockstep.

    ``cfg``, checked when it was built, gives the training fields.
    Client i starts from a copy of ``w_g``.  Each epoch reshuffles its split's
    indices with the stream a run of ``cfg`` gives client ``splits[i].client_id``
    in that epoch of round 0, then walks batches of ``cfg.batch_size`` in order,
    keeping the final partial batch.
    Gradients are means over the batch; under fedprox the gradient adds
    ``cfg.mu * (w - w_g)``.  The reported loss is the mean per-batch objective
    of the final epoch, measured before each step.  Returns the cohort as one
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
    _check_cohort(w_g, data, splits)
    ids = [split.client_id for split in splits]
    return _train_cohort(w_g, data, splits, cfg,
                         finish_states(local_words(cfg.seed, [0], [ids], cfg.local_epochs)))


def _train_cohort(
    w_g: ParamVector, data: Dataset, splits: Sequence[ClientSplit],
    cfg: ExperimentConfig, states: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # train_cohort, given the PCG64 (state, inc) of each client's stream in
    # each epoch: states[e * m + i] shuffles splits[i] in epoch e.  The caller
    # has checked the cohort with _check_cohort.
    # Largest clients first, so that each step's groups are slices.
    rank = sorted(range(len(splits)), key=lambda i: -splits[i].n_samples)
    sizes = tuple(splits[i].n_samples for i in rank)
    plan = _step_groups(sizes, cfg.batch_size)
    use_prox = cfg.method == "fedprox" and cfg.mu != 0.0
    lr, bs, m = cfg.learning_rate, cfg.batch_size, len(splits)
    w = np.repeat(w_g.weights[None], m, axis=0)
    b = np.repeat(w_g.bias[None], m, axis=0)
    orders = np.zeros((m, sizes[0]), dtype=np.int64)
    losses = np.empty((m, len(plan)))
    # Shuffling in place draws what key_rng(...).permutation would.  Each
    # stream sets the reused generator's whole state, so no call sees another's.
    streams = [{"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                "has_uint32": 0, "uinteger": 0} for s, inc in states]
    gen = getattr(_shuffler, "gen", None)
    if gen is None:
        gen = _shuffler.gen = np.random.Generator(np.random.PCG64(0))
    epoch = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(cfg.local_epochs):
                for j, i in enumerate(rank):
                    gen.bit_generator.state = streams[epoch * m + i]
                    row = orders[j, : sizes[j]]
                    row[:] = splits[i].indices
                    gen.shuffle(row)
                labels = data.labels.take(orders)  # the epoch's labels; features go per step
                record = epoch == cfg.local_epochs - 1
                for step, groups in enumerate(plan):
                    start = step * bs
                    for lo, hi, length in groups:
                        idx = orders[lo:hi, start : start + length]
                        wg, bg = w[lo:hi], b[lo:hi]
                        loss, gw, gb = loss_grad(wg, bg, data.features.take(idx, axis=0),
                                                 labels[lo:hi, start : start + length], record)
                        if use_prox:
                            dw = wg - w_g.weights
                            db = bg - w_g.bias
                            gw += cfg.mu * dw
                            gb += cfg.mu * db
                            if record:
                                loss += 0.5 * cfg.mu * (
                                    np.add.reduce((dw * dw).reshape(hi - lo, -1), axis=1)
                                    + np.add.reduce(db * db, axis=1)
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
                np.add.reduce((dw * dw).reshape(m, -1), axis=1) + np.add.reduce(db * db, axis=1)
    except FloatingPointError:
        if m > 1:  # name the first client that diverges alone, on its own streams
            for i, split in enumerate(splits):
                _train_cohort(w_g, data, [split], cfg, states[i::m])
        raise DivergenceError(
            f"client {splits[0].client_id}, epoch {epoch}: local training diverged"
        ) from None
    means, lo = [], 0  # one row sum per run of clients with equal step counts
    for steps, run in groupby(-(-n // bs) for n in sizes):
        hi = lo + len(list(run))
        means.append(np.add.reduce(losses[lo:hi, :steps], axis=1) / steps)
        lo = hi
    back = np.argsort(rank)  # ranked rows back to the order of splits
    return w[back], b[back], np.concatenate(means)[back]
