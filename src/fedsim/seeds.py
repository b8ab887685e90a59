"""Derivation of independent RNG streams from a single experiment seed.

Every random decision in an experiment (data synthesis, partitioning, client
selection, per-epoch shuffles) draws from its own stream, keyed by
``(root_seed, stream_tag, *counters)``.  Streams with distinct keys are
statistically independent, and a stream's output never depends on which other
streams were consumed before it, so a client's shuffles are the same whether
it trains alone or in a cohort.
"""

from __future__ import annotations

import numpy as np

# Stream tags, one per kind of random decision.
DATA_STREAM = 0
PARTITION_STREAM = 1
SELECTION_STREAM = 2
LOCAL_STREAM = 3

SeedKey = int | tuple[int, ...]


def as_key(seed: SeedKey) -> tuple[int, ...]:
    """Normalize an int or tuple seed into a tuple of plain ints."""
    if isinstance(seed, tuple):
        return tuple(int(v) for v in seed)
    return (int(seed),)


def derive(seed: SeedKey, *path: int) -> tuple[int, ...]:
    """Extend a seed key with further counters (round, client, epoch, ...)."""
    return as_key(seed) + tuple(int(p) for p in path)


def key_rng(seed: SeedKey) -> np.random.Generator:
    """Generator for the given key; equal keys yield identical streams."""
    return np.random.default_rng(np.random.SeedSequence(list(as_key(seed))))
