"""Derivation of independent RNG streams from a single experiment seed.

Every random decision in an experiment (data synthesis, partitioning, client
selection, per-epoch shuffles) draws from its own stream, keyed by
``(root_seed, stream_tag, *counters)``.  Streams with distinct keys are
statistically independent, and a stream's output never depends on which other
streams were consumed before it, so a client's shuffles are the same whether
it trains alone or in a cohort.

A stream is ``default_rng(SeedSequence(key))``.  ``mix_words`` ports
SeedSequence's mixing (O'Neill's seed_seq_fe) to one array pass over many keys,
and ``finish_states`` turns each key's words into PCG64's ``(state, inc)``.
``local_words`` alone keys local training's streams; a test pins their states
to key_rng's, so a changed numpy SeedSequence fails it, not the outputs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# Stream tags, one per kind of random decision.
DATA_STREAM = 0
PARTITION_STREAM = 1
SELECTION_STREAM = 2
LOCAL_STREAM = 3

SeedKey = int | tuple[int, ...]

# numpy's SeedSequence constants (a pool of 4 uint32 words); PCG64's multiplier.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_OTHERS = np.array([[d for d in range(4) if d != s] for s in range(4)])


def as_key(seed: SeedKey) -> tuple[int, ...]:
    """Normalize an int or tuple seed into a tuple of plain ints."""
    if isinstance(seed, tuple):
        return tuple(map(int, seed))
    return (int(seed),)


def derive(seed: SeedKey, *path: int) -> tuple[int, ...]:
    """Extend a seed key with further counters (round, client, epoch, ...)."""
    return as_key(seed) + tuple(map(int, path))


def key_rng(seed: SeedKey) -> np.random.Generator:
    """Generator for the given key; equal keys yield identical streams."""
    return np.random.default_rng(np.random.SeedSequence(list(as_key(seed))))


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    # init * mult**k mod 2**32 for k <= n, a column: call k xors row k, multiplies by row k+1.
    # Built once per (init, mult, n), so it is shared and read-only.
    consts = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n + 1)],
                      dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = MIX_MULT_L * x - MIX_MULT_R * y
    return r ^ (r >> 16)


def _words(key: tuple[int, ...]) -> list[int]:
    # Each value as its little-endian uint32 words, 0 as [0], like SeedSequence.
    return [(v >> s) & _MASK32 for v in key for s in range(0, max(v.bit_length(), 1), 32)]


def mix_words(words: np.ndarray) -> np.ndarray:
    """(n, m) uint32 entropy words of m keys -> (4, m) uint64, each column the
    words of that key's ``generate_state(4, uint64)``."""
    # Arrays only: uint32 arrays wrap silently.
    n, m = words.shape
    h = _hash_consts(INIT_A, MULT_A, 16 + 4 * max(n - 4, 0))
    pool = _hashmix(np.vstack([words[:4], np.zeros((max(4 - n, 0), m), np.uint32)]), h[:5])
    for src, dst in enumerate(_OTHERS):  # pool[src] is fixed while it mixes into dst
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[4 + 3 * src : 8 + 3 * src]))
    for src in range(4, n):  # then each extra word into all 4
        pool = _mix(pool, _hashmix(words[src], h[4 * src : 4 * src + 5]))
    out = _hashmix(pool[[0, 1, 2, 3] * 2], _hash_consts(INIT_B, MULT_B, 8)).astype(np.uint64)
    return out[0::2] | (out[1::2] << np.uint64(32))


def finish_states(mixed: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's ``(state, inc)`` for each column of ``mix_words``' output."""
    return [(((((s0 << 64) | s1) + inc) * PCG64_MULT + inc) & _MASK128, inc)
            for s0, s1, q0, q1 in mixed.T.tolist()
            for inc in [((((q0 << 64) | q1) << 1) | 1) & _MASK128]]


def local_words(seed: SeedKey, rounds: Sequence[int], chosen: Sequence[Sequence[int]],
                epochs: int) -> np.ndarray:
    """``mix_words`` for the training streams of ``rounds``; round ``rounds[k]``
    trains the m clients ``chosen[k]``.  Column ``(k * epochs + e) * m + i`` is
    keyed ``(seed, LOCAL_STREAM, rounds[k], chosen[k][i], e)``.  A round or
    client id past 32 bits raises OverflowError."""
    counters = np.broadcast_arrays(np.array(rounds, np.uint32)[:, None, None],
                                   np.array(chosen, np.uint32)[:, None, :],
                                   np.arange(epochs, dtype=np.uint32)[:, None])
    flat = np.stack(counters).reshape(3, -1)
    head = np.array(_words(derive(seed, LOCAL_STREAM)), np.uint32)[:, None]
    return mix_words(np.vstack([head.repeat(flat.shape[1], axis=1), flat]))
