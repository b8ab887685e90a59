"""Derivation of independent RNG streams from a single experiment seed.

Every random decision in an experiment (data synthesis, partitioning, client
selection, per-epoch shuffles) draws from its own stream, keyed by
``(root_seed, stream_tag, *counters)``.  Streams with distinct keys are
statistically independent, and a stream's output never depends on which other
streams were consumed before it, so a client's shuffles are the same whether
it trains alone or in a cohort.

A stream is ``default_rng(SeedSequence(key))``.  ``mix_words`` ports
SeedSequence's mixing (O'Neill's seed_seq_fe) to one array pass over many keys,
and ``finish_states`` turns each key's words into PCG64's ``(state, inc)``; a
test pins that ``pcg64_states``, the two composed, gives key_rng's state, so a
numpy whose SeedSequence changed would fail it rather than change outputs.
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


def mix_counters(prefix: SeedKey, counters: np.ndarray) -> np.ndarray:
    """``mix_words`` for the keys ``prefix + tuple(counters[:, j])``, one per
    column of the integer array ``counters (k, m)``, each entry in [0, 2**32)."""
    head = np.array(_words(as_key(prefix)), np.uint32)[:, None].repeat(counters.shape[1], axis=1)
    return mix_words(np.vstack([head, counters.astype(np.uint32)]))


def pcg64_states(keys: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``key_rng(key).bit_generator`` for each key, in one pass."""
    values = [v for key in keys for v in key]
    if min(values, default=0) < 0:
        raise ValueError("expected non-negative integer")
    # In the usual case, every value one word, the keys are their own words.
    words = keys if max(values, default=0) <= _MASK32 else list(map(_words, keys))
    mixed = np.empty((4, len(words)), np.uint64)
    for n in set(map(len, words)):
        where = [p for p, w in enumerate(words) if len(w) == n]
        flat = [v for p in where for v in words[p]]  # numpy reads a flat list faster
        mixed[:, where] = mix_words(np.array(flat, dtype=np.uint32).reshape(len(where), n).T)
    return finish_states(mixed)
