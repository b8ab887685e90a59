"""Synthetic classification datasets, client partitioning, and text formats.

The synthetic generator draws class ``c`` from a unit-variance isotropic
Gaussian centered at ``separation * e_c`` (axis-aligned means scaled by the
separation), with class counts balanced to within one sample.  Partitioning is
either IID (random near-equal splits) or label-sharded: samples are grouped by
label, cut into single-label shards, and each client receives a fixed number
of shards, which caps the number of distinct labels a client can hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeds import SeedKey, derive, key_rng

__all__ = [
    "ClientSplit",
    "Dataset",
    "ShardPartition",
    "allocate_shards",
    "format_float",
    "generate_synthetic",
    "label_distribution",
    "load_dataset",
    "partition_iid",
    "partition_shards",
    "partition_shards_detailed",
    "save_dataset",
    "save_label_distribution",
    "save_partition",
    "synthetic_train_test",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n_samples x feature_dim) with integer labels.

    Labels lie in ``[0, n_classes)`` and every class is present at least once.
    Arrays are stored as read-only float64/int64 copies.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        x = np.array(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        c = int(self.n_classes)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {y.dtype}")
        y = y.astype(np.int64)
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"labels shape {y.shape} does not match {x.shape[0]} samples"
            )
        if c < 1:
            raise ValueError(f"n_classes must be >= 1, got {c}")
        if y.size and ((y < 0).any() or (y >= c).any()):
            raise ValueError(f"labels must lie in [0, {c})")
        counts = np.bincount(y, minlength=c)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"class {missing} has no samples")
        object.__setattr__(self, "features", _readonly(x))
        object.__setattr__(self, "labels", _readonly(y))
        object.__setattr__(self, "n_classes", c)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class ClientSplit:
    """One client's view of a parent dataset: a non-empty index set.

    Indices are stored sorted and must be unique and non-negative.  Splits
    produced by one partition call are pairwise disjoint and together cover
    the parent dataset.
    """

    client_id: int
    indices: np.ndarray

    def __post_init__(self) -> None:
        cid = int(self.client_id)
        if cid < 0:
            raise ValueError(f"client_id must be >= 0, got {cid}")
        idx = np.asarray(self.indices)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        if idx.size < 1:
            raise ValueError(f"client {cid}: index set must be non-empty")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"client {cid}: indices must be integers")
        idx = np.sort(idx.astype(np.int64))
        if idx[0] < 0:
            raise ValueError(f"client {cid}: indices must be >= 0")
        if idx.size > 1 and (idx[1:] == idx[:-1]).any():
            raise ValueError(f"client {cid}: indices must be unique")
        object.__setattr__(self, "client_id", cid)
        object.__setattr__(self, "indices", _readonly(idx))

    @property
    def n_samples(self) -> int:
        return self.indices.size


def generate_synthetic(
    n_samples: int,
    n_classes: int,
    feature_dim: int,
    separation: float,
    seed: SeedKey,
) -> Dataset:
    """Draw a class-balanced Gaussian mixture dataset.

    Class ``c`` is sampled from N(separation * e_c, I) where ``e_c`` is the
    c-th standard basis vector, so ``feature_dim >= n_classes`` is required.
    Class counts are balanced to within one sample (classes below
    ``n_samples % n_classes`` receive the extra one) and sample order is
    shuffled.  Deterministic given the seed.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if n_samples < n_classes:
        raise ValueError(
            f"n_samples must be >= n_classes, got {n_samples} < {n_classes}"
        )
    if feature_dim < n_classes:
        raise ValueError(
            f"feature_dim must be >= n_classes, got {feature_dim} < {n_classes}"
        )
    if not separation > 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    rng = key_rng(seed)
    base, extra = divmod(n_samples, n_classes)
    counts = base + (np.arange(n_classes) < extra).astype(np.int64)
    labels = rng.permutation(np.repeat(np.arange(n_classes), counts))
    features = rng.standard_normal((n_samples, feature_dim))
    features[np.arange(n_samples), labels] += separation
    return Dataset(features, labels, n_classes)


def synthetic_train_test(
    n_samples: int,
    n_classes: int,
    feature_dim: int,
    separation: float,
    test_fraction: float,
    seed: SeedKey,
) -> tuple[Dataset, Dataset]:
    """Train and held-out test sets drawn from the same mixture.

    ``round(test_fraction * n_samples)`` samples go to the test set; the two
    sets come from independent streams derived from the seed, so the test set
    is never partitioned to clients.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(test_fraction * n_samples))
    n_train = n_samples - n_test
    train = generate_synthetic(
        n_train, n_classes, feature_dim, separation, derive(seed, 0)
    )
    test = generate_synthetic(
        n_test, n_classes, feature_dim, separation, derive(seed, 1)
    )
    return train, test


def partition_iid(d: Dataset, n_clients: int, seed: SeedKey) -> list[ClientSplit]:
    """Random near-equal split: sizes differ by at most one.

    A seeded permutation of all indices is cut into ``n_clients`` consecutive
    chunks; the first ``n_samples % n_clients`` clients get the extra sample.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if n_clients > d.n_samples:
        raise ValueError(
            f"cannot split {d.n_samples} samples across {n_clients} clients"
        )
    perm = key_rng(seed).permutation(d.n_samples)
    return [
        ClientSplit(i, chunk) for i, chunk in enumerate(np.array_split(perm, n_clients))
    ]


def allocate_shards(class_counts: np.ndarray, total_shards: int) -> np.ndarray:
    """Shard counts per class, proportional to class sample counts.

    Largest-remainder rounding (remainder ties go to the lower class index),
    then a repair pass that moves one shard at a time from the largest
    allocation so every class ends with at least one shard.  The result sums
    to ``total_shards`` exactly.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError("class_counts must be a non-empty 1-D array")
    if (counts < 1).any():
        empty = int(np.flatnonzero(counts < 1)[0])
        raise ValueError(f"class {empty} has no samples")
    if total_shards < counts.size:
        raise ValueError(
            f"need at least one shard per class: {total_shards} shards "
            f"for {counts.size} classes"
        )
    quotas = total_shards * counts / counts.sum()
    alloc = np.floor(quotas).astype(np.int64)
    remainders = quotas - alloc
    leftover = total_shards - int(alloc.sum())
    order = np.argsort(-remainders, kind="stable")
    alloc[order[:leftover]] += 1
    while (alloc == 0).any():
        alloc[int(np.argmax(alloc))] -= 1
        alloc[int(np.flatnonzero(alloc == 0)[0])] += 1
    return alloc


@dataclass(frozen=True, eq=False)
class ShardPartition:
    """A shard partition with its full decomposition, for inspection.

    ``shard_labels[s]`` is the single label of shard ``s``; ``shard_indices[s]``
    its sorted sample indices; ``assignment[i]`` the shard ids held by client
    ``i``; ``splits`` the resulting per-client index sets.
    """

    splits: tuple[ClientSplit, ...]
    shard_labels: tuple[int, ...]
    shard_indices: tuple[np.ndarray, ...]
    assignment: tuple[tuple[int, ...], ...]


def partition_shards_detailed(
    d: Dataset, n_clients: int, shards_per_client: int, seed: SeedKey
) -> ShardPartition:
    """Label-sharded partition, returning the shard decomposition as well.

    Samples are grouped by label; each class is cut into its allotted number
    of near-equal single-label shards after a seeded within-class shuffle
    (see allocate_shards for the allotment); the ``n_clients *
    shards_per_client`` shards are then dealt randomly, ``shards_per_client``
    to each client.  Each client therefore holds at most ``shards_per_client``
    distinct labels.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if shards_per_client < 1:
        raise ValueError(f"shards_per_client must be >= 1, got {shards_per_client}")
    total = n_clients * shards_per_client
    if total > d.n_samples:
        raise ValueError(
            f"{total} shards cannot be built from {d.n_samples} samples"
        )
    counts = np.bincount(d.labels, minlength=d.n_classes)
    alloc = allocate_shards(counts, total)
    for c in range(d.n_classes):
        if alloc[c] > counts[c]:
            raise ValueError(
                f"class {c}: {int(alloc[c])} shards but only "
                f"{int(counts[c])} samples"
            )
    rng = key_rng(seed)
    shard_indices: list[np.ndarray] = []
    shard_labels: list[int] = []
    for c in range(d.n_classes):
        class_idx = rng.permutation(np.flatnonzero(d.labels == c))
        for part in np.array_split(class_idx, alloc[c]):
            shard_indices.append(np.sort(part))
            shard_labels.append(c)
    assignment = rng.permutation(total).reshape(n_clients, shards_per_client)
    splits = tuple(
        ClientSplit(i, np.concatenate([shard_indices[s] for s in assignment[i]]))
        for i in range(n_clients)
    )
    return ShardPartition(
        splits=splits,
        shard_labels=tuple(shard_labels),
        shard_indices=tuple(_readonly(s) for s in shard_indices),
        assignment=tuple(tuple(int(s) for s in row) for row in assignment),
    )


def partition_shards(
    d: Dataset, n_clients: int, shards_per_client: int, seed: SeedKey
) -> list[ClientSplit]:
    """Label-sharded partition; see partition_shards_detailed."""
    return list(partition_shards_detailed(d, n_clients, shards_per_client, seed).splits)


def label_distribution(d: Dataset, split: ClientSplit) -> np.ndarray:
    """Per-class sample counts of the split, length ``d.n_classes``."""
    if split.indices[-1] >= d.n_samples:
        raise ValueError(
            f"client {split.client_id}: index {int(split.indices[-1])} out of "
            f"range for {d.n_samples} samples"
        )
    return np.bincount(d.labels[split.indices], minlength=d.n_classes)


def format_float(x: float) -> str:
    """17-significant-digit decimal, enough to round-trip a float64 exactly."""
    return format(float(x), ".17g")


def save_dataset(d: Dataset, path: str) -> None:
    """Write ``feature_dim,n_classes`` then one ``label,f1,f2,...`` line per sample."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{d.feature_dim},{d.n_classes}\n")
        for i in range(d.n_samples):
            row = ",".join(format_float(v) for v in d.features[i])
            f.write(f"{d.labels[i]},{row}\n")


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by save_dataset."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        parts = header.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: header must be 'feature_dim,n_classes'")
        try:
            feature_dim, n_classes = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: header must hold two integers") from None
        if feature_dim < 1:
            raise ValueError(f"{path}: header feature_dim must be >= 1, got {feature_dim}")
        labels: list[int] = []
        rows: list[list[float]] = []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != feature_dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {feature_dim + 1} fields, "
                    f"got {len(fields)}"
                )
            try:
                labels.append(int(fields[0]))
                rows.append([float(v) for v in fields[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number") from None
    if not rows:
        raise ValueError(f"{path}: no samples")
    try:
        return Dataset(np.array(rows), np.array(labels, dtype=np.int64), n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_partition(splits: list[ClientSplit], path: str) -> None:
    """Write one ``client_id:index,index,...`` line per client."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s in splits:
            f.write(f"{s.client_id}:" + ",".join(str(i) for i in s.indices) + "\n")


def save_label_distribution(
    d: Dataset, splits: list[ClientSplit], path: str
) -> None:
    """Write a CSV of per-client label counts: client_id,class_0,...,class_k."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        names = ",".join(f"class_{c}" for c in range(d.n_classes))
        f.write(f"client_id,{names}\n")
        for s in splits:
            counts = label_distribution(d, s)
            f.write(f"{s.client_id}," + ",".join(str(int(v)) for v in counts) + "\n")
