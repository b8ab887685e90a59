"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes its target quantity with plain Python loops over
scalars (or finite differences of the loss), never through the package's
vectorized paths, so agreement between the two is meaningful evidence.
The exceptions are ``reference_loss_grad``, a frozen copy of the kernel
written with ndarray reductions, which the kernel must match bit for bit, and
``reference_accuracy``, the row-major argmax that evaluation.accuracy replaced,
and ``reference_partition_iid`` and ``reference_partition_shards_detailed``,
the partitions as first written, one checked ClientSplit per client.
"""

from __future__ import annotations

import math

import numpy as np

from fedsim.data import ClientSplit, ShardPartition, allocate_shards
from fedsim.model import ParamVector, loss_grad
from fedsim.seeds import key_rng


def rand_params(rng: np.random.Generator, n_classes: int, feature_dim: int) -> ParamVector:
    return ParamVector(
        rng.normal(size=(n_classes, feature_dim)),
        rng.normal(size=n_classes),
    )


def rand_batch(
    rng: np.random.Generator, n_samples: int, n_classes: int, feature_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and integer labels of a random mini-batch."""
    return (
        rng.normal(size=(n_samples, feature_dim)),
        rng.integers(0, n_classes, size=n_samples),
    )


def stack_params(*params: ParamVector) -> tuple[np.ndarray, np.ndarray]:
    """Client parameters as the (weights, bias) row stacks aggregate takes."""
    return np.stack([p.weights for p in params]), np.stack([p.bias for p in params])


def same_params(a: ParamVector, b: ParamVector) -> bool:
    """Exact equality of weights and bias, shapes included."""
    return np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def kernel(params: ParamVector, x: np.ndarray, y: np.ndarray) -> tuple[float, ParamVector]:
    """The code under test, not an oracle: model.loss_grad's loss and gradient."""
    loss, gw, gb = loss_grad(params.weights, params.bias, x, y)
    return float(loss), ParamVector(gw, gb)


def reference_loss_grad(weights, bias, x, y, with_loss=True):
    """model.loss_grad as first written: class-axis max and sum as ndarray
    reductions, labels picked by fancy indexing."""
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


def reference_accuracy(params: ParamVector, test) -> float:
    """evaluation.accuracy as first written: row-major logits, argmax per row."""
    logits = test.features @ params.weights.T
    logits += params.bias
    return float((logits.argmax(axis=1) == test.labels).mean())


def reference_partition_iid(d, n_clients: int, seed) -> list[ClientSplit]:
    """data.partition_iid as first written: np.array_split, then the public constructor."""
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


def reference_partition_shards_detailed(
    d, n_clients: int, shards_per_client: int, seed
) -> ShardPartition:
    """data.partition_shards_detailed as first written: np.array_split per class,
    one public ClientSplit per client, and the assignment converted entry by entry."""
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
    for s in shard_indices:
        s.setflags(write=False)
    return ShardPartition(
        splits=splits,
        shard_labels=tuple(shard_labels),
        shard_indices=tuple(shard_indices),
        assignment=tuple(tuple(int(s) for s in row) for row in assignment),
    )


def scalar_logits(params: ParamVector, x_row: np.ndarray) -> list[float]:
    """Affine scores of one sample, one multiply-add at a time."""
    return [
        sum(float(params.weights[c, j]) * float(x_row[j]) for j in range(params.feature_dim))
        + float(params.bias[c])
        for c in range(params.n_classes)
    ]


def scalar_cross_entropy(params: ParamVector, x: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood via per-sample log-sum-exp in pure Python."""
    total = 0.0
    for i in range(len(y)):
        z = scalar_logits(params, x[i])
        m = max(z)
        lse = m + math.log(sum(math.exp(v - m) for v in z))
        total += lse - z[int(y[i])]
    return total / len(y)


def fd_gradient(
    params: ParamVector, x: np.ndarray, y: np.ndarray, step: float = 1e-5
) -> ParamVector:
    """Central-difference gradient of the cross-entropy, coordinate by coordinate.

    The default step sits near the central-difference optimum (3*eps)**(1/3)
    for double precision; smaller steps let roundoff dominate the quotient on
    small-magnitude coordinates.
    """

    def loss_at(w: np.ndarray, b: np.ndarray) -> float:
        return kernel(ParamVector(w, b), x, y)[0]

    gw = np.zeros_like(params.weights)
    gb = np.zeros_like(params.bias)
    for c in range(params.n_classes):
        for j in range(params.feature_dim):
            wp = params.weights.copy()
            wm = params.weights.copy()
            wp[c, j] += step
            wm[c, j] -= step
            gw[c, j] = (loss_at(wp, params.bias) - loss_at(wm, params.bias)) / (2 * step)
        bp = params.bias.copy()
        bm = params.bias.copy()
        bp[c] += step
        bm[c] -= step
        gb[c] = (loss_at(params.weights, bp) - loss_at(params.weights, bm)) / (2 * step)
    return ParamVector(gw, gb)


def max_rel_err(analytic: ParamVector, numeric: ParamVector, floor: float = 1e-8) -> float:
    """Worst relative disagreement across coordinates, floored for near-zero entries."""
    diff = np.concatenate(
        [
            np.abs(analytic.weights - numeric.weights).ravel(),
            np.abs(analytic.bias - numeric.bias).ravel(),
        ]
    )
    scale = np.concatenate(
        [np.abs(analytic.weights).ravel(), np.abs(analytic.bias).ravel()]
    )
    return float((diff / np.maximum(scale, floor)).max())


def scalar_weighted_mean(weights, bias, n_samples, weighting: str) -> ParamVector:
    """Weighted mean of client rows: accumulate weight * value, divide by the total."""
    _, n_classes, feature_dim = weights.shape
    wts = [float(n) if weighting == "datasize" else 1.0 for n in n_samples]
    total = sum(wts)
    w = [[0.0] * feature_dim for _ in range(n_classes)]
    b = [0.0] * n_classes
    for wt, w_row, b_row in zip(wts, weights, bias):
        for c in range(n_classes):
            for j in range(feature_dim):
                w[c][j] += wt * float(w_row[c, j])
            b[c] += wt * float(b_row[c])
    for c in range(n_classes):
        for j in range(feature_dim):
            w[c][j] /= total
        b[c] /= total
    return ParamVector(np.array(w), np.array(b))


def left_to_right_mean(weights, bias, n_samples, weighting: str) -> ParamVector:
    """aggregate's sum, one scalar at a time: c_0 * x_0, then + c_i * x_i in row order.

    The coefficients are aggregate's own, n_i / sum(n) or 1/m, so every
    rounding happens at the same place and the result must match bit for bit.
    """
    m, n_classes, feature_dim = weights.shape
    total = sum(n_samples)
    coeffs = [n / total if weighting == "datasize" else 1.0 / m for n in n_samples]

    def column(values) -> float:
        acc = coeffs[0] * float(values[0])
        for c, v in zip(coeffs[1:], values[1:]):
            acc += c * float(v)
        return acc

    w = [[column(weights[:, c, j]) for j in range(feature_dim)] for c in range(n_classes)]
    return ParamVector(np.array(w), np.array([column(bias[:, c]) for c in range(n_classes)]))


def max_abs_diff(a: ParamVector, b: ParamVector) -> float:
    return float(
        max(
            np.abs(a.weights - b.weights).max(),
            np.abs(a.bias - b.bias).max(),
        )
    )


def dataset_text(dataset) -> str:
    """A dataset file's text, formatted one value at a time with format(v, ".17g")."""
    lines = [f"{dataset.feature_dim},{dataset.n_classes}\n"]
    for label, row in zip(dataset.labels, dataset.features):
        lines.append(f"{label}," + ",".join(format(float(v), ".17g") for v in row) + "\n")
    return "".join(lines)


def audit_shard_partition(dataset, part, n_clients: int, shards_per_client: int) -> None:
    """Assert the four structural invariants of a label-sharded partition."""
    assert len(part.splits) == n_clients
    seen = np.concatenate([s.indices for s in part.splits])
    assert seen.size == dataset.n_samples, "splits must be exhaustive"
    assert np.array_equal(np.sort(seen), np.arange(dataset.n_samples)), (
        "splits must be disjoint and cover every sample"
    )
    assert len(part.shard_labels) == n_clients * shards_per_client
    for lab, idx in zip(part.shard_labels, part.shard_indices):
        assert idx.size > 0
        labels_in_shard = {int(v) for v in dataset.labels[idx]}
        assert labels_in_shard == {int(lab)}, "each shard must carry a single label"
    dealt = sorted(s for row in part.assignment for s in row)
    assert dealt == list(range(n_clients * shards_per_client)), (
        "every shard must be dealt exactly once"
    )
    for split in part.splits:
        distinct = {int(v) for v in dataset.labels[split.indices]}
        assert len(distinct) <= shards_per_client, (
            f"client {split.client_id} holds {len(distinct)} labels, "
            f"cap is {shards_per_client}"
        )
