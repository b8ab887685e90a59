"""Output checks, computed apart from fedsim.

Each check reads what the program wrote (or returned) and compares it with a
value the benchmark computes itself, or with a property the method must
have.  None compares against a stored copy of an earlier output.  A failed
check raises CheckError naming the file or run and what differed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """The program's output is wrong."""


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def check_selection(rows, n_clients: int, fraction: float, rounds: int, where: str) -> None:
    """Each round selects floor(fraction*n + 0.5) distinct sorted ids in [0, n)."""
    if [int(r["round_index"]) for r in rows] != list(range(rounds)):
        raise CheckError(f"{where}: expected rounds 0..{rounds - 1}")
    m = math.floor(fraction * n_clients + 0.5)
    for r in rows:
        ids = [int(v) for v in r["selected_clients"].split(";")]
        if len(ids) != m:
            raise CheckError(f"{where} round {r['round_index']}: {len(ids)} clients, expected {m}")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise CheckError(f"{where} round {r['round_index']}: ids not distinct and sorted: {ids}")
        if ids[0] < 0 or ids[-1] >= n_clients:
            raise CheckError(f"{where} round {r['round_index']}: ids outside [0, {n_clients})")


def check_partition(splits, n_train: int, mode: str, where: str) -> None:
    """Client index sets are disjoint and cover the training set; iid sizes differ by <= 1."""
    merged = np.sort(np.concatenate([np.asarray(s.indices) for s in splits]))
    if not np.array_equal(merged, np.arange(n_train)):
        raise CheckError(f"{where}: client splits do not partition the {n_train} training samples")
    if mode == "iid":
        sizes = [len(s.indices) for s in splits]
        if max(sizes) - min(sizes) > 1:
            raise CheckError(f"{where}: iid split sizes range {min(sizes)}..{max(sizes)}")


def check_label_counts(rows, train_labels, splits, n_classes: int, max_labels: int, where: str) -> None:
    """labels.csv holds <= max_labels labels per client and equals our own bincount."""
    if len(rows) != len(splits):
        raise CheckError(f"{where}: {len(rows)} label rows for {len(splits)} clients")
    for row, split in zip(rows, splits):
        counts = [int(row[f"class_{c}"]) for c in range(n_classes)]
        held = sum(1 for v in counts if v > 0)
        if held > max_labels:
            raise CheckError(f"{where}: client {row['client_id']} holds {held} labels, at most {max_labels} allowed")
        own = np.bincount(np.asarray(train_labels)[np.asarray(split.indices)], minlength=n_classes)
        if int(row["client_id"]) != int(split.client_id) or counts != own.tolist():
            raise CheckError(f"{where}: client {row['client_id']} label counts {counts} != {own.tolist()}")


def argmax_accuracy(weights, bias, x, y) -> float:
    logits = np.asarray(x) @ np.asarray(weights).T + np.asarray(bias)
    return int((logits.argmax(axis=1) == np.asarray(y)).sum()) / len(y)


def check_accuracy(reported: float, weights, bias, x, y, where: str) -> None:
    """The reported accuracy counts the same correct samples as our argmax."""
    own = argmax_accuracy(weights, bias, x, y)
    if abs(float(reported) - own) * len(y) >= 0.5:
        raise CheckError(f"{where}: reported accuracy {reported!r}, recomputed {own!r}")


def method_key(method: str, mu) -> tuple:
    """(method, mu) for fedprox, (method, None) for fedavg, whose mu is unused."""
    return (method, float(mu)) if method == "fedprox" else (method, None)


def parse_method_token(token: str) -> tuple:
    name, _, arg = token.partition("(")
    return method_key(name, arg.rstrip(")")) if arg else (name, None)


def check_suite_table(rows, summaries, seeds, where: str) -> None:
    """table.csv has one row per (method, partition) whose mean and sample std
    equal those recomputed from the per-seed summary.json values."""
    cells: dict[tuple, dict[int, float]] = {}
    for s in summaries:
        c = s["config"]
        key = (method_key(c["method"], c["mu"]), c["partition"])
        cells.setdefault(key, {})[int(c["seed"])] = float(s["final_accuracy"])
    keys = [(parse_method_token(r["method"]), r["partition"]) for r in rows]
    if sorted(keys, key=repr) != sorted(cells, key=repr) or len(set(keys)) != len(keys):
        raise CheckError(f"{where}: table rows {keys} do not match the runs {sorted(cells, key=repr)}")
    for key, row in zip(keys, rows):
        accs = cells[key]
        if sorted(accs) != sorted(seeds):
            raise CheckError(f"{where}: {key} ran seeds {sorted(accs)}, expected {sorted(seeds)}")
        values = [accs[s] for s in sorted(accs)]
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        if abs(float(row["mean_accuracy"]) - mean) > 1e-12 or abs(float(row["std"]) - std) > 1e-12:
            raise CheckError(
                f"{where}: {row['method']} {row['partition']} mean/std "
                f"{row['mean_accuracy']}/{row['std']}, recomputed {mean!r}/{std!r}"
            )


def pooled_accuracy(train_x, train_y, test_x, test_y, n_classes: int, iters: int = 300) -> float:
    """Test accuracy of softmax regression fit by full-batch gradient descent
    on the pooled training data: the centralized reference for iid runs."""
    x, y = np.asarray(train_x), np.asarray(train_y)
    onehot = np.eye(n_classes)[y]
    w = np.zeros((n_classes, x.shape[1]))
    b = np.zeros(n_classes)
    for _ in range(iters):
        z = x @ w.T + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(y)
        w -= g.T @ x
        b -= g.sum(axis=0)
    return argmax_accuracy(w, b, test_x, test_y)


def check_tracks_pooled(rows, pooled: float, tol: float, where: str) -> None:
    """Every iid row's mean accuracy lies within ``tol`` of the pooled reference."""
    for r in rows:
        if r["partition"] == "iid" and abs(float(r["mean_accuracy"]) - pooled) > tol:
            raise CheckError(
                f"{where}: {r['method']} iid mean {float(r['mean_accuracy']):.4f} is more "
                f"than {tol} from the pooled reference {pooled:.4f}"
            )


def check_export(path: Path, features: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
    """The exported file, parsed by np.loadtxt, equals the arrays bit for bit."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
    if header != f"{features.shape[1]},{n_classes}":
        raise CheckError(f"{path.name}: header {header!r}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (features.shape[0], features.shape[1] + 1):
        raise CheckError(f"{path.name}: shape {table.shape}")
    if not np.array_equal(table[:, 0], labels):
        raise CheckError(f"{path.name}: labels differ from the generated ones")
    got = np.ascontiguousarray(table[:, 1:])
    if not np.array_equal(got.view(np.uint64), np.ascontiguousarray(features).view(np.uint64)):
        bad = np.argwhere(got != features)
        raise CheckError(f"{path.name}: features differ from the generated ones, first at {bad[:1].tolist()}")
