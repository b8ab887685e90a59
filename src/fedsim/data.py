"""Synthetic classification datasets, client partitioning, and text formats.

The synthetic generator draws class ``c`` from a unit-variance isotropic
Gaussian centered at ``separation * e_c`` (axis-aligned means scaled by the
separation), with class counts balanced to within one sample.  Partitioning is
either IID (random near-equal splits) or label-sharded: samples are grouped by
label, cut into single-label shards, and each client receives a fixed number
of shards, which caps the number of distinct labels a client can hold.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .seeds import SeedKey, derive, key_rng

__all__ = [
    "ClientSplit",
    "Dataset",
    "ShardPartition",
    "allocate_shards",
    "atomic_write",
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
    The arrays are read-only float64/int64.  The constructor stores copies of
    its caller's arrays; generate_synthetic and load_dataset hand over arrays
    they have just made, and those are kept, frozen, without a second copy.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        self._keep(np.array(self.features, dtype=np.float64), np.array(self.labels), self.n_classes)

    @classmethod
    def _adopt(cls, x: np.ndarray, y: np.ndarray, n_classes: int) -> Dataset:
        # A Dataset of arrays that data.py has just made and nothing else holds.
        d = object.__new__(cls)
        d._keep(x, y, n_classes)
        return d

    def _keep(self, x: np.ndarray, y: np.ndarray, n_classes: int) -> None:
        # Check x, y and n_classes, then hold x and y themselves, read-only.
        c = int(n_classes)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        rows = max(1, (1 << 20) // max(1, x[:1].nbytes))  # about 1 MiB of features at a time
        if not all(np.isfinite(x[i : i + rows]).all() for i in range(0, len(x), rows)):
            raise ValueError("features must be finite")
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {y.dtype}")
        y = y.astype(np.int64, copy=False)
        if y.shape != (x.shape[0],):
            raise ValueError(
                f"labels shape {y.shape} does not match {x.shape[0]} samples"
            )
        if c < 1:
            raise ValueError(f"n_classes must be >= 1, got {c}")
        if y.size and ((y < 0).any() or (y >= c).any()):
            raise ValueError(f"labels must lie in [0, {c})")
        # The first absent class is <= n_samples; a header may set n_classes far above.
        m = min(c, y.size + 1)
        counts = np.bincount(y[y < m], minlength=m)
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
    the parent dataset; the partitions build them so and skip the checks,
    while ``ClientSplit(...)`` checks a sorted read-only copy of its indices.
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

    @classmethod
    def _adopt(cls, client_id: int, indices: np.ndarray) -> ClientSplit:
        # Sorted, unique, non-negative int64 indices that data.py has just made.
        s = object.__new__(cls)
        object.__setattr__(s, "client_id", client_id)
        object.__setattr__(s, "indices", _readonly(indices))
        return s

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
    return Dataset._adopt(features, labels, n_classes)


def synthetic_train_test(
    n_samples: int,
    n_classes: int,
    feature_dim: int,
    separation: float,
    test_fraction: float,
    seed: SeedKey,
) -> tuple[Dataset, Dataset]:
    """Train and held-out test sets drawn from the same mixture.

    ``round(test_fraction * n_samples)`` samples go to the test set, and each
    set must hold every class; the two sets come from independent streams
    derived from the seed, so the test set is never partitioned to clients.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(test_fraction * n_samples))
    n_train = n_samples - n_test
    if min(n_train, n_test) < n_classes:
        raise ValueError(f"{n_samples} samples leave train={n_train}, test={n_test}; "
                         f"both must be >= n_classes ({n_classes})")
    train = generate_synthetic(
        n_train, n_classes, feature_dim, separation, derive(seed, 0)
    )
    test = generate_synthetic(
        n_test, n_classes, feature_dim, separation, derive(seed, 1)
    )
    return train, test


def _split_sizes(n: int, k: int) -> list[int]:
    # np.array_split's part sizes: the first n % k parts hold one more.
    return [n // k + (i < n % k) for i in range(k)]


def _sorted_runs(a: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    # The runs of a permutation ``a`` of range(len(a)), each sorted, as views of
    # one read-only array: run j is raised by j * len(a), so one sort orders all.
    offset = np.repeat(np.arange(len(sizes)) * len(a), sizes)
    key = _readonly(np.sort(a + offset) - offset)
    cuts = [0, *itertools.accumulate(sizes)]
    return [key[lo:hi] for lo, hi in itertools.pairwise(cuts)]


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
    chunks = _sorted_runs(perm, _split_sizes(d.n_samples, n_clients))
    return [ClientSplit._adopt(i, idx) for i, idx in enumerate(chunks)]


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
    classes = [rng.permutation(np.flatnonzero(d.labels == c)) for c in range(d.n_classes)]
    sizes = [m for n, k in zip(counts.tolist(), alloc.tolist()) for m in _split_sizes(n, k)]
    shard_indices = _sorted_runs(np.concatenate(classes), sizes)
    assignment = rng.permutation(total).reshape(n_clients, shards_per_client).tolist()
    dealt = np.concatenate([shard_indices[s] for row in assignment for s in row])
    splits = _sorted_runs(dealt, [sum(sizes[s] for s in row) for row in assignment])
    return ShardPartition(
        splits=tuple(ClientSplit._adopt(i, idx) for i, idx in enumerate(splits)),
        shard_labels=tuple(np.repeat(np.arange(d.n_classes), alloc).tolist()),
        shard_indices=tuple(shard_indices),
        assignment=tuple(map(tuple, assignment)),
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


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Yield a UTF-8, LF-line-end text handle whose contents replace ``path``.

    The handle writes a temporary file beside ``path``, renamed over it when
    the block completes; if the block raises, ``path`` keeps what it held.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        f = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# Rows per formatted write: large enough that the per-block Python overhead
# vanishes, small enough that a block's text stays a few megabytes.
_ROWS_PER_BLOCK = 4096


def _write_rows(d: Dataset, rows: range, f: TextIO) -> None:
    """Write the lines of samples ``rows`` of ``d`` to ``f``, one block at a time."""
    row = "%d" + ",%.17g" * d.feature_dim + "\n"
    for i in range(rows.start, rows.stop, _ROWS_PER_BLOCK):
        j = min(i + _ROWS_PER_BLOCK, rows.stop)
        # Labels lie below n_classes, far under 2**53, so the float64
        # column holds them exactly and %d prints them as integers.
        block = np.column_stack((d.labels[i:j], d.features[i:j]))
        f.write(row * len(block) % tuple(block.ravel().tolist()))


def _usable_cpus() -> int:
    """CPUs in the process's affinity; 1 where forked workers cannot run."""
    fork = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if fork else 1


def _start_process(target, stack: contextlib.ExitStack):
    """A forked process running ``target()``, or None if none can start.

    It exits with its failure's errno, or 255, printing nothing; ``stack`` kills and joins it.
    """
    import multiprocessing  # here: a run that forks nothing does not load it (0.7 MB)

    def run() -> None:
        try:
            target()
        except BaseException as exc:
            os._exit(getattr(exc, "errno", None) or 255)

    proc = multiprocessing.get_context("fork").Process(target=run)
    try:
        with warnings.catch_warnings():  # 3.12+ warns once the child exists: not an error
            warnings.filterwarnings("ignore", "This process .* multi-threaded", DeprecationWarning)
            proc.start()
    except (OSError, AssertionError):  # a process limit, or a daemonic parent
        return None
    stack.callback(proc.join)
    stack.callback(proc.kill)  # runs first, so a process left running is stopped
    return proc


def _fork_range(work, r, stack: contextlib.ExitStack, **part):
    """``(process, part)``: a _start_process running ``work(r, part)``.

    The part is an unnamed ``tempfile.TemporaryFile(**part)``, which ``stack``
    closes.  If no process can start, ``work`` runs here and the process is None.
    """
    f = stack.enter_context(tempfile.TemporaryFile(**part))
    proc = _start_process(lambda: (work(r, f), f.flush()), stack)
    if proc is None:
        work(r, f)
    return proc, f


def save_dataset(d: Dataset, path: str) -> None:
    """Write ``feature_dim,n_classes`` then one ``label,f1,f2,...`` line per sample.

    Floats carry format_float's digits.  The file is written through
    atomic_write, so ``path`` never holds a partial dataset.  Forked writers
    format one row range per usable CPU; the bytes do not depend on how many.
    """
    n, target = d.n_samples, os.fspath(path)
    k = min(_usable_cpus(), -(-n // _ROWS_PER_BLOCK))
    ranges = [range(n * i // k, n * (i + 1) // k) for i in range(k)]
    with atomic_write(path) as f, contextlib.ExitStack() as stack:
        writers = [_fork_range(lambda r, part: _write_rows(d, r, part), rows, stack, mode="w+",
                               encoding="utf-8", newline="\n",
                               dir=os.path.dirname(os.path.abspath(target)))
                   for rows in ranges[1:]]
        f.write(f"{d.feature_dim},{d.n_classes}\n")
        _write_rows(d, ranges[0], f)
        for proc, part in writers:
            if proc is not None:
                proc.join()
                if code := proc.exitcode:  # the writer's errno; 255 or a signal carries none
                    why = os.strerror(code) if 0 < code < 255 else f"row writer exit status {code}"
                    raise OSError(code, why, target)
            part.seek(0)
            shutil.copyfileobj(part, f)


def _row(feature_dim: int) -> np.dtype:
    return np.dtype([("y", np.int64), ("x", np.float64, (feature_dim,))])


def _parse_rows(lines, feature_dim: int) -> np.ndarray:
    """Parse ``label,f1,...`` lines into a table with fields ``y`` and ``x``."""
    row = _row(feature_dim)
    lines = iter(lines)
    first = next((line for line in lines if line != "\n"), None)
    if first is None:  # only empty lines: no rows, and no loadtxt warning
        return np.empty(0, row)
    return np.loadtxt(itertools.chain([first], lines), dtype=row, delimiter=",",
                      comments=None, ndmin=1)


def _raise_at_first_bad_line(path: str, numbered_lines, feature_dim: int) -> None:
    """Raise naming the first ``(lineno, line)`` that _parse_rows rejects."""
    width = feature_dim + 1
    for lineno, line in numbered_lines:
        if line == "\n":
            continue
        fields = line.count(",") + 1
        if fields != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {fields}")
        try:
            _parse_rows([line], feature_dim)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed number") from None


def _decode_error(exc: UnicodeDecodeError, f: TextIO) -> str:
    """The codec's message, with a seekable file's position counted from its start."""
    if not f.seekable():
        return str(exc)
    # The codec counts from the start of the bytes it was given: the last chunk
    # the text layer read, which ends where the buffer now stands.
    first = f.buffer.tell() - len(exc.object) + exc.start
    last = first + exc.end - exc.start - 1
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {first}" if first == last
             else f"bytes in position {first}-{last}")
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


# Body bytes per reader process: below this, a fork and reading its part back
# cost more than the parse it takes over.
_BYTES_PER_READER = 1 << 20


class _Span(io.RawIOBase):
    """Bytes ``[start, stop)`` of file ``fd``; pread moves no offset that processes share."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = os.preadv(self.fd, [memoryview(b)[: self.stop - self.pos]], self.pos)
        self.pos += n
        return n


def _line_end(fd: int, pos: int, stop: int) -> int:
    """The offset just past the first ``b"\\n"`` at or after ``pos``, or ``stop``."""
    while pos < stop and (chunk := os.pread(fd, 1 << 16, pos)):
        if (i := chunk.find(b"\n")) >= 0:
            return pos + i + 1
        pos += len(chunk)
    return stop


def _parse_in_ranges(f: TextIO, feature_dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The features and labels after ``f``'s header, one byte range per usable CPU.

    Ranges are cut after a ``b"\\n"``.  Each range's rows go to an unnamed part,
    the parent's own range too, and are then copied into the two arrays.  None
    leaves the rows to one pass, which names any error: for a file that is not
    regular, a small body, one CPU, or a range or part that fails.
    """
    fd = f.fileno()
    size = os.fstat(fd).st_size if f.seekable() else 0  # a pipe is read in one pass
    body = _line_end(fd, 0, size)
    k = min(_usable_cpus(), (size - body) // _BYTES_PER_READER)
    if k < 2:
        return None
    cuts = [0, *(_line_end(fd, body + (size - body) * i // k - 1, size) for i in range(1, k)), size]

    def parse(span, part) -> None:
        lines = io.TextIOWrapper(_Span(fd, *span), encoding="utf-8")
        if span[0] == 0:
            lines.readline()  # the header, checked already
        part.write(_parse_rows(lines, feature_dim))

    try:
        with contextlib.ExitStack() as stack:
            readers = [_fork_range(parse, span, stack) for span in zip(cuts[1:], cuts[2:])]
            parts = [stack.enter_context(tempfile.TemporaryFile())]
            parse(cuts[:2], parts[0])
            for proc, part in readers:
                if proc is not None:
                    proc.join()
                    if proc.exitcode:  # a bad line or byte, or the reader failed
                        return None
                parts.append(part)
            row = _row(feature_dim)
            buf = np.empty(max(1, (1 << 20) // row.itemsize), row)  # about 1 MiB of rows
            n = sum(part.seek(0, os.SEEK_END) for part in parts) // row.itemsize
            x, y, lo = np.empty((n, feature_dim)), np.empty(n, np.int64), 0
            for part in parts:
                part.seek(0)
                while m := part.readinto(buf.view(np.uint8)) // row.itemsize:
                    x[lo : lo + m], y[lo : lo + m] = buf["x"][:m], buf["y"][:m]
                    lo += m
            return x, y
    except (OSError, ValueError):  # a bad number or byte, or a scratch part that failed
        return None


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by save_dataset.

    After the header, empty lines are skipped and every other line holds an
    integer label and ``feature_dim`` floats, comma-separated.  An error names
    the first line that breaks this.  A regular file is parsed one byte range
    per usable CPU; the arrays and the errors do not depend on how many.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
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
            first = next((item for item in enumerate(f, start=2) if item[1] != "\n"), None)
            if first is None:
                raise ValueError(f"{path}: no samples")
            # A first row as wide as the header says bounds feature_dim by the
            # file size before the row dtype is sized from it.
            _raise_at_first_bad_line(path, [first], feature_dim)
            arrays = _parse_in_ranges(f, feature_dim)
            try:
                if arrays is None:
                    table = _parse_rows(itertools.chain([first[1]], f), feature_dim)
                    arrays = table["x"].copy(), table["y"].copy()
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                # Rescan for the line number; a pipe cannot be reread.
                if f.seekable():
                    f.seek(0)
                    f.readline()
                    _raise_at_first_bad_line(path, enumerate(f, start=2), feature_dim)
                raise ValueError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {_decode_error(exc, f)}") from None
    try:
        return Dataset._adopt(*arrays, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_partition(splits: list[ClientSplit], path: str) -> None:
    """Write one ``client_id:index,index,...`` line per client."""
    with atomic_write(path) as f:
        for s in splits:
            f.write(f"{s.client_id}:" + ",".join(str(i) for i in s.indices) + "\n")


def save_label_distribution(
    d: Dataset, splits: list[ClientSplit], path: str
) -> None:
    """Write a CSV of per-client label counts: client_id,class_0,...,class_k."""
    with atomic_write(path) as f:
        names = ",".join(f"class_{c}" for c in range(d.n_classes))
        f.write(f"client_id,{names}\n")
        for s in splits:
            counts = label_distribution(d, s)
            f.write(f"{s.client_id}," + ",".join(str(int(v)) for v in counts) + "\n")
