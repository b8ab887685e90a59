"""Synthetic data generation, partitioning, and the text file formats."""

import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import (
    ClientSplit,
    Dataset,
    allocate_shards,
    format_float,
    generate_synthetic,
    label_distribution,
    load_dataset,
    partition_iid,
    partition_shards,
    partition_shards_detailed,
    save_dataset,
    save_label_distribution,
    save_partition,
    synthetic_train_test,
)
from oracles import (audit_shard_partition, dataset_text, reference_partition_iid,
                     reference_partition_shards_detailed)


def test_dataset_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.zeros(3), np.array([0, 1, 0]), 2)
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)
    with pytest.raises(ValueError, match="integers"):
        Dataset(x, np.array([0.0, 1.0, 0.0]), 2)
    with pytest.raises(ValueError, match="does not match"):
        Dataset(x, np.array([0, 1]), 2)
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        Dataset(x, np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError, match="class 1 has no samples"):
        Dataset(x, np.array([0, 0, 0]), 2)


@pytest.mark.parametrize("row", [0, -1], ids=["first-block", "last-block"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_feature_in_any_row_block_is_rejected(row, value):
    # The check runs about 1 MiB of rows at a time: 2,048 rows of 64 floats.
    x = np.zeros((2 * 2048 + 5, 64))
    x[row, 7] = value
    with pytest.raises(ValueError, match="^features must be finite$"):
        Dataset(x, np.zeros(len(x), dtype=np.int64), 1)


def test_a_class_count_above_the_sample_count_is_rejected_without_allocating():
    # An array sized by n_classes here would need 8 PB.
    with pytest.raises(ValueError, match="^class 2 has no samples$"):
        Dataset(np.zeros((2, 1)), np.array([0, 1]), 10**15)
    with pytest.raises(ValueError, match="^class 1 has no samples$"):
        Dataset(np.zeros((2, 1)), np.array([0, 10**15 - 1]), 10**15)


def test_dataset_arrays_are_readonly_copies():
    x = np.zeros((2, 2))
    d = Dataset(x, np.array([0, 1]), 2)
    x[0, 0] = 7.0
    assert d.features[0, 0] == 0.0
    with pytest.raises(ValueError):
        d.features[0, 0] = 1.0
    assert d.n_samples == 2
    assert d.feature_dim == 2


def test_client_split_sorts_and_validates():
    s = ClientSplit(3, np.array([5, 1, 9]))
    assert s.client_id == 3
    assert np.array_equal(s.indices, [1, 5, 9])
    assert s.n_samples == 3
    with pytest.raises(ValueError, match="client_id"):
        ClientSplit(-1, np.array([0]))
    with pytest.raises(ValueError, match="non-empty"):
        ClientSplit(0, np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="unique"):
        ClientSplit(0, np.array([1, 1]))
    with pytest.raises(ValueError, match=">= 0"):
        ClientSplit(0, np.array([-1, 2]))
    with pytest.raises(ValueError, match="integers"):
        ClientSplit(0, np.array([0.5]))


def test_synthetic_balanced_counts():
    d = generate_synthetic(101, 4, 8, 2.0, 0)
    counts = np.bincount(d.labels, minlength=4)
    # 101 = 4 * 25 + 1; the class below the remainder gets the extra sample.
    assert counts.tolist() == [26, 25, 25, 25]
    d2 = generate_synthetic(100, 4, 8, 2.0, 0)
    assert np.bincount(d2.labels, minlength=4).tolist() == [25, 25, 25, 25]


def test_synthetic_deterministic_and_seed_sensitive():
    a = generate_synthetic(60, 3, 5, 2.0, 7)
    b = generate_synthetic(60, 3, 5, 2.0, 7)
    c = generate_synthetic(60, 3, 5, 2.0, 8)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_class_means_land_on_scaled_basis_vectors():
    d = generate_synthetic(4000, 4, 8, 6.0, 3)
    for c in range(4):
        mean = d.features[d.labels == c].mean(axis=0)
        want = np.zeros(8)
        want[c] = 6.0
        # Sample mean of ~1000 unit-variance draws: 5 sigma is ~0.16.
        assert np.abs(mean - want).max() < 0.25


def test_synthetic_validation():
    with pytest.raises(ValueError, match="n_classes"):
        generate_synthetic(10, 1, 4, 2.0, 0)
    with pytest.raises(ValueError, match="n_samples"):
        generate_synthetic(2, 3, 4, 2.0, 0)
    with pytest.raises(ValueError, match="feature_dim"):
        generate_synthetic(10, 3, 2, 2.0, 0)
    with pytest.raises(ValueError, match="separation"):
        generate_synthetic(10, 3, 4, 0.0, 0)


def test_train_test_sizes_and_independence():
    train, test = synthetic_train_test(5000, 4, 16, 6.0, 0.2, 0)
    assert train.n_samples == 4000
    assert test.n_samples == 1000
    assert train.feature_dim == test.feature_dim == 16
    again, _ = synthetic_train_test(5000, 4, 16, 6.0, 0.2, 0)
    assert np.array_equal(train.features, again.features)
    # Disjoint streams: the test set is not a prefix or copy of the train set.
    assert not np.array_equal(train.features[:1000], test.features)
    with pytest.raises(ValueError, match="test_fraction"):
        synthetic_train_test(100, 2, 4, 2.0, 0.0, 0)
    with pytest.raises(ValueError, match="test_fraction"):
        synthetic_train_test(100, 2, 4, 2.0, 1.0, 0)
    # Each set must hold every class.
    with pytest.raises(ValueError, match=r"^6 samples leave train=5, test=1; "
                                         r"both must be >= n_classes \(4\)$"):
        synthetic_train_test(6, 4, 16, 6.0, 0.2, 0)


def test_partition_iid_disjoint_exhaustive_near_equal():
    d = generate_synthetic(101, 4, 8, 2.0, 1)
    splits = partition_iid(d, 10, 5)
    assert [s.client_id for s in splits] == list(range(10))
    sizes = sorted(s.n_samples for s in splits)
    assert sizes == [10] * 9 + [11]
    all_idx = np.concatenate([s.indices for s in splits])
    assert np.array_equal(np.sort(all_idx), np.arange(101))


def test_partition_iid_exact_division():
    d = generate_synthetic(100, 4, 8, 2.0, 1)
    splits = partition_iid(d, 10, 5)
    assert all(s.n_samples == 10 for s in splits)


def test_partition_iid_deterministic_and_seed_sensitive():
    d = generate_synthetic(80, 4, 8, 2.0, 1)
    a = partition_iid(d, 8, 3)
    b = partition_iid(d, 8, 3)
    c = partition_iid(d, 8, 4)
    assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))


def test_partition_iid_errors():
    d = generate_synthetic(10, 2, 4, 2.0, 0)
    with pytest.raises(ValueError, match="n_clients"):
        partition_iid(d, 0, 0)
    with pytest.raises(ValueError, match="cannot split"):
        partition_iid(d, 11, 0)


def test_allocate_shards_proportional_cases():
    assert allocate_shards(np.array([100, 100, 100, 100]), 20).tolist() == [5, 5, 5, 5]
    assert allocate_shards(np.array([700, 100, 100, 100]), 10).tolist() == [7, 1, 1, 1]
    # Remainder ties go to the lower class index.
    assert allocate_shards(np.array([1, 1, 2]), 10).tolist() == [3, 2, 5]
    # The repair pass feeds zero-allocation classes from the largest one.
    assert allocate_shards(np.array([850, 50, 50, 50]), 10).tolist() == [7, 1, 1, 1]


def test_allocate_shards_always_sums_and_covers():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        counts = rng.integers(1, 500, size=k)
        total = int(rng.integers(k, 40))
        alloc = allocate_shards(counts, total)
        assert alloc.sum() == total
        assert (alloc >= 1).all()


def test_allocate_shards_errors():
    with pytest.raises(ValueError, match="class 1 has no samples"):
        allocate_shards(np.array([5, 0]), 4)
    with pytest.raises(ValueError, match="at least one shard per class"):
        allocate_shards(np.array([5, 5, 5]), 2)
    with pytest.raises(ValueError, match="non-empty"):
        allocate_shards(np.array([], dtype=np.int64), 2)


def test_partition_shards_invariants_small_grid():
    for n_clients, spc in [(4, 1), (5, 2), (10, 2), (7, 3), (4, 4)]:
        d = generate_synthetic(400, 4, 8, 3.0, n_clients * 10 + spc)
        part = partition_shards_detailed(d, n_clients, spc, 99)
        audit_shard_partition(d, part, n_clients, spc)


def test_partition_shards_deterministic_and_seed_sensitive():
    d = generate_synthetic(200, 4, 8, 3.0, 2)
    a = partition_shards(d, 5, 2, 11)
    b = partition_shards(d, 5, 2, 11)
    c = partition_shards(d, 5, 2, 12)
    assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))
    assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, c))


def test_partition_shards_single_client_gets_everything():
    d = generate_synthetic(40, 4, 8, 3.0, 5)
    splits = partition_shards(d, 1, 4, 0)
    assert len(splits) == 1
    assert np.array_equal(splits[0].indices, np.arange(40))


def test_partition_shards_near_equal_within_class():
    d = generate_synthetic(400, 4, 8, 3.0, 6)
    part = partition_shards_detailed(d, 10, 2, 7)
    by_class: dict[int, list[int]] = {}
    for lab, idx in zip(part.shard_labels, part.shard_indices):
        by_class.setdefault(lab, []).append(idx.size)
    for sizes in by_class.values():
        assert max(sizes) - min(sizes) <= 1


def test_partition_shards_errors():
    d = generate_synthetic(8, 2, 4, 3.0, 0)
    with pytest.raises(ValueError, match="cannot be built"):
        partition_shards(d, 3, 3, 0)
    with pytest.raises(ValueError, match="n_clients"):
        partition_shards(d, 0, 1, 0)
    with pytest.raises(ValueError, match="shards_per_client"):
        partition_shards(d, 2, 0, 0)
    # 2 clients x 1 shard cannot give each of 3 classes a shard.
    d3 = generate_synthetic(30, 3, 4, 3.0, 1)
    with pytest.raises(ValueError, match="at least one shard per class"):
        partition_shards(d3, 2, 1, 0)


def outcome(partition, *args):
    """What a partition call gives: its result, or its ValueError's message."""
    try:
        return partition(*args)
    except ValueError as exc:
        return str(exc)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert not g.flags.writeable and not w.flags.writeable
        assert np.array_equal(g, w)


def assert_same_splits(got, want):
    assert [type(s.client_id) for s in got] == [int] * len(got)
    assert [s.client_id for s in got] == [s.client_id for s in want]
    assert_same_arrays([s.indices for s in got], [s.indices for s in want])


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       clients=st.floats(0.0, 1.0), shards_per_client=st.integers(1, 4),
       seed=st.integers(0, 2**64 - 1))
def test_partitions_match_the_per_client_reference_bit_for_bit(
    counts, clients, shards_per_client, seed
):
    # Uneven classes; 1 to n + 1 clients, so infeasible partitions raise too.
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
    d = Dataset(np.zeros((labels.size, 1)), labels, len(counts))
    n_clients = 1 + round(clients * d.n_samples)
    got = outcome(partition_iid, d, n_clients, seed)
    want = outcome(reference_partition_iid, d, n_clients, seed)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_splits(got, want)
    got = outcome(partition_shards_detailed, d, n_clients, shards_per_client, seed)
    want = outcome(reference_partition_shards_detailed, d, n_clients, shards_per_client, seed)
    if isinstance(want, str):
        assert got == want
        return
    assert_same_splits(got.splits, want.splits)
    assert got.shard_labels == want.shard_labels
    assert [type(c) for c in got.shard_labels] == [int] * len(got.shard_labels)
    assert_same_arrays(got.shard_indices, want.shard_indices)
    assert got.assignment == want.assignment
    assert {type(s) for row in got.assignment for s in row} == {int}


def test_label_distribution_counts():
    d = Dataset(np.zeros((5, 2)), np.array([0, 1, 1, 2, 2]), 3)
    split = ClientSplit(0, np.array([0, 1, 3]))
    assert label_distribution(d, split).tolist() == [1, 1, 1]
    with pytest.raises(ValueError, match="out of range"):
        label_distribution(d, ClientSplit(0, np.array([4, 7])))


def test_format_float_roundtrips_exactly():
    rng = np.random.default_rng(21)
    values = list(rng.normal(size=20)) + [0.0, 1.0, -1.5, 1e-300, 1e300, 0.1]
    for v in values:
        assert float(format_float(v)) == float(v)


def test_dataset_file_roundtrip_exact(tmp_path):
    d = generate_synthetic(37, 3, 5, 2.5, 13)
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "5,3"
    loaded = load_dataset(path)
    assert loaded.n_classes == 3
    assert np.array_equal(loaded.features, d.features)
    assert np.array_equal(loaded.labels, d.labels)


def test_load_dataset_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_dataset(p)
    p.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="two integers"):
        load_dataset(p)
    p.write_text("2,2\n0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 3 fields"):
        load_dataset(p)
    p.write_text("2,2\n0,1.0,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed number"):
        load_dataset(p)
    p.write_text("2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no samples"):
        load_dataset(p)
    p.write_text("0,2\n0\n1\n", encoding="utf-8")
    want = f"{p}: header feature_dim must be >= 1, got 0"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        load_dataset(p)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1.0,2.0\n3,0.5,0.5\n1,0.0,1.0\n2,1.0,1.0\n", "labels must lie in [0, 3)"),
        ("0,1.0,nan\n1,0.5,0.5\n2,0.0,1.0\n", "features must be finite"),
        ("0,1.0,2.0\n1,0.5,0.5\n1,0.0,1.0\n", "class 2 has no samples"),
    ],
    ids=["label-out-of-range", "nan-feature", "missing-class"],
)
def test_load_dataset_names_the_file_when_rows_are_invalid(tmp_path, rows, message):
    p = tmp_path / "rows.csv"
    p.write_text("2,3\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_dataset(p)


# Signed zeros, the smallest subnormal, the smallest normal, and the extremes.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def datasets(draw):
    n_classes = draw(st.integers(1, 12))
    feature_dim = draw(st.integers(1, 6))
    extra = draw(st.lists(st.integers(0, n_classes - 1), max_size=10))
    labels = draw(st.permutations(list(range(n_classes)) + extra))
    values = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False))
    features = draw(st.lists(values, min_size=len(labels) * feature_dim,
                             max_size=len(labels) * feature_dim))
    return Dataset(np.array(features).reshape(len(labels), feature_dim), labels, n_classes)


@settings(max_examples=150, deadline=None)
@given(d=datasets())
def test_dataset_file_matches_per_value_writer_and_loads_bit_exact(tmp_path_factory, d):
    path = tmp_path_factory.mktemp("roundtrip") / "data.csv"
    save_dataset(d, path)
    assert path.read_bytes() == dataset_text(d).encode("utf-8")
    loaded = load_dataset(path)
    assert loaded.n_classes == d.n_classes
    assert np.array_equal(loaded.features.view(np.uint64), d.features.view(np.uint64))
    assert np.array_equal(loaded.labels, d.labels)


def test_save_dataset_rows_span_write_blocks(tmp_path):
    # Rows are formatted 4096 at a time: two full blocks and a partial one.
    d = generate_synthetic(2 * 4096 + 3, 3, 3, 2.5, 5)
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    assert path.read_text(encoding="utf-8") == dataset_text(d)


def test_save_dataset_replaces_an_existing_file_whole(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("stale\n" * 1000, encoding="utf-8")
    d = generate_synthetic(9, 3, 3, 2.0, 1)
    save_dataset(d, path)
    assert path.read_text(encoding="utf-8") == dataset_text(d)
    assert os.listdir(tmp_path) == ["data.csv"]


def test_save_dataset_failure_keeps_the_old_file(tmp_path, monkeypatch):
    # The new contents go to a temporary file that is renamed over the target
    # only when complete; a failure before the rename leaves the old file.
    path = tmp_path / "data.csv"
    save_dataset(generate_synthetic(9, 3, 3, 2.0, 1), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="no space left"):
        save_dataset(generate_synthetic(30, 3, 3, 2.0, 2), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.csv"]


def test_save_dataset_into_a_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "nodir" / "x.csv"
    with pytest.raises(FileNotFoundError) as info:
        save_dataset(generate_synthetic(9, 3, 3, 2.0, 1), path)
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"


# A file's text, and where its error points: line number and message.
BAD_LINES = {
    "after-blank-lines": ("2,3\n0,1,2\n\n\n1,x,2\n2,5,6\n", "5: malformed number"),
    "hash-row": ("2,3\n0,1,2\n#1,2,3\n2,5,6\n", "3: malformed number"),
    "whitespace-line": ("2,3\n0,1,2\n  \n1,2,3\n2,5,6\n", "3: expected 3 fields, got 1"),
    "digit-separator": ("2,3\n0,1_0,2\n1,2,3\n2,5,6\n", "2: malformed number"),
    "float-label": ("2,3\n0,1,2\n1.0,2,3\n2,5,6\n", "3: malformed number"),
    "oversized-label": ("2,3\n0,1,2\n99999999999999999999,2,3\n2,5,6\n", "3: malformed number"),
    "wide-row": ("2,3\n0,1,2\n1,2,3,4\n2,5,6\n", "3: expected 3 fields, got 4"),
    "header-wider-than-rows": ("1000000000,3\n0,1,2\n", "2: expected 1000000001 fields, got 3"),
}


@pytest.mark.parametrize("text, where", list(BAD_LINES.values()), ids=list(BAD_LINES))
def test_load_dataset_names_the_first_bad_line(tmp_path, text, where):
    p = tmp_path / "bad.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:{where}')}$"):
        load_dataset(p)


# Past the first decoded chunk, so np.loadtxt meets the bad byte; the position
# is still the byte's offset in the file.
LATE_BAD_BYTE = (b"2,3\n" + b"0,1,2\n1,3,4\n2,5,6\n" * 2000 + b"1,\xff,4\n", 36006)


@pytest.mark.parametrize(
    "raw,position",
    [
        (b"2,\xff3\n0,1,2\n1,3,4\n2,5,6\n", 2),
        (b"2,3\n0,1,2\n1,\xff,4\n2,5,6\n", 12),
        LATE_BAD_BYTE,
    ],
    ids=["header", "row", "late-row"],
)
def test_load_dataset_names_the_file_when_it_is_not_utf8(tmp_path, raw, position):
    p = tmp_path / "latin1.csv"
    p.write_bytes(raw)
    assert raw.index(b"\xff") == position
    with pytest.raises(ValueError) as info:
        load_dataset(p)
    assert str(info.value) == (
        f"{p}: 'utf-8' codec can't decode byte 0xff in position {position}: "
        "invalid start byte"
    )


def test_load_dataset_reads_crlf_lines(tmp_path):
    p = tmp_path / "crlf.csv"
    p.write_bytes(b"2,3\r\n0,1,2\r\n\r\n1,3,4\r\n2,5,6\r\n")
    d = load_dataset(p)
    assert d.labels.tolist() == [0, 1, 2]
    assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_dataset_reads_a_pipe(tmp_path):
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=("2,3\n0,1,2\n\n1,3,4\n2,5,6\n",),
        kwargs={"encoding": "utf-8"}, daemon=True,
    )
    writer.start()
    d = load_dataset(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert d.labels.tolist() == [0, 1, 2]


def test_partition_file_roundtrip(tmp_path):
    d = generate_synthetic(50, 2, 4, 2.0, 3)
    splits = partition_iid(d, 4, 8)
    path = tmp_path / "parts.txt"
    save_partition(splits, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    for s, line in zip(splits, lines):
        cid, indices = line.split(":")
        assert int(cid) == s.client_id
        assert [int(i) for i in indices.split(",")] == s.indices.tolist()


def test_save_label_distribution_contents(tmp_path):
    d = Dataset(np.zeros((6, 2)), np.array([0, 0, 1, 1, 2, 2]), 3)
    splits = [ClientSplit(0, np.array([0, 2, 4])), ClientSplit(1, np.array([1, 3, 5]))]
    path = tmp_path / "labels.csv"
    save_label_distribution(d, splits, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["client_id,class_0,class_1,class_2", "0,1,1,1", "1,1,1,1"]
