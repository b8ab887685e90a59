"""load_dataset's forked range readers: the same arrays and errors at any CPU count.

Patching data._BYTES_PER_READER runs the reader path on files of a few lines.
"""

import errno
import multiprocessing
import multiprocessing.context
import os
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from fedsim import data
from fedsim.data import generate_synthetic, load_dataset, save_dataset
from oracles import dataset_text
from test_data import BAD_LINES, LATE_BAD_BYTE
from test_dataset_writers import refuse_to_start

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="range readers need sched_getaffinity and the fork start method",
)


@pytest.fixture(autouse=True)
def scratch_dir(tmp_path_factory, monkeypatch):
    """Point the scratch files at an empty directory, and check that every case cleans up."""
    scratch = tmp_path_factory.mktemp("scratch")
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    yield
    assert multiprocessing.active_children() == []
    assert os.listdir(scratch) == []


def load_at(path, cpus, k: int, floor: int = 16):
    """Load ``path`` at ``k`` usable CPUs, with a reader per ``floor`` bytes (a few lines)."""
    cpus(k, floor)
    return load_dataset(path)


def assert_same(a, b):
    assert a.n_classes == b.n_classes
    assert np.array_equal(a.features.view(np.uint64), b.features.view(np.uint64))
    assert np.array_equal(a.labels, b.labels)


BLANK_MIDDLE = "2,3\n0,1,2\n1,3,4\n2,5,6\n" + "\n" * 300 + "1,7,8\n2,9,10\n0,11,12\n"

TEXTS = {
    "synthetic": dataset_text(generate_synthetic(300, 3, 4, 2.0, 7)),
    # The middle range holds only empty lines, and cuts fall among them.
    "blank-middle": BLANK_MIDDLE,
    "crlf": BLANK_MIDDLE.replace("\n", "\r\n"),
    # No b"\n" to cut at: one range, read in one pass.
    "cr-only": BLANK_MIDDLE.replace("\n", "\r"),
    "no-final-newline": BLANK_MIDDLE.rstrip("\n"),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", TEXTS)
def test_every_cpu_count_loads_the_sequential_arrays(tmp_path, cpus, forked, name, k):
    path = tmp_path / "data.csv"
    path.write_bytes(TEXTS[name].encode("utf-8"))
    want = load_at(path, cpus, 1)
    assert forked == []
    assert_same(load_at(path, cpus, k), want)
    expected = 0 if name == "cr-only" else k - 1
    assert len(forked) == expected
    assert all(p.exitcode == 0 for p in forked)


def test_a_body_just_over_the_floor_gets_a_reader(tmp_path, cpus, forked):
    path = tmp_path / "data.csv"
    path.write_text(BLANK_MIDDLE, encoding="utf-8")
    body = len(BLANK_MIDDLE) - len("2,3\n")
    want = load_at(path, cpus, 1)
    assert_same(load_at(path, cpus, 2, floor=body // 2 + 1), want)
    assert forked == []
    assert_same(load_at(path, cpus, 2, floor=body // 2), want)
    assert len(forked) == 1


def test_the_range_path_holds_the_rows_about_once(tmp_path, cpus, forked):
    # Each range goes to a scratch part, then into the kept arrays; a table
    # held beside its copy would peak at about 2.2x the feature bytes.
    d = generate_synthetic(10_000, 4, 64, 2.0, 9)
    path = tmp_path / "data.csv"
    cpus(1)
    save_dataset(d, path)
    cpus(2, floor=16)
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forked) == 1
    assert_same(loaded, d)
    assert peak <= 1.4 * loaded.features.nbytes


PAD = 200  # good rows put before the bad line, so that it falls in the last range


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("case", BAD_LINES)
def test_a_bad_line_in_the_last_range_names_it_as_one_pass_does(tmp_path, cpus, forked, case, k):
    text, where = BAD_LINES[case]
    line, message = where.split(": ", 1)
    header, *rows = text.splitlines(keepends=True)
    at = int(line) - 2
    path = tmp_path / "bad.csv"
    path.write_text(header + "".join(rows[:at]) + "0,1,2\n" * PAD + "".join(rows[at:]),
                    encoding="utf-8")
    errors = []
    for n in (1, k):
        with pytest.raises(ValueError) as info:
            load_at(path, cpus, n)
        errors.append(str(info.value))
    assert errors[1] == errors[0]
    if case == "header-wider-than-rows":  # rejected before the body is cut
        assert errors[0] == f"{path}:{where}"
        assert forked == []
    else:
        assert errors[0] == f"{path}:{int(line) + PAD}: {message}"
        assert [p.exitcode for p in forked] == [0] * (k - 2) + [255]


@pytest.mark.parametrize("k", [2, 3])
def test_a_bad_byte_in_the_last_range_names_its_offset(tmp_path, cpus, forked, k):
    raw, position = LATE_BAD_BYTE
    path = tmp_path / "latin1.csv"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        load_at(path, cpus, k, floor=4096)
    assert str(info.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position {position}: "
        "invalid start byte"
    )
    assert [p.exitcode for p in forked] == [0] * (k - 2) + [255]


def test_a_failed_reader_falls_back_to_one_pass(tmp_path, cpus, forked, monkeypatch, capfd):
    path = tmp_path / "data.csv"
    path.write_text(TEXTS["synthetic"], encoding="utf-8")
    want = load_at(path, cpus, 1)
    parent, parse_rows = os.getpid(), data._parse_rows

    def out_of_memory_in_the_child(*args):
        if os.getpid() != parent:
            raise MemoryError
        return parse_rows(*args)

    monkeypatch.setattr(data, "_parse_rows", out_of_memory_in_the_child)
    assert_same(load_at(path, cpus, 3), want)
    assert forked[0].exitcode == 255  # the second is joined after, or killed
    assert forked[1].exitcode != 0
    assert capfd.readouterr() == ("", "")  # the readers printed no traceback


@pytest.mark.parametrize("why", ["process limit", "daemonic parent"])
def test_a_reader_that_cannot_start_is_parsed_in_process(tmp_path, cpus, forked, monkeypatch, why):
    path = tmp_path / "data.csv"
    path.write_text(TEXTS["synthetic"], encoding="utf-8")
    want = load_at(path, cpus, 1)
    if why == "process limit":
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse_to_start)
    else:
        monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
    assert_same(load_at(path, cpus, 3), want)
    assert forked == [None, None]


def test_a_scratch_part_that_cannot_be_made_falls_back_to_one_pass(tmp_path, cpus, forked,
                                                                    monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text(TEXTS["synthetic"], encoding="utf-8")
    want = load_at(path, cpus, 1)

    def full(**part):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", full)
    assert_same(load_at(path, cpus, 3), want)
    assert forked == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read_in_one_pass(tmp_path, cpus, forked):
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(BLANK_MIDDLE,),
                              kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    d = load_at(fifo, cpus, 3)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert d.labels.tolist() == [0, 1, 2, 1, 2, 0]
    assert forked == []


def test_a_fork_warning_in_a_threaded_parent_is_not_an_error(tmp_path, cpus, forked,
                                                           monkeypatch, capfd):
    # Python 3.12+ warns in the parent, after the child exists, when a process
    # with threads forks; an "error" filter must not turn that into a lost child.
    fork = os.fork

    def fork_and_warn():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_warn)
    d = generate_synthetic(4097, 3, 3, 2.5, 8)
    path = tmp_path / "data.csv"
    cpus(2, floor=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save_dataset(d, path)
        loaded = load_dataset(path)
    assert path.read_bytes() == dataset_text(d).encode("utf-8")
    assert_same(loaded, d)
    assert len(forked) == 2 and all(p.exitcode == 0 for p in forked)  # a writer, a reader
    assert capfd.readouterr() == ("", "")
