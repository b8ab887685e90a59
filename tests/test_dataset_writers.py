"""save_dataset's forked row writers: the same bytes at any CPU count, and clean failures."""

import errno
import multiprocessing
import multiprocessing.context
import os
import time

import pytest

from fedsim import data
from fedsim.data import generate_synthetic, save_dataset
from oracles import dataset_text

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="row writers need sched_getaffinity and the fork start method",
)


def assert_clean(tmp_path):
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["data.csv"]


# 4096 rows are one block, so one range; 4097 and 8195 split into 2 or 3
# ranges of unequal size; 12289 rows at 3 CPUs leave n % k == 1.
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [4096, 4097, 2 * 4096 + 3, 3 * 4096 + 1])
def test_every_cpu_count_writes_the_per_value_bytes(tmp_path, cpus, forked, n, k):
    cpus(k)
    d = generate_synthetic(n, 3, 3, 2.5, n)
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    assert path.read_bytes() == dataset_text(d).encode("utf-8")
    assert len(forked) == min(k, -(-n // 4096)) - 1
    assert all(p is not None and p.exitcode == 0 for p in forked)
    assert_clean(tmp_path)


def test_a_failed_writer_is_one_error_and_leaves_the_old_file(tmp_path, cpus, monkeypatch, capfd):
    cpus(2)
    path = tmp_path / "data.csv"
    save_dataset(generate_synthetic(9, 3, 3, 2.0, 1), path)
    before = path.read_bytes()
    parent, write_rows = os.getpid(), data._write_rows

    def full_disk_in_the_child(*args):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_rows(*args)

    monkeypatch.setattr(data, "_write_rows", full_disk_in_the_child)
    with pytest.raises(OSError) as info:
        save_dataset(generate_synthetic(4097, 3, 3, 2.0, 2), path)
    assert str(info.value) == f"[Errno 28] No space left on device: '{path}'"
    assert path.read_bytes() == before
    assert_clean(tmp_path)
    assert capfd.readouterr() == ("", "")  # the writer printed no traceback


def test_an_interrupted_save_stops_its_writers(tmp_path, cpus, monkeypatch):
    cpus(3)
    path = tmp_path / "data.csv"
    path.write_text("old\n", encoding="utf-8")
    parent = os.getpid()

    def slow_writers_then_interrupt(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(data, "_write_rows", slow_writers_then_interrupt)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        save_dataset(generate_synthetic(3 * 4096, 3, 3, 2.0, 3), path)
    assert time.perf_counter() - began < 10  # killed, not waited for
    assert path.read_text(encoding="utf-8") == "old\n"
    assert_clean(tmp_path)


def refuse_to_start(self):
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("why", ["process limit", "daemonic parent"])
def test_a_writer_that_cannot_start_is_written_in_process(tmp_path, cpus, monkeypatch, why):
    # A daemonic process (a Pool worker, say) may not start children.
    cpus(3)
    if why == "process limit":
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse_to_start)
    else:
        monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
    d = generate_synthetic(2 * 4096 + 3, 3, 3, 2.5, 4)
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    assert path.read_bytes() == dataset_text(d).encode("utf-8")
    assert_clean(tmp_path)
