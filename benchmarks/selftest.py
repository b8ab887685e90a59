"""Self-test of the benchmark's output checks and trace hooks.

    python3 benchmarks/selftest.py
    python3 -m pytest -q benchmarks/selftest.py

Each workload runs once at a tiny size.  Its real outputs must pass the
workload's checks; then one output at a time is broken, and the check that
guards it must reject it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _workspace(name: str) -> Path:
    work = ROOT / ".bench_out" / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _run_tiny(cls, work: Path, traced: bool = False):
    """One tiny unit of the workload, kept for the checks."""
    wl = cls(work, seed=0, tiny=True)
    unit = run.run_unit(wl, work / "out", traced=traced, keep=True)
    assert unit.failed == 0, f"{cls.name}: tiny unit failed"
    return wl, unit


def _expect_rejected(check, match: str) -> None:
    try:
        check()
    except checks.CheckError as exc:
        assert match in str(exc), f"rejected for another reason: {exc}"
        return
    raise AssertionError(f"broken output was accepted (expected {match!r})")


def _edit(path: Path, line_no: int, edit) -> str:
    """Replace line ``line_no`` of a text file by edit(line); returns the original text."""
    text = path.read_text()
    lines = text.split("\n")
    lines[line_no] = edit(lines[line_no])
    path.write_text("\n".join(lines))
    return text


def test_paper_grid_checks_reject_broken_outputs():
    work = _workspace("paper_grid")
    try:
        wl, unit = _run_tiny(workloads.PaperGrid, work)
        out, runs = work / "out", unit.probe.runs
        wl.check(out, runs)

        # A client repeated in one round's selection.
        rounds_csv = next(out.rglob("rounds.csv"))

        def repeat_first(line):
            idx, sel, *rest = line.split(",")
            ids = sel.split(";")
            return ",".join([idx, ";".join([ids[0], ids[0], *ids[2:]]), *rest])

        original = _edit(rounds_csv, 1, repeat_first)
        _expect_rejected(lambda: wl.check(out, runs), "not distinct")
        rounds_csv.write_text(original)

        # A shards(1) client holding a second label.
        labels_csv = next(p / "labels.csv" for p in out.rglob("seed_*") if "shards-1" in str(p))

        def add_label(line):
            cid, *counts = line.split(",")
            zero = counts.index("0")
            counts[zero] = "1"
            return ",".join([cid, *counts])

        original = _edit(labels_csv, 1, add_label)
        _expect_rejected(lambda: wl.check(out, runs), "at most 1 allowed")
        labels_csv.write_text(original)

        # A table mean that differs from the per-seed values.
        table_csv = out / "table.csv"

        def shift_mean(line):
            method, partition, mean, std = line.split(",")
            return ",".join([method, partition, repr(float(mean) + 1e-3), std])

        original = _edit(table_csv, 1, shift_mean)
        _expect_rejected(lambda: wl.check(out, runs), "recomputed")
        table_csv.write_text(original)
        wl.check(out, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_large_file_check_rejects_one_changed_digit():
    work = _workspace("large_file")
    try:
        wl, unit = _run_tiny(workloads.LargeFile, work)
        out, runs = work / "out", unit.probe.runs
        wl.check(out, runs)

        def change_digit(line):
            label, first, *rest = line.split(",")
            i = next(i for i, ch in enumerate(first) if ch.isdigit())
            first = first[:i] + str((int(first[i]) + 1) % 10) + first[i + 1:]
            return ",".join([label, first, *rest])

        _edit(wl.paths[0], 1, change_digit)
        _expect_rejected(lambda: wl.check(out, runs), "features differ")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_cross_device_check_rejects_wrong_accuracy():
    work = _workspace("cross_device")
    try:
        wl, unit = _run_tiny(workloads.CrossDevice, work)
        out, runs = work / "out", unit.probe.runs
        wl.check(out, runs)
        summary = out / "summary.json"
        payload = json.loads(summary.read_text())
        payload["final_accuracy"] -= 0.01
        summary.write_text(json.dumps(payload))
        _expect_rejected(lambda: wl.check(out, runs), "reported accuracy")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_absent_layer_is_reported_and_the_run_completes():
    work = _workspace("absent")
    saved = dict(hooks.LAYERS)
    hooks.LAYERS["training.cohort_train"] = (("fedsim.training", "cohort_train"),)
    try:
        wl, unit = _run_tiny(workloads.CrossDevice, work, traced=True)
        assert unit.tracer.absent == ["training.cohort_train"], unit.tracer.absent
        assert unit.tracer.calls["training.local_train"] > 0
        wl.check(work / "out", unit.probe.runs)
    finally:
        hooks.LAYERS.clear()
        hooks.LAYERS.update(saved)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"PASS {test.__name__}")
