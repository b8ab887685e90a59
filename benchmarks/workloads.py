"""The benchmark's workloads: inputs, one timed unit of work, output checks.

A unit is what a user does once: run the ``fedsim`` command line on a config
(and, for ``large_file``, export the dataset first).  Units repeat in a
closed loop on identical inputs, so every unit after the first must write
byte-identical outputs.  Inputs derive from the benchmark seed only.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from pathlib import Path

import numpy as np

import checks

import fedsim
import fedsim.cli
import fedsim.data


def cli(*argv: str) -> bool:
    """Run one fedsim command in-process; its stdout is swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fedsim.cli.main(list(argv)) == 0


def run_ops(ops) -> int:
    """Run operations in order; return how many failed or were not reached."""
    for i, op in enumerate(ops):
        try:
            ok = op()
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            return len(ops) - i
    return 0


def _cfg_key(cfg) -> tuple:
    part = "iid" if cfg.partition_mode == "iid" else f"shards({cfg.shards_per_client})"
    return checks.method_key(cfg.method, cfg.mu), part, int(cfg.seed)


def _summary_key(summary: dict) -> tuple:
    c = summary["config"]
    return checks.method_key(c["method"], c["mu"]), c["partition"], int(c["seed"])


def check_run(run_dir: Path, run, train_labels=None, test=None) -> dict:
    """Checks every federated run gets; returns its summary.json.

    ``train_labels`` and ``test`` default to the arrays the program built;
    a workload that generated its own data passes those instead.
    """
    where = f"{run_dir.parent.name}/{run_dir.name}"
    cfg, data, result = run.cfg, run.data, run.result
    summary = json.loads((run_dir / "summary.json").read_text())
    rows = checks.read_csv(run_dir / "rounds.csv")
    checks.check_selection(rows, cfg.n_clients, cfg.fraction, cfg.rounds, where)
    if [tuple(int(v) for v in r["selected_clients"].split(";")) for r in rows] != run.selected:
        raise checks.CheckError(f"{where}: rounds.csv selections differ from the rounds reported")
    train_labels = data.train.labels if train_labels is None else train_labels
    test_x, test_y = (data.test.features, data.test.labels) if test is None else test
    checks.check_partition(data.splits, len(train_labels), cfg.partition_mode, where)
    max_labels = data.train.n_classes if cfg.partition_mode == "iid" else cfg.shards_per_client
    checks.check_label_counts(
        checks.read_csv(run_dir / "labels.csv"), train_labels, data.splits,
        data.train.n_classes, max_labels, where,
    )
    params = result.final_state.global_params
    for reported in (summary["final_accuracy"], rows[-1]["test_accuracy"]):
        checks.check_accuracy(float(reported), params.weights, params.bias, test_x, test_y, where)
    return summary


def _write_config(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class Workload:
    """Defaults for a unit of one fedsim command that writes only under ``out``."""

    ops_per_unit = 1

    def digest(self, out: Path) -> str:
        return checks.tree_digest(out)


class PaperGrid(Workload):
    """fedavg and fedprox(0.3) over iid, shards(2), shards(1) for three seeds."""

    name = "paper_grid"

    def __init__(self, work: Path, seed: int, tiny: bool = False) -> None:
        self.tiny = tiny
        self.seeds = [3 * seed + i for i in range(3)]
        self.config = _write_config(work / "paper_grid.cfg", [
            "n_clients = 10",
            "fraction = 0.5",
            f"rounds = {3 if tiny else 100}",
            "local_epochs = 2",
            "batch_size = 64",
            "learning_rate = 0.01",
            f"dataset = synthetic(n_samples={500 if tiny else 5000}, n_classes=4, "
            "feature_dim=16, separation=1.5, test_fraction=0.2)",
            f"seeds = {', '.join(map(str, self.seeds))}",
            "methods = fedavg, fedprox(0.3)",
            "partitions = iid, shards(2), shards(1)",
        ])

    def unit(self, out: Path) -> int:
        return run_ops([lambda: cli("suite", "--config", str(self.config), "--out", str(out), "--quiet")])

    def check(self, out: Path, runs) -> None:
        dirs = {_summary_key(json.loads(p.read_text())): p.parent for p in out.rglob("summary.json")}
        if len(runs) != 18 or sorted(dirs, key=repr) != sorted((_cfg_key(r.cfg) for r in runs), key=repr):
            raise checks.CheckError(f"expected 18 distinct runs, got {len(runs)} runs and {len(dirs)} run directories")
        summaries = [check_run(dirs[_cfg_key(r.cfg)], r) for r in runs]
        rows = checks.read_csv(out / "table.csv")
        checks.check_suite_table(rows, summaries, self.seeds, "table.csv")
        if self.tiny:
            return  # a few rounds do not converge; the pooled comparison needs the full run
        by_seed = {int(r.cfg.seed): r.data for r in runs}
        pooled = np.mean([
            checks.pooled_accuracy(d.train.features, d.train.labels, d.test.features, d.test.labels, d.train.n_classes)
            for d in by_seed.values()
        ])
        checks.check_tracks_pooled(rows, float(pooled), 0.015, "table.csv")


class CrossDevice(Workload):
    """1,000 clients of 20 samples at shards(2), 50 selected per round."""

    name = "cross_device"

    def __init__(self, work: Path, seed: int, tiny: bool = False) -> None:
        self.config = _write_config(work / "cross_device.cfg", [
            f"n_clients = {100 if tiny else 1000}",
            "fraction = 0.05",
            f"rounds = {3 if tiny else 200}",
            "local_epochs = 2",
            "batch_size = 10",
            "learning_rate = 0.01",
            "partition = shards(2)",
            f"dataset = synthetic(n_samples={2500 if tiny else 25000}, n_classes=10, "
            "feature_dim=16, separation=3.0, test_fraction=0.2)",
            f"seed = {seed}",
        ])

    def unit(self, out: Path) -> int:
        return run_ops([lambda: cli("run", "--config", str(self.config), "--out", str(out), "--quiet")])

    def check(self, out: Path, runs) -> None:
        if len(runs) != 1:
            raise checks.CheckError(f"expected one run, got {len(runs)}")
        check_run(out, runs[0])


class LargeFile(Workload):
    """A 50k x 64, 10-class dataset exported with save_dataset, then trained from file()."""

    name = "large_file"
    ops_per_unit = 3
    n_classes = 10

    def __init__(self, work: Path, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng(seed)
        n_train, n_test, dim = (1000, 200, 64) if tiny else (50_000, 10_000, 64)
        centers = rng.standard_normal((self.n_classes, dim))

        def draw(n: int):
            y = rng.permutation(np.arange(n) % self.n_classes)
            return centers[y] + rng.standard_normal((n, dim)), y

        self.train_ds = fedsim.Dataset(*draw(n_train), self.n_classes)
        self.test_ds = fedsim.Dataset(*draw(n_test), self.n_classes)
        # Dataset holds exact read-only copies; keep no second set in memory.
        self.train = self.train_ds.features, self.train_ds.labels
        self.test = self.test_ds.features, self.test_ds.labels
        self.data_dir = work / "large_file_data"
        self.data_dir.mkdir()
        self.paths = self.data_dir / "train.csv", self.data_dir / "test.csv"
        self.config = _write_config(work / "large_file.cfg", [
            "n_clients = 100",
            "fraction = 0.1",
            f"rounds = {3 if tiny else 100}",
            "local_epochs = 2",
            "batch_size = 64",
            "learning_rate = 0.01",
            "partition = iid",
            f"dataset = file(train={self.paths[0].resolve()}, test={self.paths[1].resolve()})",
            f"seed = {seed}",
        ])

    def _export(self, ds, path: Path) -> bool:
        # Looked up at call time, so a traced unit times it.
        fedsim.data.save_dataset(ds, str(path))
        return True

    def unit(self, out: Path) -> int:
        return run_ops([
            lambda: self._export(self.train_ds, self.paths[0]),
            lambda: self._export(self.test_ds, self.paths[1]),
            lambda: cli("run", "--config", str(self.config), "--out", str(out), "--quiet"),
        ])

    def digest(self, out: Path) -> str:
        return checks.tree_digest(out) + checks.tree_digest(self.data_dir)

    def check(self, out: Path, runs) -> None:
        for path, (x, y) in zip(self.paths, (self.train, self.test)):
            checks.check_export(path, x, y, self.n_classes)
        if len(runs) != 1:
            raise checks.CheckError(f"expected one run, got {len(runs)}")
        summary = check_run(out, runs[0], train_labels=self.train[1], test=self.test)
        if (summary["n_train"], summary["n_test"]) != (len(self.train[1]), len(self.test[1])):
            raise checks.CheckError(f"summary.json sizes {summary['n_train']}/{summary['n_test']}")


WORKLOADS = {w.name: w for w in (PaperGrid, CrossDevice, LargeFile)}
