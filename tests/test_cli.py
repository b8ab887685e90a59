"""Command-line behavior: outputs, reproducibility, and error handling."""

import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import fedsim
from fedsim.cli import cmd_inspect_partition, cmd_run, cmd_suite, main
from fedsim.config import ConfigError, config_fingerprint, load_config, parse_config
from fedsim.data import Dataset, format_float, load_dataset, save_dataset
from fedsim.evaluation import summarize_accuracies
from fedsim.federation import build_datasets, select_clients

TINY = """\
rounds = 3
n_clients = 4
fraction = 0.5
batch_size = 16
dataset = synthetic(n_samples=200, n_classes=4, feature_dim=8)
"""


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines]


def test_run_writes_outputs_and_prints_final(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("final_accuracy=")
    final = float(captured.out.split("=", 1)[1])
    assert 0.0 <= final <= 1.0
    assert "run:" in captured.err

    rows = read_rows(out / "rounds.csv")
    assert rows[0] == ["round_index", "selected_clients", "mean_client_loss", "test_accuracy"]
    assert len(rows) == 4  # header + 3 rounds
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        ids = [int(v) for v in row[1].split(";")]
        assert ids == sorted(ids)
        assert all(0 <= v < 4 for v in ids)
        float(row[2])
        assert 0.0 <= float(row[3]) <= 1.0
    # Floats are written with full round-trip precision.
    assert rows[-1][3] == format_float(float(rows[-1][3]))
    assert float(rows[-1][3]) == final

    labels = read_rows(out / "labels.csv")
    assert labels[0] == ["client_id", "class_0", "class_1", "class_2", "class_3"]
    assert len(labels) == 5

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    cfg, _ = load_config(str(tiny_cfg_path))
    assert summary["config_fingerprint"] == config_fingerprint(cfg)
    assert summary["rounds_completed"] == 3
    assert summary["n_train"] == 160
    assert summary["n_test"] == 40
    assert summary["final_accuracy"] == final
    assert summary["config"]["n_clients"] == 4


def test_run_quiet_suppresses_progress(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert (
        main(["run", "--config", str(tiny_cfg_path), "--out", str(out), "--quiet"]) == 0
    )
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("final_accuracy=")


def test_run_outputs_byte_identical_across_reruns(tiny_cfg_path, tmp_path, capsys):
    outs = [tmp_path / f"out{i}" for i in range(2)]
    for out in outs:
        assert (
            main(["run", "--config", str(tiny_cfg_path), "--out", str(out), "--quiet"])
            == 0
        )
    capsys.readouterr()
    for name in ("rounds.csv", "labels.csv", "summary.json"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1]


def test_a_failing_write_keeps_the_previous_summary(tiny_cfg_path, tmp_path, capsys,
                                                    monkeypatch):
    # Each output is written to a temporary file and renamed over the old one
    # only when complete: a write that fails halfway leaves the old file.
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_cfg_path), "--out", str(out), "--quiet"]) == 0
    before = (out / "summary.json").read_bytes()

    def dump_then_fail(payload, f, **kwargs):
        f.write('{"partial": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    reseeded = tmp_path / "reseeded.cfg"
    reseeded.write_text(TINY + "seed = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(reseeded), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert (out / "summary.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["labels.csv", "rounds.csv", "summary.json"]


@pytest.mark.parametrize("method", ["fedavg", "fedprox\nmu = 0.3"])
def test_run_divergence_is_one_error_line(tmp_path, capsys, method):
    cfg_path = tmp_path / "wild.cfg"
    cfg_path.write_text(
        f"method = {method}\nlearning_rate = 1e307\nrounds = 5\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        status = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    m = re.fullmatch(
        r"error: round 0, client (\d+), epoch \d+: local training diverged", lines[0]
    )
    assert m and int(m[1]) in select_clients(10, 0.5, 0, 0)
    assert not out.exists()


def test_run_saturation_without_overflow_is_divergence(tmp_path, capsys):
    # On well-separated data a huge step saturates the softmax: every loss is
    # exactly 0 and no logit overflows, but the weights leave no float
    # headroom.  The squared update norm overflows and names the run diverged.
    cfg_path = tmp_path / "saturate.cfg"
    cfg_path.write_text(TINY + "learning_rate = 1e307\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    m = re.fullmatch(
        r"error: round 0, client (\d+), epoch \d+: local training diverged", lines[0]
    )
    assert m and int(m[1]) in select_clients(4, 0.5, 0, 0)
    assert not out.exists()


def test_main_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("color = red\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key" in capsys.readouterr().err

    good = tmp_path / "good.cfg"
    good.write_text(TINY, encoding="utf-8")
    assert (
        main(
            [
                "suite",
                "--config",
                str(good),
                "--out",
                str(tmp_path / "o"),
                "--seeds",
                "1,1",
            ]
        )
        == 1
    )
    assert "distinct" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", str(good)])
    with pytest.raises(SystemExit):
        main(["run"])  # --config is required


@pytest.mark.parametrize("pad", [0, 10_000], ids=["early", "past-8KiB"])
def test_a_config_that_is_not_utf8_names_the_file(tmp_path, capsys, pad):
    # The position is the byte's offset in the file.
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"#" * pad + b"\nrounds = 3\n# caf\xe9\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xe9 in position "
        f"{pad + 17}: invalid continuation byte\n"
    )
    assert not (tmp_path / "o").exists()


def test_file_paths_resolve_against_the_working_directory(tmp_path, capsys, monkeypatch):
    # Not against the config file's directory.
    (tmp_path / "data").mkdir()
    rows = [[float(i), 1.0, 0.0] for i in range(12)]
    save_dataset(Dataset(rows, [i % 3 for i in range(12)], 3), tmp_path / "data" / "d.csv")
    (tmp_path / "configs").mkdir()
    cfg_path = tmp_path / "configs" / "file.cfg"
    cfg_path.write_text("rounds = 1\nn_clients = 2\n"
                        "dataset = file(train=data/d.csv, test=data/d.csv)\n",
                        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--out", "out", "--quiet"]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_train"] == 12
    capsys.readouterr()
    monkeypatch.chdir(tmp_path / "configs")
    assert main(["run", "--config", "file.cfg", "--out", "out", "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'data/d.csv'\n"
    )
    assert not (tmp_path / "configs" / "out").exists()


def test_suite_writes_table_and_per_run_dirs(tmp_path, capsys):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(
        TINY.replace("rounds = 3", "rounds = 2")
        + "methods = fedavg, fedprox(0.3)\npartitions = iid, shards(2)\nseeds = 0, 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert "fedavg iid: mean=" in captured.out

    rows = read_rows(out / "table.csv")
    assert rows[0] == ["method", "partition", "mean_accuracy", "std"]
    combos = [(r[0], r[1]) for r in rows[1:]]
    assert combos == [
        ("fedavg", "iid"),
        ("fedavg", "shards(2)"),
        ("fedprox(0.3)", "iid"),
        ("fedprox(0.3)", "shards(2)"),
    ]

    # Each combo holds one run directory per seed with the standard outputs.
    for combo_dir in ["fedavg_iid", "fedavg_shards-2", "fedprox-0.3_iid", "fedprox-0.3_shards-2"]:
        for seed in (0, 1):
            run_dir = out / combo_dir / f"seed_{seed}"
            assert (run_dir / "rounds.csv").exists()
            assert (run_dir / "summary.json").exists()

    # The table's mean/std match the per-seed summaries.
    for row, combo_dir in zip(rows[1:], ["fedavg_iid", "fedavg_shards-2", "fedprox-0.3_iid", "fedprox-0.3_shards-2"]):
        accs = [
            json.loads(
                (out / combo_dir / f"seed_{s}" / "summary.json").read_text("utf-8")
            )["final_accuracy"]
            for s in (0, 1)
        ]
        mean, std = summarize_accuracies(accs)
        assert float(row[2]) == mean
        assert float(row[3]) == std

    meta = json.loads((out / "suite.json").read_text(encoding="utf-8"))
    assert meta["seeds"] == [0, 1]
    assert meta["methods"] == ["fedavg", "fedprox(0.3)"]
    assert meta["partitions"] == ["iid", "shards(2)"]
    assert meta["std_convention"] == "sample (ddof=1)"


def test_suite_rejects_duplicate_cells(tmp_path, capsys):
    cfg_path = tmp_path / "dup.cfg"
    cfg_path.write_text(TINY + "methods = fedavg, fedavg\n", encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: methods: 'fedavg' duplicates 'fedavg'\n"
    assert not out.exists()


def test_suite_checks_every_cell_before_the_first_run(tmp_path, capsys):
    # The iid cell is feasible, but 4 clients x 1000 shards exceed the 160
    # training samples: nothing runs and nothing is written.
    cfg_path = tmp_path / "infeasible.cfg"
    cfg_path.write_text(TINY + "partitions = iid, shards(1000)\n", encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition: 4000 shards cannot be built from 160 samples\n"
    assert not out.exists()


def test_run_leaves_an_infeasible_sweep_cell_to_the_suite(tmp_path, capsys):
    # run trains the base cell only, so a sweep cell it never builds cannot
    # stop it; suite rejects the same config before it writes anything.
    cfg_path = tmp_path / "infeasible.cfg"
    cfg_path.write_text(TINY + "partitions = iid, shards(1000)\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == ["labels.csv", "rounds.csv",
                                                     "summary.json"]


@pytest.mark.parametrize(
    "setting, message",
    [
        ("n_clients = 20", "cannot split 6 samples across 20 clients"),
        ("n_clients = 2\npartition = shards(1)",
         "need at least one shard per class: 2 shards for 3 classes"),
    ],
    ids=["more-clients-than-rows", "fewer-shards-than-classes"],
)
def test_file_dataset_partition_errors_name_the_key(tmp_path, capsys, setting, message):
    # A file() dataset's size is unknown until it is read, so these configs
    # build and fail when the rows are partitioned.
    data = tmp_path / "six.csv"
    rows = [[float(i), 1.0, 0.0] for i in range(6)]
    save_dataset(Dataset(rows, [0, 0, 1, 1, 2, 2], 3), data)
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text(f"{setting}\ndataset = file(train={data}, test={data})\n",
                        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: partition: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("partition = shards(5)", "50 shards cannot be built from 40 samples"),
        ("n_clients = 1\npartition = shards(2)",
         "need at least one shard per class: 2 shards for 4 classes"),
        ("n_clients = 45", "cannot split 40 samples across 45 clients"),
    ],
    ids=["more-shards-than-rows", "fewer-shards-than-classes", "more-clients-than-rows"],
)
def test_synthetic_and_file_datasets_share_the_partition_errors(tmp_path, capsys,
                                                                setting, message):
    # One rule, in the data layer, for both dataset kinds: the same 40 train
    # rows as synthetic() and as file() give the same line, before any write.
    synthetic = "dataset = synthetic(n_samples=50, feature_dim=4)\n"
    cfg, _ = parse_config(synthetic)
    train, test = build_datasets(cfg)
    save_dataset(train, tmp_path / "train.csv")
    save_dataset(test, tmp_path / "test.csv")
    file = f"dataset = file(train={tmp_path / 'train.csv'}, test={tmp_path / 'test.csv'})\n"
    for i, dataset in enumerate((synthetic, file)):
        cfg_path = tmp_path / f"{i}.cfg"
        cfg_path.write_text(f"rounds = 2\nfraction = 1\n{setting}\n{dataset}", encoding="utf-8")
        for command in ("run", "inspect-partition"):
            out = tmp_path / f"{command}{i}"
            assert main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
            assert capsys.readouterr() == ("", f"error: partition: {message}\n")
            assert not out.exists()
        # The pooled baseline builds no partition.
        out = tmp_path / f"baseline{i}"
        assert main(["baseline", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out.startswith("centralized_accuracy=")
        assert (out / "baseline.json").exists()


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"2,3\n0,1,2\n99999999999999999999,3,4\n2,5,6\n", "{path}:3: malformed number"),
        (b"2,3\n0,1,2\n1,\xff,4\n2,5,6\n",
         "{path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
        (b"2,1000000000000000\n0,1,2\n1,3,4\n", "{path}: class 2 has no samples"),
        (b"2,1000000000000000\n0,1,2\n999999999999999,3,4\n",
         "{path}: class 1 has no samples"),
    ],
    ids=["oversized-label", "not-utf8", "oversized-class-count", "oversized-count-and-label"],
)
def test_run_reports_a_bad_dataset_file_in_one_line(tmp_path, capsys, raw, message):
    data = tmp_path / "data.csv"
    data.write_bytes(raw)
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text(f"dataset = file(train={data}, test={data})\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: " + message.format(path=data) + "\n"
    assert not out.exists()


def write_file_suite(tmp_path, partitions):
    """A suite config over a 12-row, 3-class file() dataset and 2 clients."""
    data = tmp_path / "twelve.csv"
    rows = [[float(i), 1.0, 0.0] for i in range(12)]
    save_dataset(Dataset(rows, [i % 3 for i in range(12)], 3), data)
    cfg_path = tmp_path / "file_suite.cfg"
    cfg_path.write_text(
        f"rounds = 1\nn_clients = 2\npartitions = {partitions}\nseeds = 0, 1\n"
        f"dataset = file(train={data}, test={data})\n",
        encoding="utf-8",
    )
    return cfg_path


def test_suite_partitions_every_file_cell_before_the_first_run(tmp_path, capsys):
    # The iid cell fits, but 2 clients x 10 shards exceed the 12 rows, which
    # only reading the file shows: nothing runs and nothing is written.
    cfg_path = write_file_suite(tmp_path, "iid, shards(10)")
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition: 20 shards cannot be built from 12 samples\n"
    assert not out.exists()


def test_suite_reads_a_file_dataset_once(tmp_path, capsys, monkeypatch):
    reads = []

    def counting_load(path):
        reads.append(path)
        return load_dataset(path)

    monkeypatch.setattr("fedsim.federation.load_dataset", counting_load)
    cfg_path = write_file_suite(tmp_path, "iid, shards(2)")
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert len(reads) == 2  # train and test, for 2 cells x 2 seeds
    assert len(read_rows(out / "table.csv")) == 3


def snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


SWEEP = TINY.replace("rounds = 3", "rounds = 1") + "partitions = iid, shards(2)\nseeds = 0, 1\n"


def test_suite_rerun_of_the_same_sweep_overwrites_its_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP, encoding="utf-8")
    out = tmp_path / "sweep"
    argv = ["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]
    assert main(argv) == 0
    first = snapshot(out)
    assert len(first) == 14  # 4 runs x 3 files, table.csv, suite.json
    (out / "fedavg_iid" / "seed_0" / "rounds.csv").write_text("stale\n")
    (out / "table.csv").write_text("stale\n")
    assert main(argv) == 0
    assert snapshot(out) == first


@pytest.mark.parametrize(
    "config, seeds",
    [(SWEEP.replace("iid, shards(2)", "iid"), None),
     (SWEEP + "methods = fedavg, fedprox\n", None),
     (SWEEP, "1,0"),
     (SWEEP, "0,1,2")],
    ids=["fewer-partitions", "more-methods", "seed-order", "more-seeds"],
)
def test_suite_refuses_an_out_that_holds_another_sweep(tmp_path, capsys, config, seeds):
    # Stale <combo>/seed_<s> directories would disagree with table.csv.
    first = tmp_path / "first.cfg"
    first.write_text(SWEEP, encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(first), "--out", str(out), "--quiet"]) == 0
    before = snapshot(out)
    capsys.readouterr()
    other = tmp_path / "other.cfg"
    other.write_text(config, encoding="utf-8")
    argv = ["suite", "--config", str(other), "--out", str(out), "--quiet"]
    assert main(argv + (["--seeds", seeds] if seeds else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {out / 'suite.json'}: holds another sweep's methods, partitions "
        "or seeds; write this one to a new --out\n"
    )
    assert snapshot(out) == before


def test_suite_refuses_an_out_with_an_unreadable_suite_record(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP, encoding="utf-8")
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "suite.json").write_text("{not json", encoding="utf-8")
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out / 'suite.json'}: holds another")
    assert snapshot(out) == {"suite.json": b"{not json"}


def test_a_diverging_suite_names_its_run_and_still_guards_its_out(tmp_path, capsys):
    # fedavg trains both seeds; fedprox(1e308) then overflows on its first run.
    cfg_path = tmp_path / "div.cfg"
    cfg_path.write_text(
        "rounds = 3\nn_clients = 4\ndataset = synthetic(n_samples=200)\n"
        "methods = fedavg, fedprox(1e308)\nseeds = 0, 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "fedavg iid: mean=1.0000 std=0.0000\n"
    assert captured.err == (
        "error: fedprox(1e308) iid seed=0: round 0, client 0, epoch 1: "
        "local training diverged\n"
    )
    record = json.loads((out / "suite.json").read_text(encoding="utf-8"))
    assert (record["methods"], record["partitions"], record["seeds"]) == (
        ["fedavg", "fedprox(1e308)"], ["iid"], [0, 1])
    assert not (out / "table.csv").exists()
    before = snapshot(out)
    other = tmp_path / "other.cfg"
    other.write_text(SWEEP, encoding="utf-8")
    assert main(["suite", "--config", str(other), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out / 'suite.json'}: holds another")
    assert snapshot(out) == before


def test_suite_runs_bare_and_explicit_mu_cells_to_completion(tmp_path, capsys):
    # A bare fedprox takes the config's mu (default 0.2), so it and
    # fedprox(0.3) are distinct cells, even though each cell's own config
    # carries the other's mu.
    cfg_path = tmp_path / "mus.cfg"
    cfg_path.write_text(
        TINY.replace("rounds = 3", "rounds = 1")
        + "methods = fedprox, fedprox(0.3)\npartitions = iid, shards(1)\nseeds = 0\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    rows = read_rows(out / "table.csv")
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("fedprox", "iid"),
        ("fedprox", "shards(1)"),
        ("fedprox(0.3)", "iid"),
        ("fedprox(0.3)", "shards(1)"),
    ]
    for combo, mu in [("fedprox_shards-1", 0.2), ("fedprox-0.3_shards-1", 0.3)]:
        summary = json.loads((out / combo / "seed_0" / "summary.json").read_text())
        assert summary["config"]["mu"] == mu


def test_a_suite_run_echoes_its_own_run_not_the_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(TINY.replace("rounds = 3", "rounds = 1")
                        + "methods = fedavg, fedprox(0.3)\n", encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["suite", "--config", str(cfg_path), "--out", str(out), "--quiet",
                 "--seeds", "5,6"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "fedprox-0.3_iid" / "seed_5" / "summary.json").read_text())
    echo = summary["config"]
    assert (echo["seed"], echo["method"], echo["mu"]) == (5, "fedprox", 0.3)
    assert not {"seeds", "methods", "partitions"} & set(echo)
    assert json.loads((out / "suite.json").read_text())["seeds"] == [5, 6]


@pytest.mark.parametrize("command", ["run", "baseline", "inspect-partition"])
def test_sweep_keys_leave_a_single_run_byte_identical(tmp_path, capsys, command):
    # Only the suite reads a file's sweep keys; every other command writes,
    # prints and fingerprints the same bytes with or without them.
    sweep = "seeds = 21, 22\nmethods = fedavg, fedprox(0.3)\npartitions = iid, shards(1)\n"
    written = []
    for name, text in (("plain", TINY), ("swept", TINY + sweep)):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        out = tmp_path / name
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))}
        written.append((capsys.readouterr(), files))
    assert written[0] == written[1]


def test_suite_seed_override_and_single_seed_std(tmp_path, capsys):
    cfg, sweep = parse_config(TINY)
    out = tmp_path / "s"
    assert cmd_suite(cfg, replace(sweep, seeds=(5,)), out, quiet=True) == 0
    capsys.readouterr()
    rows = read_rows(out / "table.csv")
    assert len(rows) == 2
    assert float(rows[1][3]) == 0.0  # singleton std
    assert (out / "fedavg_iid" / "seed_5" / "rounds.csv").exists()
    with pytest.raises(ConfigError, match="distinct"):
        cmd_suite(cfg, replace(sweep, seeds=(2, 2)), out, quiet=True)


def test_inspect_partition_reports_label_caps(tmp_path, capsys):
    cfg, _ = parse_config(TINY + "partition = shards(2)\n")
    out = tmp_path / "inspect"
    assert cmd_inspect_partition(cfg, out, quiet=True) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "client_id n_samples distinct_labels label_counts"
    assert len(lines) == 5
    for line in lines[1:]:
        parts = line.split()
        assert int(parts[2]) <= 2
    assert (out / "labels.csv").exists()
    lines = (out / "partition.txt").read_text(encoding="utf-8").splitlines()
    indices = [int(i) for line in lines for i in line.split(":")[1].split(",")]
    assert sorted(indices) == list(range(160))


def test_inspect_partition_iid_sees_every_label(tmp_path, capsys):
    cfg, _ = parse_config("n_clients = 2\ndataset = synthetic(n_samples=400)\n")
    assert cmd_inspect_partition(cfg, tmp_path / "i", quiet=True) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:]:
        assert int(line.split()[2]) == 4


def test_baseline_writes_summary(tmp_path, capsys):
    cfg_path = tmp_path / "b.cfg"
    cfg_path.write_text(TINY.replace("rounds = 3", "rounds = 5"), encoding="utf-8")
    out = tmp_path / "base"
    assert main(["baseline", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("centralized_accuracy=")
    payload = json.loads((out / "baseline.json").read_text(encoding="utf-8"))
    assert payload["epochs"] == 10  # rounds * local_epochs
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert float(captured.out.split("=", 1)[1]) == payload["accuracy"]


def run_module(*argv: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """``python *flags -m fedsim *argv`` in a child that imports this test's fedsim checkout."""
    src = str(Path(fedsim.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *flags, "-m", "fedsim", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_entrypoint_runs(tiny_cfg_path, tmp_path):
    out = tmp_path / "sub"
    proc = run_module("run", "--config", str(tiny_cfg_path), "--out", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("final_accuracy=")
    assert (out / "rounds.csv").exists()


def test_a_config_warning_shows_as_one_line(tmp_path, capsys):
    # Python's own format would name config.py's path and line, then repeat
    # the source line.  Only the format changes: an "error" filter still takes
    # effect, and the warning then ends the run as a one-line error.
    cfg_path = tmp_path / "mu.cfg"
    cfg_path.write_text(TINY + "mu = 0.3\n", encoding="utf-8")
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]
    proc = run_module(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: mu is ignored when method = fedavg\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == "error: mu is ignored when method = fedavg\n"


def test_a_config_warning_under_w_error_is_one_error_line(tmp_path):
    # python -W error turns the warning into an exception; it is reported like
    # any other bad input, with no traceback and no output directory.
    cfg_path = tmp_path / "mu.cfg"
    cfg_path.write_text(TINY + "mu = 0.3\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_module("run", "--config", str(cfg_path), "--out", str(out), "--quiet",
                      flags=("-W", "error"))
    assert proc.returncode == 1
    assert proc.stderr == "error: mu is ignored when method = fedavg\n"
    assert proc.stdout == ""
    assert not out.exists()
