"""Golden output digests: every byte each command writes, pinned.

Each case runs one ``fedsim`` command in-process, from an empty working
directory and with relative paths only, and records the SHA-256 of every
file under that directory, of stdout and of stderr, plus the exit status.
Warnings reach stderr as ``fedsim`` shows them, ``warning: <message>``.
``tests/golden/outputs.json`` holds the recorded digests, and a short digest
of each line, so a mismatch can point at the first line that differs.

A change that alters outputs on purpose regenerates the manifest:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.data import Dataset, save_dataset

MANIFEST = Path(__file__).resolve().parent / "golden" / "outputs.json"

SMALL = "dataset = synthetic(n_samples=400, n_classes=4, feature_dim=8)\n"


def _file_data() -> None:
    rng = np.random.default_rng(3)
    for name, n in (("train.csv", 120), ("test.csv", 40)):
        y = np.arange(n) % 3
        save_dataset(Dataset(rng.standard_normal((n, 5)) + y[:, None], y, 3), name)


# name -> (config text or bytes, command line after the config, set-up or None)
CASES = {
    "run": ("rounds = 5\n", ["run"], None),
    "run_fedprox_shards1": (
        "method = fedprox\nmu = 0.3\npartition = shards(1)\nrounds = 5\n", ["run"], None),
    # 10 classes take the kernel's ndarray reductions, and 58- and 57-sample
    # clients split the last step of each epoch into two groups.
    "run_fedprox_10_classes": (
        "method = fedprox\nmu = 0.3\nn_clients = 7\nfraction = 1.0\nlocal_epochs = 2\n"
        "batch_size = 16\nrounds = 4\ndataset = synthetic(n_samples=500, n_classes=10, "
        "feature_dim=12, separation=1.5)\n", ["run"], None),
    # A 300 KiB test set, over the size from which a run evaluates in a forked
    # process; its digests were recorded by a build that evaluated in-process.
    "run_forked_evaluator": (
        "rounds = 3\ndataset = synthetic(n_samples=12000, feature_dim=16, test_fraction=0.2)\n",
        ["run"], None),
    "run_file": (
        "dataset = file(train=train.csv, test=test.csv)\nn_clients = 4\nrounds = 4\n"
        "batch_size = 16\n", ["run"], _file_data),
    "suite": (
        SMALL + "rounds = 3\nn_clients = 4\nmu = 0.3\nmethods = fedavg, fedprox\n"
        "partitions = iid, shards(1)\nseeds = 1, 2\n", ["suite"], None),
    "inspect_partition": (
        SMALL + "partition = shards(2)\nseed = 4\n", ["inspect-partition"], None),
    "baseline": (SMALL + "rounds = 5\n", ["baseline"], None),
    "error_divergence": (SMALL + "learning_rate = 1e300\nrounds = 2\n", ["run"], None),
    "error_infeasible_partition": (
        "dataset = synthetic(n_samples=50)\npartition = shards(5)\n", ["run"], None),
    "error_duplicate_cell": (
        "methods = fedprox(0.3), fedprox(.3)\n", ["suite"], None),
    "error_not_utf8": (b"rounds = 5\n# caf\xe9\n", ["run"], None),
    "error_repeated_seeds": ("rounds = 1\n", ["suite", "--seeds", "1,1"], None),
}


def _line_digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:8]


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": [_line_digest(line) for line in data.split(b"\n")]}


def record(name: str, workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Run case ``name`` in ``workdir``: its exit status, and stdout, stderr
    and each file under ``workdir`` by relative path."""
    config, command, setup = CASES[name]
    old = Path.cwd()
    os.chdir(workdir)
    try:
        if setup is not None:
            setup()
        Path("exp.cfg").write_bytes(config if isinstance(config, bytes) else config.encode())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")  # main shows each one as a stderr line
            status = main([*command, "--config", "exp.cfg", "--out", "out"])
        files = {p.relative_to(workdir).as_posix(): p.read_bytes()
                 for p in sorted(workdir.rglob("*")) if p.is_file()}
    finally:
        os.chdir(old)
    return status, {"stdout": out.getvalue().encode(),
                    "stderr": err.getvalue().encode(), **files}


def digests(status: int, outputs: dict[str, bytes]) -> dict:
    return {"exit": status, "outputs": {what: _digest(data) for what, data in outputs.items()}}


def _first_difference(name: str, what: str, want: dict, text: bytes) -> str:
    got = text.split(b"\n")
    index = next((i for i, (a, b) in enumerate(zip(want["lines"], got))
                  if a != _line_digest(b)), min(len(want["lines"]), len(got)))
    line = got[index].decode(errors="replace") if index < len(got) else "<end of output>"
    return (f"{name}: {what} differs from the manifest first at line {index + 1} "
            f"({len(want['lines'])} lines pinned, {len(got)} written): {line!r}")


def _load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_case():
    assert sorted(_load()["commands"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden_digests(name, tmp_path):
    manifest = _load()
    if manifest["numpy"] != np.__version__:
        pytest.fail(f"golden digests were recorded under numpy {manifest['numpy']}, "
                    f"this is numpy {np.__version__}", pytrace=False)
    want = manifest["commands"][name]
    status, outputs = record(name, tmp_path)
    assert status == want["exit"], f"{name}: exit status {status}, pinned {want['exit']}"
    assert sorted(outputs) == sorted(want["outputs"]), f"{name}: another set of files"
    for what, data in outputs.items():
        if hashlib.sha256(data).hexdigest() != want["outputs"][what]["sha256"]:
            pytest.fail(_first_difference(name, what, want["outputs"][what], data),
                        pytrace=False)


def regenerate() -> None:
    """Rewrite the manifest from this checkout's outputs."""
    commands = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            commands[name] = digests(*record(name, Path(tmp).resolve()))
    MANIFEST.parent.mkdir(exist_ok=True)
    payload = {"numpy": np.__version__, "commands": commands}
    MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST.name}: {len(commands)} commands", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
