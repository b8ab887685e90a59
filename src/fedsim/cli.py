"""Command-line interface: run, suite, inspect-partition, baseline.

Data goes to files under --out (and result lines to stdout); progress and
errors go to stderr, so output files and logs never interleave.  All outputs
are pure functions of the config file: rerunning a command with the same
config reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from .config import (
    ConfigError,
    ExperimentConfig,
    Sweep,
    config_fingerprint,
    config_to_dict,
    load_config,
    parse_seed_list,
)
from .data import (atomic_write, format_float, label_distribution,
                   save_label_distribution, save_partition)
from .evaluation import accuracy, centralized_train, summarize_accuracies
from .federation import (
    ExperimentData,
    FederationResult,
    RoundReport,
    build_datasets,
    prepare_experiment,
    prepare_suite,
    run_federation,
)

__all__ = ["cmd_baseline", "cmd_inspect_partition", "cmd_run", "cmd_suite", "entry", "main"]


def _log(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg, file=sys.stderr)


def _progress(quiet: bool, total: int) -> Callable[[RoundReport], None] | None:
    if quiet:
        return None

    def report(rep: RoundReport) -> None:
        done = rep.round_index + 1
        if done % 10 == 0 or done == total:
            print(
                f"round {done}/{total}: accuracy={rep.test_accuracy:.4f}",
                file=sys.stderr,
            )

    return report


def write_rounds_csv(history: Sequence[RoundReport], path: Path) -> None:
    """One row per round; selected ids joined by ';', floats at 17 digits."""
    with atomic_write(path) as f:
        f.write("round_index,selected_clients,mean_client_loss,test_accuracy\n")
        for rep in history:
            ids = ";".join(str(c) for c in rep.selected_clients)
            mean_loss = sum(rep.client_losses) / len(rep.client_losses)
            f.write(
                f"{rep.round_index},{ids},{format_float(mean_loss)},"
                f"{format_float(rep.test_accuracy)}\n"
            )


def _write_json(payload: dict, path: Path) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_run_outputs(
    cfg: ExperimentConfig,
    data: ExperimentData,
    result: FederationResult,
    out: Path,
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(result.history, out / "rounds.csv")
    save_label_distribution(data.train, list(data.splits), out / "labels.csv")
    _write_json(
        {
            "config": config_to_dict(cfg),
            "config_fingerprint": config_fingerprint(cfg),
            "final_accuracy": result.final_accuracy,
            "rounds_completed": len(result.history),
            "n_train": data.train.n_samples,
            "n_test": data.test.n_samples,
        },
        out / "summary.json",
    )


def cmd_run(cfg: ExperimentConfig, out: Path, quiet: bool = False) -> int:
    """Train one configuration; write rounds.csv, labels.csv, summary.json."""
    data = prepare_experiment(cfg)
    _log(quiet, f"run: {cfg.method_token()} {cfg.partition_token()} seed={cfg.seed}")
    result = run_federation(cfg, data, _progress(quiet, cfg.rounds))
    _write_run_outputs(cfg, data, result, out)
    print(f"final_accuracy={format_float(result.final_accuracy)}")
    return 0


def _slug(token: str) -> str:
    return token.replace("(", "-").replace(")", "").replace(",", "_").replace(" ", "")


def cmd_suite(cfg: ExperimentConfig, sweep: Sweep, out: Path, quiet: bool = False) -> int:
    """Sweep methods x partitions across seeds; write per-run dirs + table.csv.

    The sweep's method and partition lists fall back to the config's own
    (see config.suite_cells).  Every run is prepared before the first one
    trains, so an invalid cell, or an ``out`` whose suite.json records
    another sweep, writes nothing.  suite.json is written before the
    first run trains, and a run's error names its cell and seed.  Each run
    writes the same files as ``run`` under out/<combo>/seed_<s>/.
    """
    suite = prepare_suite(cfg, sweep)
    meta = {
        "config_fingerprint": config_fingerprint(cfg),
        "seeds": [int(s) for s in sweep.seeds],
        "std_convention": "sample (ddof=1)",
        "methods": list(dict.fromkeys(mt for mt, _, _ in suite)),
        "partitions": list(dict.fromkeys(pt for _, pt, _ in suite)),
    }
    record = out / "suite.json"
    try:  # a rerun may only overwrite the sweep it repeats
        old = json.loads(record.read_text(encoding="utf-8")) if record.exists() else meta
        same = all(old[k] == meta[k] for k in ("methods", "partitions", "seeds"))
    except (ValueError, KeyError, TypeError):
        same = False
    if not same:
        raise ValueError(f"{record}: holds another sweep's methods, partitions or "
                         "seeds; write this one to a new --out")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(meta, record)  # before any run, so a failed sweep is still guarded
    rows: list[tuple[str, str, float, float]] = []
    for mt, pt, runs in suite:
        accs: list[float] = []
        for rcfg, data in runs:
            _log(quiet, f"suite: {mt} {pt} seed={rcfg.seed}")
            try:
                result = run_federation(rcfg, data)
            except ValueError as exc:
                raise ValueError(f"{mt} {pt} seed={rcfg.seed}: {exc}") from None
            run_dir = out / f"{_slug(mt)}_{_slug(pt)}" / f"seed_{rcfg.seed}"
            _write_run_outputs(rcfg, data, result, run_dir)
            accs.append(result.final_accuracy)
        mean, std = summarize_accuracies(accs)
        rows.append((mt, pt, mean, std))
        print(f"{mt} {pt}: mean={mean:.4f} std={std:.4f}")
    with atomic_write(out / "table.csv") as f:
        f.write("method,partition,mean_accuracy,std\n")
        for mt, pt, mean, std in rows:
            f.write(f"{mt},{pt},{format_float(mean)},{format_float(std)}\n")
    return 0


def cmd_inspect_partition(cfg: ExperimentConfig, out: Path, quiet: bool = False) -> int:
    """Print per-client label histograms without training; write labels.csv."""
    data = prepare_experiment(cfg)
    print("client_id n_samples distinct_labels label_counts")
    for split in data.splits:
        counts = label_distribution(data.train, split)
        distinct = int((counts > 0).sum())
        joined = ",".join(str(int(v)) for v in counts)
        print(f"{split.client_id} {split.n_samples} {distinct} [{joined}]")
    out.mkdir(parents=True, exist_ok=True)
    save_label_distribution(data.train, list(data.splits), out / "labels.csv")
    save_partition(list(data.splits), out / "partition.txt")
    return 0


def cmd_baseline(
    cfg: ExperimentConfig, out: Path, quiet: bool = False
) -> int:
    """Train the pooled-data baseline with the config's hyperparameters.

    The epoch budget is rounds * local_epochs, the local-pass count a client
    selected every round would see.
    """
    train, test = build_datasets(cfg)
    epochs = cfg.rounds * cfg.local_epochs
    _log(quiet, f"baseline: {epochs} epochs on {train.n_samples} pooled samples")
    acc = accuracy(centralized_train(train, cfg, epochs), test)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        {
            "accuracy": acc,
            "epochs": epochs,
            "config": config_to_dict(cfg),
            "config_fingerprint": config_fingerprint(cfg),
        },
        out / "baseline.json",
    )
    print(f"centralized_accuracy={format_float(acc)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Federated-averaging simulator over partitioned data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key = value config")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--quiet", action="store_true", help="suppress progress logs")

    common(sub.add_parser("run", help="train one federated configuration"))
    suite = sub.add_parser("suite", help="sweep methods x partitions over seeds")
    common(suite)
    suite.add_argument("--seeds", help="comma list overriding the config's seeds")
    common(
        sub.add_parser(
            "inspect-partition", help="show per-client label histograms, no training"
        )
    )
    common(sub.add_parser("baseline", help="train the centralized pooled baseline"))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    with warnings.catch_warnings():  # a shown warning is one line; the filters stay
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            cfg, sweep = load_config(args.config)  # only the suite reads the sweep
            if args.command == "run":
                return cmd_run(cfg, out, args.quiet)
            if args.command == "suite":
                if args.seeds is not None:
                    sweep = replace(sweep, seeds=parse_seed_list("seeds", args.seeds))
                return cmd_suite(cfg, sweep, out, args.quiet)
            if args.command == "inspect-partition":
                return cmd_inspect_partition(cfg, out, args.quiet)
            return cmd_baseline(cfg, out, args.quiet)
        except (ConfigError, ValueError, OSError, Warning) as exc:  # a warning under "error"
            print(f"error: {exc}", file=sys.stderr)
            return 1


def entry() -> None:
    sys.exit(main())
