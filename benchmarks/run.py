"""Run one fedsim workload as a closed loop and print its metrics.

    python3 benchmarks/run.py --workload paper_grid --seed 0 --seconds 20 --trace 0

One process runs one unit at a time, with BLAS fixed at one thread, until
``--seconds`` have passed (at least one unit).  The inputs come from
``--seed`` alone.  Output checks run once the timing is over.  The last
line on stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  A record of the run, with its
environment, is written to ``.bench_out/`` at the repository root.
"""

import os

# Before numpy loads: OpenBLAS otherwise spins a second core on the
# per-round evaluation matmul, which makes wall and CPU time disagree.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hooks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_fedsim() -> None:
    """Import fedsim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fedsim
    except ImportError as exc:
        sys.exit(f"error: cannot import fedsim from {src}: {exc}")
    if not Path(fedsim.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: fedsim imported from {fedsim.__file__}, not from {src}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


@dataclass
class Unit:
    """What one timed unit left behind."""

    wall_s: float
    failed: int
    probe: object
    tracer: object


def run_unit(wl, out: Path, traced: bool, keep: bool) -> Unit:
    tracer = hooks.Tracer() if traced else None
    probe = hooks.Probe(keep=keep, tracer=tracer)
    patcher = hooks.Patcher()
    try:
        probe.install(patcher)
        if tracer is not None:
            tracer.install(patcher)
        t0 = perf_counter()
        failed = wl.unit(out)
        wall = perf_counter() - t0
    finally:
        patcher.restore()
    return Unit(wall, failed, probe, tracer)


def end_to_end(units: list[Unit], rss_mb: float) -> dict:
    rounds = [t for u in units for r in u.probe.runs for t in r.round_s]
    steps = sum(r.client_steps() for u in units for r in u.probe.runs)
    return {
        "setup_s": (median([u.probe.setup_s for u in units]), "s"),
        "wall_s": (median([u.wall_s for u in units]), "s"),
        "round_p50_ms": (percentile(rounds, 50) * 1e3, "ms"),
        "round_p90_ms": (percentile(rounds, 90) * 1e3, "ms"),
        "client_steps_per_s": (steps / sum(rounds) if rounds else 0.0, "steps/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(traced: list[Unit], plain: list[Unit]) -> dict:
    def med(f):
        return median([f(u.tracer) for u in traced])

    def total(layer):
        return med(lambda t: t.total[layer])

    def calls(layer):
        return med(lambda t: t.calls[layer])

    load_s = total("data.load_dataset")
    train_s = total("training.local_train")
    steps = med(lambda t: t.client_steps)
    return {
        "data.synthesize_s": (total("data.synthesize"), "s"),
        "data.partition_s": (total("data.partition"), "s"),
        "data.save_dataset_s": (total("data.save_dataset"), "s"),
        "data.load_dataset_s": (load_s, "s"),
        "data.load_mb_per_s": (med(lambda t: t.load_bytes) / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "config.load_s": (total("config.load"), "s"),
        "seeds.key_rng_calls": (calls("seeds.key_rng"), "count"),
        "seeds.key_rng_s": (total("seeds.key_rng"), "s"),
        "federation.select_s": (total("federation.select"), "s"),
        "federation.aggregate_s": (total("federation.aggregate"), "s"),
        "federation.round_self_s": (med(lambda t: t.self_time["federation.round"]), "s"),
        "training.local_train_calls": (calls("training.local_train"), "count"),
        "training.local_train_s": (train_s, "s"),
        "training.client_steps": (steps, "count"),
        "training.us_per_step": (train_s / steps * 1e6 if steps else 0.0, "us"),
        "evaluation.accuracy_calls": (calls("evaluation.accuracy"), "count"),
        "evaluation.accuracy_s": (total("evaluation.accuracy"), "s"),
        "cli.write_outputs_s": (total("cli.write_outputs"), "s"),
        "trace.wall_s": (median([u.wall_s for u in traced]), "s"),
        "trace.overhead_s": (median([u.wall_s for u in traced]) - median([u.wall_s for u in plain]), "s"),
        "trace.coverage": (median([u.tracer.covered_s / u.wall_s for u in traced]), "ratio"),
        "trace.absent_layers": (len(traced[0].tracer.absent), "count"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_fedsim()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    if env["blas_threads"] not in (1, None):
        sys.exit(f"error: BLAS runs {env['blas_threads']} threads, expected 1")

    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        # Warm-up on a tiny instance, so lazy imports and first-call costs
        # stay out of the first timed unit.
        (work / "tiny").mkdir()
        warm = cls(work / "tiny", args.seed, tiny=True)
        if warm.unit(work / "tiny" / "out"):
            sys.exit("error: the warm-up unit failed")
        wl = cls(work, args.seed)

        # With --trace 1, untraced and traced units alternate; the untraced
        # ones give the wall time the tracing overhead is measured against.
        units: list[Unit] = []
        digests = set()
        min_units = 2 if args.trace else 1
        # Start a unit only if a typical one still ends within --seconds, so
        # a run lasts about --seconds rather than up to one unit longer.
        deadline = perf_counter() + args.seconds
        while len(units) < min_units or perf_counter() + median([u.wall_s for u in units]) <= deadline:
            out = work / f"unit{len(units)}"
            gc.collect()  # each unit starts with the collector in the same state
            unit = run_unit(wl, out, traced=bool(args.trace) and len(units) % 2 == 1, keep=not units)
            units.append(unit)
            if len(units) == 1:
                # The high-water mark of input generation, warm-up and one unit;
                # later units would add allocator fragmentation that grows with
                # the number of units, not with the program.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not unit.failed:
                digests.add(wl.digest(out))
            if len(units) > 1:
                shutil.rmtree(out, ignore_errors=True)

        problems = []
        if len(digests) > 1:
            problems.append("repeated units wrote different outputs from the same inputs")
        if units[0].failed == 0:
            try:
                wl.check(work / "unit0", units[0].probe.runs)
            except checks.CheckError as exc:
                problems.append(str(exc))
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        plain = [u for u in units if u.tracer is None]
        traced = [u for u in units if u.tracer is not None]
        metrics = per_layer(traced, plain) if args.trace else end_to_end(plain, rss_mb)
        if args.trace:
            for layer in traced[0].tracer.absent:
                print(f"trace: layer {layer} is absent, its metrics read 0", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": wl.ops_per_unit * len(units),
        "failed": sum(u.failed for u in units),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, units=len(units), unit_wall_s=[u.wall_s for u in units],
                  rounds_timed=sum(len(r.round_s) for u in plain for r in u.probe.runs),
                  environment=env)
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
