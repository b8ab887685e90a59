"""Timing hooks put around fedsim's public functions from outside the package.

Nothing under ``src/`` knows about the benchmark.  A hook replaces a function
in every loaded ``fedsim`` module that holds it (so ``from .x import f``
copies are covered too) and puts the original back afterwards.

* ``Probe`` is installed on every run.  It times config loading and
  ``prepare_experiment`` (the set-up before the first round), and passes a
  ``progress`` callback to ``run_federation`` that stamps the end of each
  round.  It also keeps what the output checks need from each federated run.
* ``Tracer`` is installed only on traced units.  It keeps one span per call
  into each layer on a stack, so a span's self time is its duration minus
  that of its child spans.  A layer whose function no longer exists is
  reported absent; the rest of the run is unaffected.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# Layer name -> the (module, function) pairs whose calls make up its spans.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "config.load": (("fedsim.config", "load_config"),),
    "data.synthesize": (("fedsim.data", "synthetic_train_test"),),
    "data.partition": (
        ("fedsim.data", "partition_iid"),
        ("fedsim.data", "partition_shards"),
    ),
    "data.save_dataset": (("fedsim.data", "save_dataset"),),
    "data.load_dataset": (("fedsim.data", "load_dataset"),),
    "seeds.key_rng": (("fedsim.seeds", "key_rng"),),
    "federation.select": (("fedsim.federation", "select_clients"),),
    "training.local_train": (("fedsim.training", "local_train"),),
    "federation.aggregate": (("fedsim.federation", "aggregate"),),
    "evaluation.accuracy": (("fedsim.evaluation", "accuracy"),),
    "cli.write_outputs": (("fedsim.cli", "_write_run_outputs"),),
}
ROUND = "federation.round"


class Patcher:
    """Replaces functions across the fedsim modules and restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_wrapper) -> bool:
        """Wrap ``module.attr`` wherever fedsim holds it; False if it is gone."""
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            return False
        wrapper = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "fedsim" or name.startswith("fedsim.")) and getattr(
                mod, attr, None
            ) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
        return True

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()


@dataclass
class FedRun:
    """One ``run_federation`` call as seen from outside."""

    cfg: object
    round_s: list[float] = field(default_factory=list)
    selected: list[tuple[int, ...]] = field(default_factory=list)
    split_sizes: list[int] = field(default_factory=list)
    # Kept for the output checks on the first unit only.
    data: object = None
    result: object = None

    def client_steps(self) -> int:
        """Local SGD steps: epochs * ceil(n_i / batch) per selected client."""
        epochs, batch = self.cfg.local_epochs, self.cfg.batch_size
        return sum(
            epochs * math.ceil(self.split_sizes[c] / batch)
            for ids in self.selected
            for c in ids
        )


class Probe:
    """End-to-end hooks: set-up time, per-round latency, run captures."""

    def __init__(self, keep: bool, tracer: "Tracer | None" = None) -> None:
        self.keep = keep
        self.tracer = tracer
        self.setup_s = 0.0
        self.runs: list[FedRun] = []
        self._prepared = None

    def install(self, patcher: Patcher) -> None:
        for module, attr, make in (
            ("fedsim.config", "load_config", self._timed_setup),
            ("fedsim.federation", "prepare_experiment", self._timed_prepare),
            ("fedsim.federation", "run_federation", self._hooked_run),
        ):
            if not patcher.replace(module, attr, make):
                raise RuntimeError(f"{module}.{attr} not found; cannot time set-up")

    def _timed_setup(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += perf_counter() - t0

        return timed

    def _timed_prepare(self, fn):
        timed = self._timed_setup(fn)

        @functools.wraps(fn)
        def prepare(*args, **kwargs):
            self._prepared = timed(*args, **kwargs)
            return self._prepared

        return prepare

    def _hooked_run(self, fn):
        sig = inspect.signature(fn)
        tracer = self.tracer

        @functools.wraps(fn)
        def run(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            user_cb = bound.arguments.get("progress")
            cfg = bound.arguments["cfg"]
            rec = FedRun(cfg)
            last = [0.0]

            def progress(report):
                now = perf_counter()
                rec.round_s.append(now - last[0])
                last[0] = now
                rec.selected.append(tuple(report.selected_clients))
                if tracer is not None:
                    tracer.round_boundary()
                if user_cb is not None:
                    user_cb(report)

            bound.arguments["progress"] = progress
            if tracer is not None:
                tracer.round_open()
            last[0] = perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                if tracer is not None:
                    tracer.round_discard()
            data = bound.arguments.get("data") or self._prepared
            self._prepared = None
            rec.split_sizes = [int(s.n_samples) for s in data.splits]
            if self.keep:
                rec.data, rec.result = data, result
            self.runs.append(rec)
            return result

        return run


class Tracer:
    """Per-layer spans: calls, inclusive time and self time per layer."""

    def __init__(self) -> None:
        # Each frame holds the time its child spans took; frame 0 is the unit.
        self.stack: list[list[float]] = [[0.0]]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.client_steps = 0
        self.load_bytes = 0
        self.absent: list[str] = []
        self._round_t0 = 0.0

    def install(self, patcher: Patcher) -> None:
        counters = {
            "training.local_train": self._count_steps,
            "data.load_dataset": self._count_bytes,
        }
        for layer, targets in LAYERS.items():
            found = False
            for module, attr in targets:
                found |= patcher.replace(
                    module, attr, functools.partial(self._wrap, layer, counters.get(layer))
                )
            if not found:
                self.absent.append(layer)

    @property
    def covered_s(self) -> float:
        """Time inside top-level layer spans (those with no layer above them)."""
        return self.stack[0][0]

    def _close(self, name: str, t0: float) -> None:
        dur = perf_counter() - t0
        frame = self.stack.pop()
        self.stack[-1][0] += dur
        self.total[name] += dur
        self.self_time[name] += dur - frame[0]
        self.calls[name] += 1

    def _wrap(self, layer: str, count, fn):
        stack = self.stack
        if count is not None:
            count = count(inspect.signature(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            stack.append([0.0])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, t0)

        return traced

    def _count_steps(self, sig):
        def count(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            h = bound.arguments["h"]
            n = int(bound.arguments["split"].n_samples)
            self.client_steps += h.local_epochs * math.ceil(n / h.batch_size)

        return count

    def _count_bytes(self, sig):
        def count(args, kwargs):
            self.load_bytes += os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])

        return count

    # A round span runs from the start of run_federation, or the previous
    # round's progress callback, to this round's callback.
    def round_open(self) -> None:
        self.stack.append([0.0])
        self._round_t0 = perf_counter()

    def round_boundary(self) -> None:
        self._close(ROUND, self._round_t0)
        self.round_open()

    def round_discard(self) -> None:
        """Drop the span opened after the last round; keep its children's time."""
        frame = self.stack.pop()
        self.stack[-1][0] += frame[0]
