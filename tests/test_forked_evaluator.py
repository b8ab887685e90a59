"""A run's forked evaluator: the same reports, results and errors as in-process.

A run whose test features reach ``federation._EVAL_FORK_BYTES`` evaluates in
a forked process while the next round trains.  Each test patches that floor
to 0 or to above any test set and compares the two runs bit for bit.
"""

import errno
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fedsim.federation
from fedsim.cli import main
from fedsim.config import ExperimentConfig, SyntheticData
from fedsim.data import generate_synthetic
from fedsim.federation import ExperimentData, prepare_experiment, run_federation
from fedsim.training import DivergenceError

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the evaluator needs sched_getaffinity and the fork start method",
)

SRC = Path(fedsim.federation.__file__).resolve().parent.parent
NEVER = 1 << 62  # more feature bytes than any test set holds


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def started(monkeypatch):
    """A list that gains what each call of the evaluator's process starter returned."""
    procs = []
    start = fedsim.federation._start_process

    def counting(*args):
        procs.append(start(*args))
        return procs[-1]

    monkeypatch.setattr(fedsim.federation, "_start_process", counting)
    return procs


def config(**overrides):
    base = dict(rounds=6, n_clients=6, fraction=0.5, batch_size=16, learning_rate=0.05,
                dataset=SyntheticData(n_samples=600, n_classes=4, feature_dim=8,
                                      separation=1.0, test_fraction=0.3))
    return ExperimentConfig(**{**base, **overrides})


def bits(result):
    """Every number a run returns, as exact bytes or float hex."""
    rounds = [(r.round_index, r.selected_clients, [v.hex() for v in r.client_losses],
               r.test_accuracy.hex()) for r in result.history]
    params = result.final_state.global_params
    return (rounds, params.weights.tobytes(), params.bias.tobytes(),
            result.final_state.round_index, result.final_accuracy.hex())


def run_at(monkeypatch, floor, cfg, data=None, progress=None):
    monkeypatch.setattr(fedsim.federation, "_EVAL_FORK_BYTES", floor)
    return run_federation(cfg, data, progress)


@pytest.mark.parametrize("method", ["fedavg", "fedprox"])
@pytest.mark.parametrize("partition", ["iid", "shards"])
def test_forked_evaluation_matches_in_process_bit_for_bit(monkeypatch, cpus, started,
                                                          method, partition):
    cfg = config(method=method, mu=0.3 if method == "fedprox" else 0.0,
                 partition_mode=partition)
    data = prepare_experiment(cfg)
    cpus(2)
    want = run_at(monkeypatch, NEVER, cfg, data)
    assert started == []
    got = run_at(monkeypatch, 0, cfg, data)
    assert len(started) == 1 and started[0] is not None
    assert bits(got) == bits(want)
    assert type(got.final_accuracy) is float
    assert len({r.test_accuracy for r in got.history}) > 1  # not one value throughout


@pytest.mark.parametrize("floor", [0, NEVER], ids=["forked", "in-process"])
def test_progress_reports_each_round_once_in_order_before_the_run_returns(
        monkeypatch, cpus, floor):
    # Round r is reported once round r + 1 has trained, before round r + 2 does.
    cpus(2)
    train, trained, seen = fedsim.federation._train_cohort, [], []

    def counting(*args):
        trained.append(None)
        return train(*args)

    monkeypatch.setattr(fedsim.federation, "_train_cohort", counting)
    result = run_at(monkeypatch, floor, config(),
                    progress=lambda report: seen.append((report, len(trained))))
    assert [(r.round_index, n) for r, n in seen] == [(r, min(r + 2, 6)) for r in range(6)]
    assert tuple(r for r, _ in seen) == result.history


def diverge_at(monkeypatch, round_index):
    train = fedsim.federation._train_cohort
    calls = []

    def diverging(*args):
        calls.append(None)
        if len(calls) > round_index:
            raise DivergenceError("client 1, epoch 1: local training diverged")
        return train(*args)

    monkeypatch.setattr(fedsim.federation, "_train_cohort", diverging)
    return calls


def test_a_diverging_round_raises_after_the_same_reports(monkeypatch, cpus, started):
    cpus(2)
    calls = diverge_at(monkeypatch, 3)
    outcomes = []
    for floor in (NEVER, 0):
        seen = []
        calls.clear()
        with pytest.raises(ValueError) as exc:
            run_at(monkeypatch, floor, config(), progress=seen.append)
        outcomes.append((str(exc.value), [(r.round_index, r.test_accuracy.hex()) for r in seen]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "round 3, client 1, epoch 1: local training diverged"
    assert [r for r, _ in outcomes[0][1]] == [0, 1, 2]
    assert len(started) == 1 and started[0] is not None


@pytest.mark.parametrize("floor", [0, NEVER], ids=["forked", "in-process"])
def test_an_exception_in_progress_propagates(monkeypatch, cpus, floor):
    cpus(2)

    def stop(report):
        if report.round_index == 2:
            raise KeyError("stop here")

    with pytest.raises(KeyError, match="stop here"):
        run_at(monkeypatch, floor, config(), progress=stop)


def kill_the_evaluator(report):
    # Killed after round 2's report, the process has round 3's parameters
    # unread; round 4's write then finds the pipe closed.
    if report.round_index == 2:
        (proc,) = multiprocessing.active_children()
        proc.kill()
        proc.join(10)
        assert not proc.is_alive()


def fail_in_the_child(monkeypatch):
    # The process fails its first evaluation after the parent has written
    # round 1's parameters, so the parent reads an end of input.
    parent, accuracy = os.getpid(), fedsim.federation.accuracy

    def failing(*args):
        if os.getpid() != parent:
            time.sleep(0.5)
            raise MemoryError
        return accuracy(*args)

    monkeypatch.setattr(fedsim.federation, "accuracy", failing)


def refuse_to_start(self):
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("how", ["killed", "failed", "cannot start"])
def test_a_failed_evaluator_is_finished_in_process(monkeypatch, cpus, started, how):
    cpus(2)
    cfg = config()
    data = prepare_experiment(cfg)
    want = run_at(monkeypatch, NEVER, cfg, data)
    progress = None
    if how == "killed":
        progress = kill_the_evaluator
    elif how == "failed":
        fail_in_the_child(monkeypatch)
    else:
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse_to_start)
    assert bits(run_at(monkeypatch, 0, cfg, data, progress)) == bits(want)
    assert (started[0] is None) == (how == "cannot start")
    if how == "failed":
        assert started[0].exitcode == 255


def test_a_test_set_that_does_not_fit_the_model_fails_as_in_process(monkeypatch, cpus, started):
    # The process reads the model's C*d + C floats, not the test set's, and
    # its failure leaves the error to the in-process evaluation.
    cpus(2)
    cfg = config()
    data = prepare_experiment(cfg)
    test = generate_synthetic(200, 5, 8, 1.0, 3)
    data = ExperimentData(data.train, test, data.splits)
    errors = []
    for floor in (NEVER, 0):
        with pytest.raises(ValueError) as exc:
            run_at(monkeypatch, floor, cfg, data)
        errors.append(str(exc.value))
    assert errors == ["dataset has 5 classes but parameters cover 4"] * 2
    assert started[0].exitcode == 255


def cli_run(tmp_path, capfd, name):
    out = tmp_path / name
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rounds = 4\nfraction = 0.5\ndataset = synthetic(n_samples=600, "
                   "n_classes=4, feature_dim=8, separation=1.0)\n", encoding="utf-8")
    status = main(["run", "--config", str(cfg), "--out", str(out)])
    stdout, stderr = capfd.readouterr()
    return status, stdout, stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_a_failed_evaluator_gives_the_command_line_no_error(monkeypatch, tmp_path, capfd,
                                                             cpus, started):
    cpus(2)
    monkeypatch.setattr(fedsim.federation, "_EVAL_FORK_BYTES", NEVER)
    want = cli_run(tmp_path, capfd, "in-process")
    monkeypatch.setattr(fedsim.federation, "_EVAL_FORK_BYTES", 0)
    fail_in_the_child(monkeypatch)
    assert cli_run(tmp_path, capfd, "forked") == want
    assert want[0] == 0 and started[0].exitcode == 255


def test_zero_rounds_and_one_cpu_evaluate_in_process(monkeypatch, cpus, started):
    cpus(1)
    run_at(monkeypatch, 0, config())
    cpus(2)
    result = run_at(monkeypatch, 0, config(rounds=0))
    assert started == []
    assert result.history == () and result.final_accuracy == 0.25


def test_the_floor_forks_a_test_set_at_it_and_not_one_below(monkeypatch, cpus, started):
    cpus(2)
    cfg = config(rounds=1)
    data = prepare_experiment(cfg)
    run_at(monkeypatch, data.test.features.nbytes + 1, cfg, data)
    assert started == []
    run_at(monkeypatch, data.test.features.nbytes, cfg, data)
    assert len(started) == 1


# Runs an above-floor federation; prints its numbers as JSON, and whether it
# forked an evaluator and left any process behind.
SCRIPT = """
import json, multiprocessing, os, sys
import fedsim.federation as F
from fedsim.config import ExperimentConfig, SyntheticData
os.sched_getaffinity = lambda pid: {0, 1}
cfg = ExperimentConfig(rounds=8, n_clients=10, fraction=0.3, learning_rate=0.05,
                       dataset=SyntheticData(n_samples=12000, n_classes=4, feature_dim=16,
                                             separation=1.0, test_fraction=0.2))
assert F.prepare_experiment(cfg).test.features.nbytes >= F._EVAL_FORK_BYTES
if sys.argv[1] == "in-process":
    F._EVAL_FORK_BYTES = 1 << 62
start, started = F._start_process, []
F._start_process = lambda *a: started.append(start(*a)) or started[-1]
result = F.run_federation(cfg)
print(json.dumps({
    "rounds": [[r.selected_clients, [v.hex() for v in r.client_losses], r.test_accuracy.hex()]
               for r in result.history],
    "final": [result.final_state.global_params.weights.tobytes().hex(),
              result.final_accuracy.hex()],
    "forked": [p is not None for p in started],
    "left": len(multiprocessing.active_children()),
}))
"""


def run_script(mode, blas_threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", SCRIPT, mode], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_a_threaded_blas_forks_an_evaluator_that_matches_one_thread_in_process():
    # A BLAS thread pool that exists when the process forks must not hang
    # the child or change its numbers.
    want = run_script("in-process", "1")
    got = run_script("forked", "2")
    assert (want["forked"], want["left"]) == ([], 0)
    assert (got["forked"], got["left"]) == ([True], 0)
    assert got["rounds"] == want["rounds"] and got["final"] == want["final"]
    assert len(got["rounds"]) == 8
