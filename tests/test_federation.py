"""Client selection, aggregation, rounds, and full federated runs."""

from dataclasses import replace

import numpy as np
import pytest

import fedsim.federation
import fedsim.seeds
from fedsim.config import ExperimentConfig, FileData, Sweep, SyntheticData
from fedsim.data import ClientSplit, save_dataset, synthetic_train_test
from fedsim.evaluation import accuracy
from fedsim.federation import (
    aggregate,
    build_datasets,
    prepare_experiment,
    prepare_suite,
    run_federation,
    select_clients,
)
from fedsim.model import ParamVector
from fedsim.training import train_cohort
from oracles import (left_to_right_mean, max_abs_diff, rand_params, same_params,
                     scalar_weighted_mean, stack_params)


def tiny_config(**overrides):
    base = dict(
        rounds=3,
        n_clients=4,
        fraction=0.5,
        batch_size=16,
        dataset=SyntheticData(
            n_samples=200, n_classes=4, feature_dim=8, separation=6.0, test_fraction=0.2
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_select_clients_count_rounds_half_up():
    assert len(select_clients(10, 0.5, 0, 0)) == 5
    assert len(select_clients(8, 0.25, 0, 0)) == 2
    assert len(select_clients(10, 0.25, 0, 0)) == 3  # floor(2.5 + 0.5)
    assert len(select_clients(3, 0.5, 0, 0)) == 2  # floor(1.5 + 0.5)
    assert select_clients(10, 1.0, 0, 0) == list(range(10))


def test_select_clients_sorted_unique_in_range():
    for r in range(20):
        chosen = select_clients(12, 0.4, 7, r)
        assert chosen == sorted(chosen)
        assert len(set(chosen)) == len(chosen)
        assert all(0 <= c < 12 for c in chosen)


def test_select_clients_deterministic_per_round():
    a = select_clients(10, 0.5, 3, 17)
    b = select_clients(10, 0.5, 3, 17)
    assert a == b
    rounds = {tuple(select_clients(10, 0.5, 3, r)) for r in range(30)}
    assert len(rounds) > 1


def test_select_clients_errors():
    with pytest.raises(ValueError, match="n_clients"):
        select_clients(0, 0.5, 0, 0)
    with pytest.raises(ValueError, match="fraction"):
        select_clients(10, 0.0, 0, 0)
    with pytest.raises(ValueError, match="fraction"):
        select_clients(10, 1.2, 0, 0)
    with pytest.raises(ValueError, match="rounds to zero"):
        select_clients(10, 0.04, 0, 0)


def test_selection_frequency_is_roughly_uniform():
    counts = np.zeros(10)
    for r in range(200):
        for c in select_clients(10, 0.5, 5, r):
            counts[c] += 1
    freq = counts / 200
    assert freq.min() > 0.35
    assert freq.max() < 0.65


def test_aggregate_two_clients_closed_form():
    rng = np.random.default_rng(1)
    a = rand_params(rng, 3, 4)
    b = rand_params(rng, 3, 4)
    weights, bias = stack_params(a, b)
    out = aggregate(weights, bias, [1, 3], "datasize")
    assert np.array_equal(out.weights, 0.25 * a.weights + 0.75 * b.weights)
    assert np.array_equal(out.bias, 0.25 * a.bias + 0.75 * b.bias)
    uniform = aggregate(weights, bias, [1, 3], "uniform")
    assert np.array_equal(uniform.weights, 0.5 * a.weights + 0.5 * b.weights)


def test_aggregate_equal_sizes_make_weightings_agree():
    rng = np.random.default_rng(2)
    weights, bias = rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 2))
    assert same_params(
        aggregate(weights, bias, [5] * 4, "datasize"),
        aggregate(weights, bias, [5] * 4, "uniform"),
    )


def test_aggregate_single_update_is_identity():
    rng = np.random.default_rng(3)
    p = rand_params(rng, 2, 3)
    weights, bias = stack_params(p)
    assert same_params(aggregate(weights, bias, [9], "datasize"), p)
    assert same_params(aggregate(weights, bias, [9], "uniform"), p)


def test_aggregate_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(1, 11))
        weights, bias = rng.normal(size=(k, 3, 4)), rng.normal(size=(k, 3))
        n = rng.integers(1, 100, size=k).tolist()
        for weighting in ("datasize", "uniform"):
            got = aggregate(weights, bias, n, weighting)
            want = scalar_weighted_mean(weights, bias, n, weighting)
            assert max_abs_diff(got, want) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 3), (3, 4)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("height", [1, 2, 3, 8, 9, 17, 64, 129, 200])
def test_aggregate_sums_rows_left_to_right_bit_for_bit(height, shape):
    # Stacks mix magnitudes, so any other summation order shows in the last
    # bits; whole -0.0 columns check the sign of a zero sum.  Rows of one
    # entry, (1, 1), are the shape numpy would sum pairwise on its own.
    rng = np.random.default_rng(height * 10 + shape[1])
    size = (height, *shape)
    scale = rng.choice([1e-8, 1.0, 1e8, 0.0], size=size)
    weights = rng.normal(size=size) * scale
    bias = rng.normal(size=size[:2]) * scale[..., 0]
    weights[:, 0, 0] = -0.0
    n = rng.integers(1, 500, size=height).tolist()
    for weighting in ("datasize", "uniform"):
        got = aggregate(weights, bias, n, weighting)
        want = left_to_right_mean(weights, bias, n, weighting)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def test_aggregate_permutation_invariant_within_tolerance():
    rng = np.random.default_rng(5)
    weights, bias = rng.normal(size=(7, 3, 4)), rng.normal(size=(7, 3))
    n = rng.integers(1, 50, size=7)
    base = aggregate(weights, bias, n, "datasize")
    perm = rng.permutation(7)
    permuted = aggregate(weights[perm], bias[perm], n[perm], "datasize")
    assert max_abs_diff(base, permuted) < 1e-12


def test_aggregate_errors():
    rng = np.random.default_rng(6)
    weights, bias = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2))
    with pytest.raises(ValueError, match="at least one row"):
        aggregate(weights[:0], bias[:0], [], "datasize")
    with pytest.raises(ValueError, match="weighting"):
        aggregate(weights, bias, [1, 1], "mean")
    for bad_bias, n in [(bias[:1], [1, 1]), (bias[:, :1], [1, 1]), (bias, [1])]:
        with pytest.raises(ValueError, match="do not agree"):
            aggregate(weights, bad_bias, n, "uniform")
    with pytest.raises(ValueError, match=r"n_samples must be >= 1, got 0"):
        aggregate(weights, bias, [3, 0], "datasize")


def one_round(cfg, data):
    """The one report and final parameters of a one-round run of ``cfg``."""
    res = run_federation(replace(cfg, rounds=1), data)
    return res.history[0], res.final_state.global_params


def test_one_round_at_tiny_learning_rate_stays_at_global_params():
    # learning_rate must be > 0.  At 1e-300, six steps on features below 15
    # in size move no coordinate further than 1e-296 from the zero start.
    cfg = tiny_config(learning_rate=1e-300)
    data = prepare_experiment(cfg)
    assert np.abs(data.train.features).max() < 15
    report, params = one_round(cfg, data)
    assert np.abs(params.weights).max() < 1e-296
    assert np.abs(params.bias).max() < 1e-296
    assert report.round_index == 0
    assert list(report.selected_clients) == select_clients(4, 0.5, cfg.seed, 0)
    assert len(report.client_losses) == len(report.selected_clients)
    assert 0.0 <= report.test_accuracy <= 1.0


def test_one_round_matches_clients_trained_alone():
    # Full participation over clients of unequal sizes with ragged final
    # batches: the round's losses and average are those of solo training.
    cfg = tiny_config(n_clients=6, fraction=1.0, partition_mode="shards")
    data = prepare_experiment(cfg)
    assert len({s.n_samples for s in data.splits}) > 1
    report, params = one_round(cfg, data)
    zeros = ParamVector.zeros(4, 8)
    alone = [train_cohort(zeros, data.train, [s], cfg) for s in data.splits]
    assert report.client_losses == tuple(float(losses[0]) for _, _, losses in alone)
    weights = np.concatenate([w for w, _, _ in alone])
    bias = np.concatenate([b for _, b, _ in alone])
    assert same_params(params, aggregate(weights, bias, [s.n_samples for s in data.splits]))


def test_one_round_client_losses_do_not_depend_on_cohort():
    cfg = tiny_config(n_clients=6)
    data = prepare_experiment(cfg)
    full, _ = one_round(replace(cfg, fraction=1.0), data)
    half, _ = one_round(cfg, data)
    by_client = dict(zip(full.selected_clients, full.client_losses))
    assert len(half.selected_clients) == 3
    assert half.client_losses == tuple(by_client[c] for c in half.selected_clients)


def test_run_federation_deterministic():
    cfg = tiny_config()
    a = run_federation(cfg)
    b = run_federation(cfg)
    assert a.history == b.history
    assert same_params(a.final_state.global_params, b.final_state.global_params)
    assert a.final_accuracy == b.final_accuracy


def test_run_federation_round_reports_are_sequential():
    cfg = tiny_config(rounds=5)
    res = run_federation(cfg)
    assert [r.round_index for r in res.history] == list(range(5))
    assert res.final_state.round_index == 5
    assert res.final_accuracy == res.history[-1].test_accuracy


def test_run_federation_zero_rounds_scores_initial_params():
    cfg = tiny_config(rounds=0)
    data = prepare_experiment(cfg)
    res = run_federation(cfg, data)
    assert res.history == ()
    zeros = ParamVector.zeros(data.train.n_classes, data.train.feature_dim)
    assert res.final_accuracy == accuracy(zeros, data.test)


def test_run_federation_accepts_prepared_data():
    cfg = tiny_config()
    data = prepare_experiment(cfg)
    implicit = run_federation(cfg)
    explicit = run_federation(cfg, data)
    assert implicit.history == explicit.history


def test_a_split_out_of_range_fails_the_run_before_round_0_even_if_never_selected():
    cfg = tiny_config(rounds=1)
    data = prepare_experiment(cfg)
    chosen = select_clients(cfg.n_clients, cfg.fraction, cfg.seed, 0)
    idle = min(set(range(cfg.n_clients)) - set(chosen))
    n = data.train.n_samples
    splits = list(data.splits)
    splits[idle] = ClientSplit(idle, np.array([0, n]))
    seen = []
    with pytest.raises(ValueError, match=f"^client {idle}: index {n} out of range for {n} samples$"):
        run_federation(cfg, replace(data, splits=tuple(splits)), progress=seen.append)
    assert seen == []


def test_run_federation_progress_callback():
    cfg = tiny_config(rounds=4)
    seen = []
    run_federation(cfg, progress=seen.append)
    assert [r.round_index for r in seen] == [0, 1, 2, 3]


def test_prepare_experiment_partitions_by_mode():
    iid = prepare_experiment(tiny_config())
    assert len(iid.splits) == 4
    assert all(s.n_samples == 40 for s in iid.splits)  # 160 train / 4 clients
    sharded = prepare_experiment(
        tiny_config(partition_mode="shards", shards_per_client=2)
    )
    for s in sharded.splits:
        labels = {int(v) for v in sharded.train.labels[s.indices]}
        assert len(labels) <= 2


def test_prepare_experiment_rejects_bad_config():
    from fedsim.config import ConfigError

    with pytest.raises(ConfigError, match="fraction"):
        prepare_experiment(tiny_config(fraction=0.0))


def test_prepare_suite_builds_each_seeds_data_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return synthetic_train_test(*args)

    monkeypatch.setattr("fedsim.federation.synthetic_train_test", counting)
    sweep = Sweep(seeds=(4, 9), methods=("fedavg", "fedprox(0.3)"),
                  partitions=("iid", "shards(1)", "shards(2)"))
    suite = prepare_suite(tiny_config(), sweep)
    assert len(calls) == 2
    assert [(mt, pt) for mt, pt, _ in suite] == [
        (mt, pt) for mt in ("fedavg", "fedprox(0.3)")
        for pt in ("iid", "shards(1)", "shards(2)")
    ]
    for i, seed in enumerate((4, 9)):
        runs = [cell_runs[i] for _, _, cell_runs in suite]
        assert [rcfg.seed for rcfg, _ in runs] == [seed] * 6
        first = runs[0][1]
        assert all(d.train is first.train and d.test is first.test for _, d in runs)
    assert suite[0][2][0][1].train is not suite[0][2][1][1].train


def test_prepare_suite_runs_match_runs_prepared_alone():
    sweep = Sweep(seeds=(0, 3), methods=("fedavg", "fedprox"), partitions=("iid", "shards(2)"))
    suite = prepare_suite(tiny_config(), sweep)
    assert sum(len(runs) for _, _, runs in suite) == 8
    for _, _, runs in suite:
        for rcfg, data in runs:
            shared, alone = run_federation(rcfg, data), run_federation(rcfg)
            assert shared.history == alone.history
            assert same_params(shared.final_state.global_params,
                               alone.final_state.global_params)


def test_build_datasets_from_files(tmp_path):
    train, test = synthetic_train_test(120, 3, 6, 4.0, 0.25, 9)
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    save_dataset(train, train_path)
    save_dataset(test, test_path)
    cfg = tiny_config(dataset=FileData(str(train_path), str(test_path)))
    got_train, got_test = build_datasets(cfg)
    assert np.array_equal(got_train.features, train.features)
    assert np.array_equal(got_test.labels, test.labels)
    res = run_federation(cfg)
    assert len(res.history) == 3


def test_build_datasets_rejects_mismatched_files(tmp_path):
    train, _ = synthetic_train_test(80, 3, 6, 4.0, 0.25, 9)
    other, _ = synthetic_train_test(80, 3, 8, 4.0, 0.25, 9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(train, a)
    save_dataset(other, b)
    with pytest.raises(ValueError, match="do not match"):
        build_datasets(tiny_config(dataset=FileData(str(a), str(b))))


def test_a_run_mixes_its_training_seeds_once_per_block(monkeypatch):
    # A round's streams are mixed with those of the other rounds of its block,
    # not each on its own; selection still runs once per round.
    calls = {"mix": 0, "select": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fedsim.seeds, "mix_words", counted("mix", fedsim.seeds.mix_words))
    monkeypatch.setattr(fedsim.federation, "select_clients",
                        counted("select", fedsim.federation.select_clients))
    cfg = tiny_config(rounds=30, n_clients=10, fraction=0.5, local_epochs=2, batch_size=64)
    data = prepare_experiment(cfg)
    for block_keys, blocks in [(fedsim.federation._BLOCK_KEYS, 1), (40, 8)]:
        # 5 clients and 2 epochs make 10 keys a round: 300 keys, or 4 rounds a block.
        monkeypatch.setattr(fedsim.federation, "_BLOCK_KEYS", block_keys)
        calls.update(mix=0, select=0)
        run_federation(cfg, data)
        assert calls == {"mix": blocks, "select": 30}
