"""Client selection, aggregation, rounds, and full federated runs."""

import numpy as np
import pytest

from fedsim.config import ExperimentConfig, FileData, SyntheticData
from fedsim.data import save_dataset, synthetic_train_test
from fedsim.evaluation import accuracy
from fedsim.federation import (
    ServerState,
    aggregate,
    build_datasets,
    prepare_experiment,
    run_federation,
    run_round,
    select_clients,
)
from fedsim.model import ParamVector, params_equal
from fedsim.seeds import LOCAL_STREAM, derive
from fedsim.training import HyperParams, LocalUpdate, train_cohort
from oracles import max_abs_diff, rand_params, scalar_weighted_mean


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
    out = aggregate([LocalUpdate(a, 1, 0.0), LocalUpdate(b, 3, 0.0)], "datasize")
    assert np.array_equal(out.weights, 0.25 * a.weights + 0.75 * b.weights)
    assert np.array_equal(out.bias, 0.25 * a.bias + 0.75 * b.bias)
    uniform = aggregate([LocalUpdate(a, 1, 0.0), LocalUpdate(b, 3, 0.0)], "uniform")
    assert np.array_equal(uniform.weights, 0.5 * a.weights + 0.5 * b.weights)


def test_aggregate_equal_sizes_make_weightings_agree():
    rng = np.random.default_rng(2)
    ups = [LocalUpdate(rand_params(rng, 2, 3), 5, 0.0) for _ in range(4)]
    assert params_equal(aggregate(ups, "datasize"), aggregate(ups, "uniform"))


def test_aggregate_single_update_is_identity():
    rng = np.random.default_rng(3)
    p = rand_params(rng, 2, 3)
    assert params_equal(aggregate([LocalUpdate(p, 9, 0.0)], "datasize"), p)
    assert params_equal(aggregate([LocalUpdate(p, 9, 0.0)], "uniform"), p)


def test_aggregate_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(1, 11))
        ups = [
            LocalUpdate(rand_params(rng, 3, 4), int(rng.integers(1, 100)), 0.0)
            for _ in range(k)
        ]
        for weighting in ("datasize", "uniform"):
            got = aggregate(ups, weighting)
            assert max_abs_diff(got, scalar_weighted_mean(ups, weighting)) < 1e-12


def test_aggregate_permutation_invariant_within_tolerance():
    rng = np.random.default_rng(5)
    ups = [
        LocalUpdate(rand_params(rng, 3, 4), int(rng.integers(1, 50)), 0.0)
        for _ in range(7)
    ]
    base = aggregate(ups, "datasize")
    perm = [ups[i] for i in rng.permutation(7)]
    assert max_abs_diff(base, aggregate(perm, "datasize")) < 1e-12


def test_aggregate_errors():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="non-empty"):
        aggregate([], "datasize")
    with pytest.raises(ValueError, match="weighting"):
        aggregate([LocalUpdate(rand_params(rng, 2, 3), 1, 0.0)], "mean")
    mixed = [
        LocalUpdate(rand_params(rng, 2, 3), 1, 0.0),
        LocalUpdate(rand_params(rng, 2, 4), 1, 0.0),
    ]
    with pytest.raises(ValueError, match="shapes differ"):
        aggregate(mixed, "uniform")


def prepared(cfg):
    data = prepare_experiment(cfg)
    state = ServerState(
        ParamVector.zeros(data.train.n_classes, data.train.feature_dim), 0
    )
    return data, state


def test_run_round_zero_learning_rate_keeps_global_params():
    cfg = tiny_config(learning_rate=0.01)
    data, state = prepared(cfg)
    h = HyperParams(learning_rate=0.0, batch_size=16, local_epochs=2)
    new_state, report = run_round(
        state, data.train, data.splits, data.test, h, fraction=0.5, seed=cfg.seed
    )
    assert params_equal(new_state.global_params, state.global_params)
    assert new_state.round_index == 1
    assert report.round_index == 0
    assert list(report.selected_clients) == select_clients(4, 0.5, cfg.seed, 0)
    assert len(report.client_losses) == len(report.selected_clients)
    assert 0.0 <= report.test_accuracy <= 1.0


def test_run_round_matches_clients_trained_alone():
    # Full participation over clients of unequal sizes with ragged final
    # batches: the round's losses and average are those of solo training.
    cfg = tiny_config(n_clients=6, fraction=1.0, partition_mode="shards")
    data, state = prepared(cfg)
    assert len({s.n_samples for s in data.splits}) > 1
    h = cfg.hyperparams()
    new_state, report = run_round(
        state, data.train, data.splits, data.test, h, fraction=1.0, seed=cfg.seed
    )
    alone = [
        train_cohort(
            state.global_params, data.train, [s], h,
            [derive(cfg.seed, LOCAL_STREAM, 0, s.client_id)],
        )[0]
        for s in data.splits
    ]
    assert report.client_losses == tuple(u.mean_final_epoch_loss for u in alone)
    assert params_equal(new_state.global_params, aggregate(alone))


def test_run_round_client_losses_do_not_depend_on_cohort():
    cfg = tiny_config(n_clients=6)
    data, state = prepared(cfg)
    h = cfg.hyperparams()
    _, full = run_round(
        state, data.train, data.splits, data.test, h, fraction=1.0, seed=cfg.seed
    )
    _, half = run_round(
        state, data.train, data.splits, data.test, h, fraction=0.5, seed=cfg.seed
    )
    by_client = dict(zip(full.selected_clients, full.client_losses))
    assert len(half.selected_clients) == 3
    assert half.client_losses == tuple(by_client[c] for c in half.selected_clients)


def test_run_federation_deterministic():
    cfg = tiny_config()
    a = run_federation(cfg)
    b = run_federation(cfg)
    assert a.history == b.history
    assert params_equal(a.final_state.global_params, b.final_state.global_params)
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
