"""Accuracy, the pooled baseline, and multi-seed summaries."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedsim.config import ExperimentConfig, SyntheticData
from fedsim.data import ClientSplit, Dataset, generate_synthetic, synthetic_train_test
from fedsim.evaluation import (
    accuracy,
    centralized_train,
    summarize_accuracies,
)
from fedsim.federation import run_federation
from fedsim.model import ParamVector
from fedsim.training import train_cohort
from oracles import same_params


def test_accuracy_counts_argmax_matches():
    params = ParamVector(np.eye(2), np.zeros(2))
    data = Dataset(
        np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]]),
        np.array([0, 1, 1]),
        2,
    )
    assert accuracy(params, data) == 2.0 / 3.0


def test_accuracy_ties_go_to_lowest_class_index():
    params = ParamVector.zeros(3, 2)  # every logit 0 -> always predicts class 0
    data = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 2]), 3)
    assert accuracy(params, data) == 0.5


def test_accuracy_shape_errors():
    params = ParamVector.zeros(2, 3)
    with pytest.raises(ValueError, match="feature_dim"):
        accuracy(params, Dataset(np.zeros((2, 4)), np.array([0, 1]), 2))
    with pytest.raises(ValueError, match="classes"):
        accuracy(params, Dataset(np.zeros((3, 3)), np.array([0, 1, 2]), 3))


def test_centralized_train_zero_epochs_returns_zeros():
    d = generate_synthetic(30, 3, 5, 3.0, 0)
    p = centralized_train(d, ExperimentConfig(), 0)
    assert same_params(p, ParamVector.zeros(3, 5))
    with pytest.raises(ValueError, match="epochs"):
        centralized_train(d, ExperimentConfig(), -1)


def test_centralized_train_is_full_split_local_train():
    d = generate_synthetic(50, 3, 5, 3.0, 1)
    cfg = ExperimentConfig(batch_size=16, seed=7)
    got = centralized_train(d, cfg, 4)
    weights, bias, _ = train_cohort(
        ParamVector.zeros(3, 5),
        d,
        [ClientSplit(0, np.arange(50))],
        replace(cfg, local_epochs=4),
    )
    assert same_params(got, ParamVector(weights[0], bias[0]))


def test_centralized_train_ignores_proximal_setting():
    d = generate_synthetic(50, 3, 5, 3.0, 2)
    plain = centralized_train(d, ExperimentConfig(batch_size=16), 3)
    proxed = centralized_train(
        d, ExperimentConfig(batch_size=16, method="fedprox", mu=5.0), 3
    )
    assert same_params(plain, proxed)


def test_centralized_baseline_converges_on_separated_data():
    train, test = synthetic_train_test(1250, 4, 16, 6.0, 0.2, 0)
    acc = accuracy(centralized_train(train, ExperimentConfig(), 10), test)
    assert acc >= 0.95


def test_one_client_federation_collapses_to_centralized():
    cfg = ExperimentConfig(
        n_clients=1,
        fraction=1.0,
        rounds=1,
        local_epochs=4,
        batch_size=32,
        dataset=SyntheticData(n_samples=300, n_classes=3, feature_dim=6),
        seed=5,
    )
    from fedsim.federation import prepare_experiment

    data = prepare_experiment(cfg)
    fed = run_federation(cfg, data)
    central = centralized_train(data.train, cfg, 4)
    assert same_params(fed.final_state.global_params, central)
    assert fed.final_accuracy - accuracy(central, data.test) == 0.0


def test_summarize_accuracies_known_values():
    mean, std = summarize_accuracies([0.8, 1.0])
    assert mean == pytest.approx(0.9, abs=1e-15)
    assert std == pytest.approx(math.sqrt(0.02), abs=1e-15)


def test_summarize_accuracies_edge_cases():
    mean, std = summarize_accuracies([0.7])
    assert (mean, std) == (0.7, 0.0)
    with pytest.raises(ValueError, match="non-empty"):
        summarize_accuracies([])
