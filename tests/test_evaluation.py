"""Accuracy, the pooled baseline, and multi-seed summaries."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oracles import reference_accuracy, same_params


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


HUGE = 2.0**996  # about 6.7e299: a product of two overflows, a sum of a few does not


@settings(max_examples=300, deadline=None)
@given(n_classes=st.integers(1, 12), d=st.integers(1, 5), extra=st.integers(0, 30),
       kind=st.sampled_from(["normal", "integer", "huge"]), dup=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_accuracy_matches_the_row_major_argmax(n_classes, d, extra, kind, dup, seed):
    rng = np.random.default_rng(seed)
    n = n_classes + extra
    if kind == "normal":
        w, b = rng.normal(size=(n_classes, d)), rng.normal(size=n_classes)
        x = rng.normal(size=(n, d))
    else:
        # Small integers times a power of two.  At scale 1 every logit is
        # exact, so classes tie exactly; a "huge" row's products overflow, and
        # its logits are +-inf, or NaN where the matmul adds inf to -inf.
        scale = HUGE if kind == "huge" else 1.0
        w = rng.integers(-2, 3, (n_classes, d)) * scale
        b = rng.integers(-2, 3, n_classes) * scale
        x = rng.integers(-2, 3, (n, d)) * rng.choice([1.0, scale], (n, 1))
    if dup:  # some classes copy another's row, so their logits tie
        copy = rng.random(n_classes) < 0.5
        src = rng.integers(0, n_classes, n_classes)[copy]
        w[copy], b[copy] = w[src], b[src]
    params = ParamVector(w, b)
    test = Dataset(x, rng.permutation(np.arange(n) % n_classes), n_classes)
    with np.errstate(over="ignore", invalid="ignore"):
        assert accuracy(params, test) == reference_accuracy(params, test)


@pytest.mark.parametrize("n", [193, 250, 601])
@pytest.mark.parametrize("n_classes", [12, 16])
@pytest.mark.parametrize("kind", ["normal", "integer"])
def test_accuracy_matches_the_row_major_argmax_past_192_samples(n_classes, n, kind):
    # From 12 classes on, with more than 192 samples and n not a multiple of 8,
    # the class-major product may differ from the row-major one in its last
    # bits; the predictions must not.  Integer data ties classes exactly.
    rng = np.random.default_rng(1000 * n_classes + n)
    if kind == "normal":
        w, b, x = rng.normal(size=(n_classes, 16)), rng.normal(size=n_classes), rng.normal(size=(n, 16))
    else:
        w, b = rng.integers(-2, 3, (n_classes, 16)) * 1.0, rng.integers(-2, 3, n_classes) * 1.0
        x = rng.integers(-2, 3, (n, 16)) * 1.0
    params = ParamVector(w, b)
    test = Dataset(x, rng.permutation(np.arange(n) % n_classes), n_classes)
    assert accuracy(params, test) == reference_accuracy(params, test)


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
