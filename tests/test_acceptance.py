"""Acceptance checks for the whole simulator, one verdict line per check.

Every test prints a single ``acceptance[...]: PASS/FAIL`` line with the values
it measured; run ``pytest tests/test_acceptance.py -v -s`` to see them all.
The four trend checks share one module-scoped sweep of the reference grid
(two methods x three partitions x five seeds, plus the pooled baseline).
"""

import time
from dataclasses import replace
from statistics import fmean
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim.cli import cmd_run
from fedsim.config import ExperimentConfig, SyntheticData, load_config
from fedsim.data import generate_synthetic, partition_shards_detailed
from fedsim.evaluation import (
    accuracy,
    centralized_train,
    summarize_accuracies,
)
from fedsim.federation import (
    aggregate,
    prepare_experiment,
    prepare_suite,
    run_federation,
    select_clients,
)
from fedsim.seeds import derive
from oracles import (
    audit_shard_partition,
    fd_gradient,
    kernel,
    max_abs_diff,
    max_rel_err,
    rand_batch,
    rand_params,
    same_params,
    scalar_weighted_mean,
)

SEEDS = (0, 1, 2, 3, 4)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_mu_zero_proximal_reduces_to_plain_averaging():
    t0 = time.perf_counter()
    identical = True
    for partition in ("iid", "shards"):
        avg_cfg = ExperimentConfig(
            method="fedavg",
            rounds=20,
            partition_mode=partition,
            shards_per_client=2,
        )
        prox_cfg = replace(avg_cfg, method="fedprox", mu=0.0)
        a = run_federation(avg_cfg)
        p = run_federation(prox_cfg)
        identical = (
            identical
            and a.history == p.history
            and same_params(
                a.final_state.global_params, p.final_state.global_params
            )
        )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 10.0
    verdict(
        "mu0-reduction",
        ok,
        f"20-round histories bit-identical={identical} for iid and shards(2), "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_gradients_match_finite_differences_at_scale():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_classes = int(rng.integers(2, 6))
        dim = int(rng.integers(n_classes, 9))
        params = rand_params(rng, n_classes, dim)
        x, y = rand_batch(rng, int(rng.integers(1, 17)), n_classes, dim)
        err = max_rel_err(kernel(params, x, y)[1], fd_gradient(params, x, y))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    verdict(
        "gradient-check",
        ok,
        f"worst per-coordinate relative error {worst:.2e} over 100 random pairs "
        f"(tolerance 1e-05), {elapsed:.2f}s (budget 5s)",
    )


def test_aggregation_matches_scalar_oracle_and_permutation():
    rng = np.random.default_rng(7)
    worst_oracle = 0.0
    worst_perm = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 11))
        n_classes = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 7))
        weights = rng.normal(size=(k, n_classes, dim))
        bias = rng.normal(size=(k, n_classes))
        n = rng.integers(1, 101, size=k)
        perm = rng.permutation(k)
        for weighting in ("datasize", "uniform"):
            combined = aggregate(weights, bias, n, weighting)
            worst_oracle = max(
                worst_oracle,
                max_abs_diff(combined, scalar_weighted_mean(weights, bias, n, weighting)),
            )
            permuted = aggregate(weights[perm], bias[perm], n[perm], weighting)
            worst_perm = max(worst_perm, max_abs_diff(combined, permuted))
    ok = worst_oracle <= 1e-12 and worst_perm <= 1e-12
    verdict(
        "aggregation-oracle",
        ok,
        f"200 client stacks, both weightings: max |diff| vs scalar oracle "
        f"{worst_oracle:.2e}, vs permuted rows {worst_perm:.2e} (tolerance 1e-12)",
    )


def test_shard_partitions_satisfy_structural_invariants():
    rng = np.random.default_rng(99)
    audited = 0
    rejected = 0
    while audited < 50:
        n_clients = int(rng.integers(2, 21))
        shards_per_client = int(rng.integers(1, 5))
        total = n_clients * shards_per_client
        n_samples = int(rng.integers(max(total, 60), 400))
        data = generate_synthetic(n_samples, 4, 4, 3.0, derive(1234, audited, rejected))
        if total < 4:
            # Fewer shards than classes cannot give every class a shard.
            with pytest.raises(ValueError):
                partition_shards_detailed(data, n_clients, shards_per_client, 0)
            rejected += 1
            continue
        part = partition_shards_detailed(
            data, n_clients, shards_per_client, derive(4321, audited)
        )
        audit_shard_partition(data, part, n_clients, shards_per_client)
        audited += 1
    verdict(
        "partition-invariants",
        True,
        f"50 random shard partitions disjoint, exhaustive, single-label shards, "
        f"<= k labels per client ({rejected} infeasible draws correctly rejected)",
    )


@pytest.fixture(scope="module")
def trend_grid():
    t0 = time.perf_counter()
    base = ExperimentConfig(
        suite_methods=("fedavg", "fedprox"),
        suite_partitions=("iid", "shards(2)", "shards(3)"),
    )
    suite = prepare_suite(base, SEEDS)
    cells = {}
    for mt, pt, runs in suite:
        accs = [run_federation(cfg, data).final_accuracy for cfg, data in runs]
        mean, std = summarize_accuracies(accs)
        cells[(mt, pt)] = SimpleNamespace(mean=mean, std=std)
    # Every cell of a seed shares its data; the first cell's runs carry it.
    # centralized_train reads no field in which the cells differ.
    epochs = base.rounds * base.local_epochs
    centralized = [
        accuracy(centralized_train(data.train, cfg, epochs), data.test)
        for cfg, data in suite[0][2]
    ]
    return {
        "cells": cells,
        "centralized": fmean(centralized),
        "elapsed": time.perf_counter() - t0,
    }


def test_trend_grid_fits_runtime_budget(trend_grid):
    elapsed = trend_grid["elapsed"]
    ok = elapsed < 300.0
    verdict(
        "trend-runtime",
        ok,
        f"full sweep (2 methods x 3 partitions x 5 seeds + pooled baseline) "
        f"took {elapsed:.0f}s (budget 300s)",
    )


def test_trend_iid_tracks_centralized(trend_grid):
    cent = trend_grid["centralized"]
    gap_avg = abs(trend_grid["cells"][("fedavg", "iid")].mean - cent)
    gap_prox = abs(trend_grid["cells"][("fedprox", "iid")].mean - cent)
    ok = gap_avg <= 0.015 and gap_prox <= 0.015
    verdict(
        "trend-iid-vs-centralized",
        ok,
        f"|iid mean - centralized {cent:.4f}|: fedavg {gap_avg * 100:.2f}pp, "
        f"fedprox {gap_prox * 100:.2f}pp (cap 1.5pp)",
    )


def test_trend_label_skew_degrades_accuracy(trend_grid):
    cells = trend_grid["cells"]
    drop_avg = cells[("fedavg", "iid")].mean - cells[("fedavg", "shards(2)")].mean
    drop_prox = cells[("fedprox", "iid")].mean - cells[("fedprox", "shards(2)")].mean
    ok = drop_avg >= 0.02 and drop_prox >= 0.02
    verdict(
        "trend-skew-degradation",
        ok,
        f"iid minus shards(2) mean accuracy: fedavg {drop_avg * 100:.2f}pp, "
        f"fedprox {drop_prox * 100:.2f}pp (required >= 2pp each)",
    )


def test_trend_proximal_dominates_under_skew(trend_grid):
    cells = trend_grid["cells"]
    lead2 = cells[("fedprox", "shards(2)")].mean - cells[("fedavg", "shards(2)")].mean
    lead3 = cells[("fedprox", "shards(3)")].mean - cells[("fedavg", "shards(3)")].mean
    ok = lead2 >= 0.0 and lead3 >= 0.0
    verdict(
        "trend-proximal-lead",
        ok,
        f"fedprox minus fedavg mean accuracy: shards(2) {lead2 * 100:+.2f}pp, "
        f"shards(3) {lead3 * 100:+.2f}pp (required >= 0)",
    )


def test_trend_label_skew_inflates_variance(trend_grid):
    cells = trend_grid["cells"]
    iid_std = cells[("fedavg", "iid")].std
    skew_std = cells[("fedavg", "shards(2)")].std
    ok = skew_std > iid_std
    verdict(
        "trend-variance",
        ok,
        f"fedavg accuracy std: shards(2) {skew_std:.4f} vs iid {iid_std:.4f} "
        f"(must strictly exceed)",
    )


def test_single_client_federation_collapses_to_centralized():
    cfg = ExperimentConfig(
        n_clients=1,
        fraction=1.0,
        rounds=1,
        local_epochs=6,
        dataset=SyntheticData(n_samples=2000),
        seed=3,
    )
    data = prepare_experiment(cfg)
    fed = run_federation(cfg, data)
    central = centralized_train(data.train, cfg, 6)
    diff = abs(fed.final_accuracy - accuracy(central, data.test))
    bit_identical = same_params(fed.final_state.global_params, central)
    ok = diff == 0.0 and bit_identical
    verdict(
        "centralized-collapse",
        ok,
        f"accuracy difference {diff} (required exactly 0), "
        f"parameters bit-identical={bit_identical}",
    )


def test_cmd_run_outputs_are_byte_reproducible(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("rounds = 10\n", encoding="utf-8")
    blobs = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        assert cmd_run(load_config(str(cfg_path)), out, quiet=True) == 0
        blobs.append((out / "rounds.csv").read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    verdict(
        "byte-determinism",
        ok,
        f"rounds.csv identical across two reruns ({len(blobs[0])} bytes)",
    )


def test_selection_frequency_over_thousand_rounds():
    counts = np.zeros(10)
    for round_index in range(1000):
        for cid in select_clients(10, 0.5, 0, round_index):
            counts[cid] += 1
    freq = counts / 1000.0
    ok = bool((freq >= 0.45).all() and (freq <= 0.55).all())
    verdict(
        "selection-frequency",
        ok,
        f"per-client frequency min {freq.min():.3f}, max {freq.max():.3f} "
        f"(required within [0.45, 0.55])",
    )
