"""A full federated run next to a pooled-data baseline.

Each round samples a fraction of the clients, runs local SGD on every
selected one from the same broadcast parameters, and averages the results
weighted by client dataset size.  A moderate separation keeps the task hard
enough that the accuracy curve is worth watching.  Run:

    python3 demos/04_federated_run.py
"""

import statistics
from dataclasses import replace

import numpy as np

from fedsim import (
    ExperimentConfig,
    SyntheticData,
    accuracy,
    centralized_train,
    prepare_experiment,
    run_federation,
)

PRINT_ROUNDS = {1, 2, 3, 5, 10, 15, 20, 25, 30}


def show(result, title: str) -> None:
    print(title)
    print("  round  selected        mean client loss  test accuracy")
    for report in result.history:
        if report.round_index + 1 not in PRINT_ROUNDS:
            continue
        loss = statistics.fmean(report.client_losses)
        ids = ",".join(str(c) for c in report.selected_clients)
        print(f"  {report.round_index + 1:>5}  {ids:<14}  {loss:>16.4f}"
              f"  {report.test_accuracy:>13.4f}")
    print(f"  final accuracy: {result.final_accuracy:.4f}\n")


def main() -> None:
    cfg = ExperimentConfig(
        method="fedavg",
        n_clients=10,
        fraction=0.5,
        rounds=30,
        local_epochs=2,
        batch_size=32,
        learning_rate=0.01,
        partition_mode="iid",
        dataset=SyntheticData(
            n_samples=2000, n_classes=4, feature_dim=16,
            separation=1.2, test_fraction=0.25,
        ),
        seed=0,
    )

    data = prepare_experiment(cfg)
    print(f"{data.train.n_samples} train / {data.test.n_samples} test, "
          f"{cfg.n_clients} clients, {cfg.fraction} sampled per round\n")

    show(run_federation(cfg, data=data), "fedavg on an iid partition:")

    sharded = replace(cfg, partition_mode="shards", shards_per_client=2)
    show(run_federation(sharded), "fedavg on a shards(2) partition:")

    prox = replace(sharded, method="fedprox", mu=0.2)
    show(run_federation(prox), "fedprox(0.2) on the same shards(2) partition:")

    # Pooled baseline with the same per-client epoch budget.
    pooled = centralized_train(
        data.train, cfg, epochs=cfg.rounds * cfg.local_epochs
    )
    base = accuracy(pooled, data.test)
    print(f"centralized baseline, {cfg.rounds * cfg.local_epochs} pooled "
          f"epochs: {base:.4f}")

    # Degenerate federation: one client holding everything, sampled every
    # round, collapses onto centralized training exactly, not approximately.
    solo = replace(
        cfg, n_clients=1, fraction=1.0, rounds=1, local_epochs=6,
    )
    fed = run_federation(solo)
    central = centralized_train(prepare_experiment(solo).train, solo, epochs=6)
    final = fed.final_state.global_params
    print("\none client, full participation, bit-identical to centralized:",
          np.array_equal(final.weights, central.weights)
          and np.array_equal(final.bias, central.bias))


if __name__ == "__main__":
    main()
