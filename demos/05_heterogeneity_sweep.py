"""Final accuracy across methods, partitions, and seeds.

Run fedavg and fedprox on an IID and two label-sharded partitions, three
seeds each, and print a table of final test accuracy, mean and sample std.
A ``Sweep`` holds the seeds and the method and partition tokens around one
base config, and ``prepare_suite`` prepares every run before the first one
trains, in the same cell order as ``fedsim suite``.  The runs of one seed
share its dataset, drawn once; partition, selection, and shuffles come
from each run's own seed and cell.  Run:

    python3 demos/05_heterogeneity_sweep.py
"""

from fedsim import ExperimentConfig, SyntheticData, run_federation
from fedsim.config import Sweep
from fedsim.evaluation import summarize_accuracies
from fedsim.federation import prepare_suite


def main() -> None:
    # shards(1) is the pathological end: every client sees one label only,
    # so whatever separates the methods shows up there first.
    base = ExperimentConfig(
        n_clients=10,
        fraction=0.5,
        rounds=25,
        local_epochs=2,
        batch_size=32,
        learning_rate=0.01,
        dataset=SyntheticData(
            n_samples=1500, n_classes=4, feature_dim=16,
            separation=1.2, test_fraction=0.25,
        ),
    )
    sweep = Sweep(seeds=(0, 1, 2), methods=("fedavg", "fedprox(0.3)"),
                  partitions=("iid", "shards(2)", "shards(1)"))

    print(f"seeds {list(sweep.seeds)}, {base.rounds} rounds, "
          f"{base.n_clients} clients\n")
    print("  method        partition   per-seed accuracy        mean     std")
    for method, partition, runs in prepare_suite(base, sweep):
        accs = [run_federation(cfg, data).final_accuracy for cfg, data in runs]
        mean, std = summarize_accuracies(accs)
        per_seed = "  ".join(f"{a:.3f}" for a in accs)
        print(f"  {method:<12}  {partition:<9}"
              f"  {per_seed}  {mean:>7.4f}  {std:.4f}")


if __name__ == "__main__":
    main()
