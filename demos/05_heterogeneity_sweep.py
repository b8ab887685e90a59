"""Final accuracy across methods, partitions, and seeds.

Run fedavg and fedprox on an IID and a label-sharded partition, three seeds
each, and print a table of final test accuracy, mean and sample std.  Every
run redraws data, partition, selection, and shuffles from its own seed; the
rest of the setup is shared.  Run:

    python3 demos/05_heterogeneity_sweep.py
"""

from dataclasses import replace

from fedsim import ExperimentConfig, SyntheticData, run_federation
from fedsim.evaluation import summarize_accuracies

SEEDS = (0, 1, 2)


def main() -> None:
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

    # shards(1) is the pathological end: every client sees one label only,
    # so whatever separates the methods shows up there first.
    variants = []
    for method, mu in (("fedavg", 0.0), ("fedprox", 0.3)):
        for mode, k in (("iid", 0), ("shards", 2), ("shards", 1)):
            cfg = replace(base, method=method, mu=mu, partition_mode=mode)
            if mode == "shards":
                cfg = replace(cfg, shards_per_client=k)
            variants.append(cfg)

    print(f"seeds {list(SEEDS)}, {base.rounds} rounds, "
          f"{base.n_clients} clients\n")
    print("  method        partition   per-seed accuracy        mean     std")
    for cfg in variants:
        accs = [run_federation(replace(cfg, seed=s)).final_accuracy for s in SEEDS]
        mean, std = summarize_accuracies(accs)
        per_seed = "  ".join(f"{a:.3f}" for a in accs)
        print(f"  {cfg.method_token():<12}  {cfg.partition_token():<9}"
              f"  {per_seed}  {mean:>7.4f}  {std:.4f}")


if __name__ == "__main__":
    main()
