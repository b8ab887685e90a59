"""One client's local SGD, with and without the proximal pull.

The fedprox objective adds (mu/2) * ||w - w_global||^2 to the plain
cross-entropy, which penalizes drifting away from the broadcast parameters
during local epochs.  This is what keeps single-label clients from running
off toward their own class.  Local training runs a round's clients as one
lockstep cohort; a cohort of one is a single client.  Run:

    python3 demos/03_local_training.py
"""

import numpy as np

from fedsim import (
    HyperParams,
    ParamVector,
    generate_synthetic,
    partition_shards,
    train_cohort,
)


def train_alone(anchor, data, split, h, seed):
    (update,) = train_cohort(anchor, data, [split], h, [seed])
    return update


def bit_identical(a: ParamVector, b: ParamVector) -> bool:
    return np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def drift(update, anchor: ParamVector) -> float:
    dw = update.params.weights - anchor.weights
    db = update.params.bias - anchor.bias
    return float(np.sqrt((dw * dw).sum() + (db * db).sum()))


def main() -> None:
    data = generate_synthetic(
        n_samples=800, n_classes=4, feature_dim=16, separation=6.0, seed=0
    )
    # A single-label client: the worst case for local drift.
    splits = partition_shards(data, n_clients=4, shards_per_client=1, seed=0)
    split = splits[0]
    labels = np.unique(data.labels[split.indices])
    print(f"client 0 holds {split.n_samples} samples, labels {labels.tolist()}")

    anchor = ParamVector.zeros(data.n_classes, data.feature_dim)

    # Stronger pull, smaller drift.  Keep lr * mu below 2: the proximal
    # gradient mu * (w - w_g) turns the step into a contraction toward the
    # anchor only in that range, past it the update overshoots and diverges.
    print("\n10 local epochs from zero parameters:")
    print("  objective        mu     drift   final loss")
    for mu in (0.0, 1.0, 5.0, 20.0):
        h = HyperParams(
            learning_rate=0.05,
            batch_size=32,
            local_epochs=10,
            mu=mu,
            objective="fedprox",
        )
        update = train_alone(anchor, data, split, h, seed=0)
        print(f"  fedprox    {mu:>8.1f}  {drift(update, anchor):>8.4f}"
              f"  {update.mean_final_epoch_loss:>10.4f}")

    plain = HyperParams(
        learning_rate=0.05, batch_size=32, local_epochs=10, objective="fedavg"
    )
    update = train_alone(anchor, data, split, plain, seed=0)
    print(f"  fedavg            -  {drift(update, anchor):>8.4f}"
          f"  {update.mean_final_epoch_loss:>10.4f}")

    # mu = 0 makes the penalty vanish, so fedprox reproduces fedavg exactly,
    # down to the last bit.
    zero = HyperParams(
        learning_rate=0.05, batch_size=32, local_epochs=10,
        mu=0.0, objective="fedprox",
    )
    update_zero = train_alone(anchor, data, split, zero, seed=0)
    print("\nfedprox(mu=0) bit-identical to fedavg:",
          bit_identical(update_zero.params, update.params))

    # The penalty itself, measured at the fedavg endpoint.
    print("penalty (mu/2)*||w - w_g||^2 at the fedavg endpoint, mu = 1:",
          f"{0.5 * 1.0 * drift(update, anchor) ** 2:.4f}")

    # All four clients as one cohort, stepped in lockstep: each update is
    # bit-identical to that client's solo run, whatever its cohort.
    cohort = train_cohort(anchor, data, splits, plain, seeds=[0, 1, 2, 3])
    same = all(
        bit_identical(u.params, train_alone(anchor, data, s, plain, seed=i).params)
        for i, (s, u) in enumerate(zip(splits, cohort))
    )
    print("4-client cohort bit-identical to 4 solo runs:", same)


if __name__ == "__main__":
    main()
