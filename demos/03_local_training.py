"""One client's local SGD, with and without the proximal pull.

The fedprox objective adds (mu/2) * ||w - w_global||^2 to the plain
cross-entropy, which penalizes drifting away from the broadcast parameters
during local epochs.  This is what keeps single-label clients from running
off toward their own class.  Local training runs a round's clients as one
lockstep cohort; a cohort of one is a single client.  It takes the run's
ExperimentConfig, of which only the training fields and the seed act: each
client shuffles with the streams a run of that config gives its client id in
round 0.  Run:

    python3 demos/03_local_training.py
"""

import numpy as np

from fedsim import (
    ExperimentConfig,
    ParamVector,
    generate_synthetic,
    partition_shards,
    train_cohort,
)


def train_alone(anchor, data, split, cfg):
    """A cohort of one: the client's parameters and its final-epoch loss."""
    weights, bias, losses = train_cohort(anchor, data, [split], cfg)
    return ParamVector(weights[0], bias[0]), float(losses[0])


def bit_identical(a: ParamVector, b: ParamVector) -> bool:
    return np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def drift(params: ParamVector, anchor: ParamVector) -> float:
    dw = params.weights - anchor.weights
    db = params.bias - anchor.bias
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
        cfg = ExperimentConfig(
            method="fedprox",
            mu=mu,
            learning_rate=0.05,
            batch_size=32,
            local_epochs=10,
        )
        params, loss = train_alone(anchor, data, split, cfg)
        print(f"  fedprox    {mu:>8.1f}  {drift(params, anchor):>8.4f}  {loss:>10.4f}")

    plain = ExperimentConfig(
        method="fedavg", learning_rate=0.05, batch_size=32, local_epochs=10
    )
    params, loss = train_alone(anchor, data, split, plain)
    print(f"  fedavg            -  {drift(params, anchor):>8.4f}  {loss:>10.4f}")

    # mu = 0 makes the penalty vanish, so fedprox reproduces fedavg exactly,
    # down to the last bit.
    zero = ExperimentConfig(
        method="fedprox", mu=0.0,
        learning_rate=0.05, batch_size=32, local_epochs=10,
    )
    params_zero, _ = train_alone(anchor, data, split, zero)
    print("\nfedprox(mu=0) bit-identical to fedavg:", bit_identical(params_zero, params))

    # The penalty itself, measured at the fedavg endpoint.
    print("penalty (mu/2)*||w - w_g||^2 at the fedavg endpoint, mu = 1:",
          f"{0.5 * 1.0 * drift(params, anchor) ** 2:.4f}")

    # All four clients as one cohort, stepped in lockstep: it comes back as
    # one stack, and each row is bit-identical to that client's solo run,
    # whatever its cohort, since each client's streams follow its id.
    weights, bias, _ = train_cohort(anchor, data, splits, plain)
    same = all(
        bit_identical(ParamVector(w, b), train_alone(anchor, data, s, plain)[0])
        for s, w, b in zip(splits, weights, bias)
    )
    print("4-client cohort bit-identical to 4 solo runs:", same)


if __name__ == "__main__":
    main()
