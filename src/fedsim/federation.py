"""Server-side orchestration: selection, dispatch, averaging, round loop.

Every round broadcasts the global parameters, trains the selected clients
locally from that same snapshot in one lockstep cohort, and replaces the
global parameters with the weighted average of the returned ones.  A client's
update does not depend on which other clients share its round, and updates
are averaged in ascending client-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .config import WEIGHTINGS, ExperimentConfig, SyntheticData, validate_config
from .data import (
    ClientSplit,
    Dataset,
    load_dataset,
    partition_iid,
    partition_shards,
    synthetic_train_test,
)
from .evaluation import accuracy
from .model import ParamVector
from .seeds import (
    DATA_STREAM,
    LOCAL_STREAM,
    PARTITION_STREAM,
    SELECTION_STREAM,
    SeedKey,
    derive,
    key_rng,
)
from .training import DivergenceError, HyperParams, LocalUpdate, train_cohort

__all__ = [
    "ExperimentData",
    "FederationResult",
    "RoundReport",
    "ServerState",
    "aggregate",
    "build_datasets",
    "prepare_experiment",
    "run_federation",
    "run_round",
    "select_clients",
]


@dataclass(frozen=True)
class ServerState:
    """Global parameters plus the number of completed rounds."""

    global_params: ParamVector
    round_index: int = 0


@dataclass(frozen=True)
class RoundReport:
    """Telemetry for one round; accuracy is of the freshly averaged parameters."""

    round_index: int
    selected_clients: tuple[int, ...]
    client_losses: tuple[float, ...]
    test_accuracy: float


def select_clients(
    n_clients: int, fraction: float, seed: SeedKey, round_index: int
) -> list[int]:
    """Sample ``fraction`` of the clients uniformly without replacement.

    The count rounds half-up: floor(fraction * n_clients + 0.5).  Ids come
    back sorted ascending, drawn from the round's own stream, so the set for
    round r never depends on what any other round consumed.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    m = math.floor(fraction * n_clients + 0.5)
    if m < 1:
        raise ValueError(
            f"fraction {fraction} of {n_clients} clients rounds to zero"
        )
    rng = key_rng(derive(seed, SELECTION_STREAM, round_index))
    chosen = rng.choice(n_clients, size=m, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate(
    updates: Sequence[LocalUpdate], weighting: str = "datasize"
) -> ParamVector:
    """Average client parameters.

    "datasize" weighs update i by n_i / sum(n); "uniform" by 1/m.  The sum is
    accumulated left to right, in the order the updates are given.
    """
    if not updates:
        raise ValueError("updates must be non-empty")
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    first = updates[0].params
    for u in updates[1:]:
        if u.params.weights.shape != first.weights.shape:
            raise ValueError(
                f"parameter shapes differ: {u.params.weights.shape} vs "
                f"{first.weights.shape}"
            )
    if weighting == "datasize":
        total = sum(u.n_samples for u in updates)
        coeffs = [u.n_samples / total for u in updates]
    else:
        coeffs = [1.0 / len(updates)] * len(updates)
    w = coeffs[0] * first.weights
    b = coeffs[0] * first.bias
    for c, u in zip(coeffs[1:], updates[1:]):
        w += c * u.params.weights
        b += c * u.params.bias
    return ParamVector(w, b)


def run_round(
    state: ServerState,
    data: Dataset,
    splits: Sequence[ClientSplit],
    test: Dataset,
    h: HyperParams,
    fraction: float = 0.5,
    weighting: str = "datasize",
    seed: SeedKey = 0,
) -> tuple[ServerState, RoundReport]:
    """One communication round: select, train locally, average.

    The selected clients train as one cohort from the same snapshot of the
    global parameters, each under its own derived seed.  A diverging client
    raises a ValueError that names the round, the client and the epoch.
    """
    r = state.round_index
    selected = select_clients(len(splits), fraction, seed, r)
    try:
        updates = train_cohort(
            state.global_params,
            data,
            [splits[c] for c in selected],
            h,
            [derive(seed, LOCAL_STREAM, r, c) for c in selected],
        )
    except DivergenceError as exc:
        raise ValueError(f"round {r}, {exc}") from None
    new_params = aggregate(updates, weighting)
    report = RoundReport(
        round_index=r,
        selected_clients=tuple(selected),
        client_losses=tuple(u.mean_final_epoch_loss for u in updates),
        test_accuracy=accuracy(new_params, test),
    )
    return ServerState(new_params, r + 1), report


@dataclass(frozen=True)
class ExperimentData:
    """Materialized inputs of a run: datasets plus the client partition."""

    train: Dataset
    test: Dataset
    splits: tuple[ClientSplit, ...]


@dataclass(frozen=True)
class FederationResult:
    """Round history, final server state, and the final test accuracy."""

    history: tuple[RoundReport, ...]
    final_state: ServerState
    final_accuracy: float


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from the config's dataset description."""
    ds = cfg.dataset
    if isinstance(ds, SyntheticData):
        return synthetic_train_test(
            ds.n_samples,
            ds.n_classes,
            ds.feature_dim,
            ds.separation,
            ds.test_fraction,
            derive(cfg.seed, DATA_STREAM),
        )
    train = load_dataset(ds.train_path)
    test = load_dataset(ds.test_path)
    if train.feature_dim != test.feature_dim or train.n_classes != test.n_classes:
        raise ValueError(
            f"train ({train.feature_dim} features, {train.n_classes} classes) "
            f"and test ({test.feature_dim}, {test.n_classes}) do not match"
        )
    return train, test


def prepare_experiment(cfg: ExperimentConfig) -> ExperimentData:
    """Validate the config, build the datasets, and partition the train set."""
    validate_config(cfg)
    train, test = build_datasets(cfg)
    pkey = derive(cfg.seed, PARTITION_STREAM)
    if cfg.partition_mode == "iid":
        splits = partition_iid(train, cfg.n_clients, pkey)
    else:
        splits = partition_shards(train, cfg.n_clients, cfg.shards_per_client, pkey)
    return ExperimentData(train=train, test=test, splits=tuple(splits))


def run_federation(
    cfg: ExperimentConfig,
    data: ExperimentData | None = None,
    progress: Callable[[RoundReport], None] | None = None,
) -> FederationResult:
    """Run ``cfg.rounds`` rounds from zero-initialized global parameters.

    Deterministic given the config: datasets, partition, per-round selection,
    and per-client shuffles all derive from ``cfg.seed``.  Pass ``data`` to
    reuse an already prepared ExperimentData for the same config.
    """
    if data is None:
        data = prepare_experiment(cfg)
    else:
        validate_config(cfg)
    h = cfg.hyperparams()
    state = ServerState(
        ParamVector.zeros(data.train.n_classes, data.train.feature_dim), 0
    )
    history: list[RoundReport] = []
    for _ in range(cfg.rounds):
        state, report = run_round(
            state,
            data.train,
            data.splits,
            data.test,
            h,
            fraction=cfg.fraction,
            weighting=cfg.weighting,
            seed=cfg.seed,
        )
        history.append(report)
        if progress is not None:
            progress(report)
    final = (
        history[-1].test_accuracy
        if history
        else accuracy(state.global_params, data.test)
    )
    return FederationResult(
        history=tuple(history), final_state=state, final_accuracy=final
    )
