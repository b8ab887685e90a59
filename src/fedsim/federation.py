"""Server-side orchestration: selection, dispatch, averaging, round loop.

Every round broadcasts the global parameters, trains the selected clients
locally from that same snapshot in one lockstep cohort, which comes back as
one stack with a row per client, and replaces the global parameters with the
weighted average of the rows.  A client's row does not depend on which other
clients share its round, and rows are averaged in ascending client-id order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import (WEIGHTINGS, ConfigError, ExperimentConfig, Sweep, SyntheticData,
                     clients_per_round, suite_cells)
from .data import (ClientSplit, Dataset, load_dataset, partition_iid, partition_shards,
                   synthetic_train_test)
from .evaluation import accuracy
from .model import ParamVector
from .seeds import (DATA_STREAM, PARTITION_STREAM, SELECTION_STREAM, SeedKey, derive,
                    finish_states, key_rng, local_words)
from .training import DivergenceError, _check_cohort, _train_cohort

__all__ = [
    "ExperimentData",
    "FederationResult",
    "RoundReport",
    "ServerState",
    "aggregate",
    "build_datasets",
    "prepare_experiment",
    "prepare_suite",
    "run_federation",
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
    m = clients_per_round(n_clients, fraction)
    if m < 1:
        raise ValueError(f"fraction {fraction} of {n_clients} clients rounds to zero")
    rng = key_rng(derive(seed, SELECTION_STREAM, round_index))
    chosen = rng.choice(n_clients, size=m, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate(
    weights: np.ndarray,
    bias: np.ndarray,
    n_samples: Sequence[int],
    weighting: str = "datasize",
) -> ParamVector:
    """Average a stack of client parameters.

    Row i of ``weights (m, C, d)`` and ``bias (m, C)`` is a client trained on
    ``n_samples[i]`` samples.  "datasize" weighs row i by n_i / sum(n);
    "uniform" by 1/m.  The sum is accumulated left to right, in row order.
    """
    if len(weights) == 0:
        raise ValueError("weights must hold at least one row")
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    if bias.shape != weights.shape[:2] or len(n_samples) != len(weights):
        raise ValueError(
            f"weights {weights.shape}, bias {bias.shape} and {len(n_samples)} "
            "sample counts do not agree"
        )
    if min(n_samples) < 1:
        raise ValueError(f"n_samples must be >= 1, got {min(n_samples)}")
    if weighting == "datasize":
        total = sum(n_samples)
        coeffs = np.array([n / total for n in n_samples])
    else:
        coeffs = np.full(len(weights), 1.0 / len(weights))
    # One (m, C*d + C) stack, as numpy sums axis 0 in row order only for rows of
    # 2+ entries (else pairwise); initial=-0.0 keeps an all -0.0 column at -0.0.
    flat = weights.reshape(len(weights), -1)
    rows = np.concatenate([flat, bias.reshape(len(bias), -1)], axis=1)
    mean = np.add.reduce(coeffs[:, None] * rows, axis=0, initial=-0.0)
    return ParamVector(mean[: flat.shape[1]].reshape(weights.shape[1:]), mean[flat.shape[1] :])


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
    """Materialize (train, test) from the config's dataset description.

    A synthetic() argument the generator rejects raises a ConfigError.
    """
    ds = cfg.dataset
    if isinstance(ds, SyntheticData):
        try:
            return synthetic_train_test(ds.n_samples, ds.n_classes, ds.feature_dim,
                                        ds.separation, ds.test_fraction,
                                        derive(cfg.seed, DATA_STREAM))
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from None
    train = load_dataset(ds.train_path)
    test = load_dataset(ds.test_path)
    if train.feature_dim != test.feature_dim or train.n_classes != test.n_classes:
        raise ValueError(
            f"train ({train.feature_dim} features, {train.n_classes} classes) "
            f"and test ({test.feature_dim}, {test.n_classes}) do not match"
        )
    return train, test


def prepare_experiment(
    cfg: ExperimentConfig, datasets: tuple[Dataset, Dataset] | None = None
) -> ExperimentData:
    """Build the config's datasets and partition the train set.

    Pass ``datasets`` to reuse a (train, test) pair already built for the
    config's dataset.  The data layer decides what a dataset can hold, so a
    synthetic() or file() dataset that cannot hold its partition raises a
    ConfigError naming the ``partition`` key here.
    """
    train, test = datasets if datasets is not None else build_datasets(cfg)
    pkey = derive(cfg.seed, PARTITION_STREAM)
    try:
        if cfg.partition_mode == "iid":
            splits = partition_iid(train, cfg.n_clients, pkey)
        else:
            splits = partition_shards(train, cfg.n_clients, cfg.shards_per_client, pkey)
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from None
    return ExperimentData(train=train, test=test, splits=tuple(splits))


def prepare_suite(
    cfg: ExperimentConfig, sweep: Sweep
) -> list[tuple[str, str, list[tuple[ExperimentConfig, ExperimentData]]]]:
    """Prepare every run of the sweep around ``cfg`` before any of them trains.

    Returns (method token, partition token, [(run config, data), ...]) per
    cell, in ``suite_cells`` order, with one run per seed of the sweep.
    Cells differ only in method and partition, so each seed's datasets are
    built once and shared by its runs; a file() dataset is read once for the
    whole suite.
    """
    built: dict[int | None, tuple[Dataset, Dataset]] = {}

    def prepare(cell: ExperimentConfig, seed: int):
        rcfg = replace(cell, seed=int(seed))
        key = rcfg.seed if isinstance(cfg.dataset, SyntheticData) else None
        data = prepare_experiment(rcfg, built.get(key))
        built[key] = (data.train, data.test)
        return rcfg, data

    return [(mt, pt, [prepare(cell, s) for s in sweep.seeds])
            for mt, pt, cell in suite_cells(cfg, sweep)]


_BLOCK_KEYS = 2048  # training streams seeded at once, in whole rounds


def _round_streams(
    cfg: ExperimentConfig, n_clients: int
) -> Iterator[tuple[int, list[int], list[tuple[int, int]]]]:
    # Each round's selected clients and its streams' PCG64 states.  A block of
    # whole rounds is selected and mixed at once; each round finishes its own.
    per_round = cfg.local_epochs * clients_per_round(n_clients, cfg.fraction)
    block = max(1, _BLOCK_KEYS // max(1, per_round))
    for first in range(0, cfg.rounds, block):
        rounds = range(first, min(first + block, cfg.rounds))
        chosen = [select_clients(n_clients, cfg.fraction, cfg.seed, r) for r in rounds]
        mixed = local_words(cfg.seed, rounds, chosen, cfg.local_epochs)
        for r, selected, words in zip(rounds, chosen, np.split(mixed, len(rounds), axis=1)):
            yield r, selected, finish_states(words)


def run_federation(
    cfg: ExperimentConfig,
    data: ExperimentData | None = None,
    progress: Callable[[RoundReport], None] | None = None,
) -> FederationResult:
    """Run ``cfg.rounds`` rounds from zero-initialized global parameters.

    Each round selects clients, trains them as one cohort from the same
    snapshot of the global parameters, each under its own derived seed, and
    averages the results.  A diverging client raises a ValueError that names
    the round, the client and the epoch.  Deterministic given the config:
    datasets, partition, per-round selection, and per-client shuffles all
    derive from ``cfg.seed``.  Pass ``data`` to reuse an already prepared
    ExperimentData for the same config; every split in it is checked against
    the train set before round 0, selected or not.
    """
    if data is None:
        data = prepare_experiment(cfg)
    params = ParamVector.zeros(data.train.n_classes, data.train.feature_dim)
    _check_cohort(params, data.train, data.splits)
    history: list[RoundReport] = []
    for r, selected, states in _round_streams(cfg, len(data.splits)):
        splits = [data.splits[c] for c in selected]
        try:
            weights, bias, losses = _train_cohort(params, data.train, splits, cfg, states)
        except DivergenceError as exc:
            raise ValueError(f"round {r}, {exc}") from None
        params = aggregate(weights, bias, [s.n_samples for s in splits], cfg.weighting)
        report = RoundReport(
            round_index=r,
            selected_clients=tuple(selected),
            client_losses=tuple(losses.tolist()),
            test_accuracy=accuracy(params, data.test),
        )
        history.append(report)
        if progress is not None:
            progress(report)
    final = history[-1].test_accuracy if history else accuracy(params, data.test)
    return FederationResult(tuple(history), ServerState(params, cfg.rounds), final)
