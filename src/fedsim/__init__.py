"""Federated-optimization simulator.

FedAvg and FedProx over a partitioned classification dataset: synthetic
Gaussian features, IID or label-sharded client splits, per-round client
sampling, local SGD on a linear softmax model, and parameter averaging.
Everything is deterministic given an experiment seed.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    FileData,
    SyntheticData,
    config_fingerprint,
    load_config,
    parse_config,
    serialize_config,
)
from .data import (
    ClientSplit,
    Dataset,
    generate_synthetic,
    label_distribution,
    load_dataset,
    partition_iid,
    partition_shards,
    save_dataset,
    save_partition,
    synthetic_train_test,
)
from .evaluation import accuracy, centralized_train
from .federation import (
    ExperimentData,
    FederationResult,
    RoundReport,
    ServerState,
    aggregate,
    prepare_experiment,
    run_federation,
    select_clients,
)
from .model import ParamVector
from .training import train_cohort

__version__ = "0.1.0"

__all__ = [
    "ClientSplit",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "ExperimentData",
    "FederationResult",
    "FileData",
    "ParamVector",
    "RoundReport",
    "ServerState",
    "SyntheticData",
    "accuracy",
    "aggregate",
    "centralized_train",
    "config_fingerprint",
    "generate_synthetic",
    "label_distribution",
    "load_config",
    "load_dataset",
    "parse_config",
    "partition_iid",
    "partition_shards",
    "prepare_experiment",
    "run_federation",
    "save_dataset",
    "save_partition",
    "select_clients",
    "serialize_config",
    "synthetic_train_test",
    "train_cohort",
]
