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
    validate_config,
)
from .data import (
    ClientSplit,
    Dataset,
    PartitionSpec,
    generate_synthetic,
    label_distribution,
    load_dataset,
    load_partition,
    partition_dataset,
    partition_iid,
    partition_shards,
    save_dataset,
    save_partition,
    synthetic_train_test,
)
from .evaluation import (
    ExperimentSummary,
    accuracy,
    centralized_baseline,
    centralized_train,
    run_experiment_suite,
)
from .federation import (
    ExperimentData,
    FederationResult,
    RoundReport,
    ServerState,
    aggregate,
    prepare_experiment,
    run_federation,
    run_round,
    select_clients,
)
from .model import (
    Batch,
    ParamVector,
    axpy_combine,
    cross_entropy_loss,
    forward_logits,
    grad_cross_entropy,
    loss_and_grad,
    params_equal,
    softmax,
)
from .training import HyperParams, LocalUpdate, local_objective, proximal_penalty, train_cohort

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ClientSplit",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "ExperimentData",
    "ExperimentSummary",
    "FederationResult",
    "FileData",
    "HyperParams",
    "LocalUpdate",
    "ParamVector",
    "PartitionSpec",
    "RoundReport",
    "ServerState",
    "SyntheticData",
    "accuracy",
    "aggregate",
    "axpy_combine",
    "centralized_baseline",
    "centralized_train",
    "config_fingerprint",
    "cross_entropy_loss",
    "forward_logits",
    "generate_synthetic",
    "grad_cross_entropy",
    "label_distribution",
    "load_config",
    "load_dataset",
    "load_partition",
    "local_objective",
    "loss_and_grad",
    "params_equal",
    "parse_config",
    "partition_dataset",
    "partition_iid",
    "partition_shards",
    "prepare_experiment",
    "proximal_penalty",
    "run_experiment_suite",
    "run_federation",
    "run_round",
    "save_dataset",
    "save_partition",
    "select_clients",
    "serialize_config",
    "softmax",
    "synthetic_train_test",
    "train_cohort",
    "validate_config",
]
