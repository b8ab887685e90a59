"""The package's exported names, pinned so the API changes only on purpose."""

import fedsim

EXPORTS = [
    "ClientSplit",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "ExperimentData",
    "FederationResult",
    "FileData",
    "HyperParams",
    "LocalUpdate",
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
    "validate_config",
]


def test_exported_names_are_pinned():
    assert sorted(fedsim.__all__) == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in fedsim.__all__ if not hasattr(fedsim, name)]
    assert missing == []
