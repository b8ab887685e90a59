"""Experiment configuration: parsing, validation, canonical serialization.

Config files are flat text, one ``key = value`` setting per line.  ``#``
starts a comment and blank lines are ignored.  Keys:

    method         fedavg | fedprox                      (default fedavg)
    mu             proximal coefficient, >= 0            (default 0.2)
    n_clients      >= 1                                  (default 10)
    fraction       clients sampled per round, in (0, 1]  (default 0.5)
    rounds         communication rounds, >= 0            (default 100)
    local_epochs   >= 1                                  (default 2)
    batch_size     >= 1                                  (default 64)
    learning_rate  > 0                                   (default 0.01)
    partition      iid | shards(K)                       (default iid)
    dataset        synthetic(n_samples=, n_classes=, feature_dim=,
                   separation=, test_fraction=) with any subset of the
                   arguments, or file(train=PATH, test=PATH)
                                                         (default synthetic())
    seed           >= 0                                  (default 0)
    seeds          comma list of distinct ints, suite only (default 0,1,2)
    weighting      datasize | uniform                    (default datasize)
    methods        comma list of method tokens, suite sweep; a token is
                   fedavg, fedprox, or fedprox(MU)       (default: method)
    partitions     comma list of partition tokens, suite sweep
                                                         (default: partition)

Two sweep tokens that name the same cell, such as fedprox(0.3) and
fedprox(.3), or a bare fedprox and fedprox(MU) at the config's mu, are
rejected.

Unknown or duplicate keys are rejected; every constraint violation is
reported with the offending key.  Values in file() paths cannot contain
commas or '#'.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .training import OBJECTIVES, HyperParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "FileData",
    "SyntheticData",
    "canonical_method",
    "canonical_partition",
    "check_sweep_cells",
    "config_fingerprint",
    "config_to_dict",
    "load_config",
    "parse_config",
    "parse_method_token",
    "parse_partition_token",
    "parse_seed_list",
    "serialize_config",
    "validate_config",
]

WEIGHTINGS = ("datasize", "uniform")


class ConfigError(ValueError):
    """A config line or field violates the documented grammar or ranges."""


@dataclass(frozen=True)
class SyntheticData:
    """Synthetic dataset settings; n_samples counts train and test together."""

    n_samples: int = 5000
    n_classes: int = 4
    feature_dim: int = 16
    separation: float = 6.0
    test_fraction: float = 0.2


@dataclass(frozen=True)
class FileData:
    """Paths of saved train/test datasets (see data.save_dataset)."""

    train_path: str
    test_path: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one federated experiment.

    Defaults mirror the reference setup: FedAvg over 10 clients, half of them
    sampled per round, 100 rounds of 2 local epochs with batch size 64 and
    learning rate 0.01, and fedprox's mu at 0.2.
    """

    method: str = "fedavg"
    mu: float = 0.2
    n_clients: int = 10
    fraction: float = 0.5
    rounds: int = 100
    local_epochs: int = 2
    batch_size: int = 64
    learning_rate: float = 0.01
    partition_mode: str = "iid"
    shards_per_client: int = 2
    dataset: SyntheticData | FileData = field(default_factory=SyntheticData)
    seed: int = 0
    suite_seeds: tuple[int, ...] = (0, 1, 2)
    weighting: str = "datasize"
    suite_methods: tuple[str, ...] = ()
    suite_partitions: tuple[str, ...] = ()

    def hyperparams(self) -> HyperParams:
        """Local-training hyperparameters implied by this config."""
        return HyperParams(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            local_epochs=self.local_epochs,
            mu=self.mu,
            objective=self.method,
        )

    def method_token(self) -> str:
        return "fedavg" if self.method == "fedavg" else f"fedprox({self.mu!r})"

    def partition_token(self) -> str:
        if self.partition_mode == "iid":
            return "iid"
        return f"shards({self.shards_per_client})"


def _int_field(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _float_field(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {text!r}")
    return value


def _call_form(key: str, text: str) -> tuple[str, str | None]:
    # "name" -> (name, None); "name(args)" -> (name, args)
    if "(" not in text:
        return text, None
    if not text.endswith(")"):
        raise ConfigError(f"{key}: unbalanced parentheses in {text!r}")
    name, args = text[:-1].split("(", 1)
    return name.strip(), args.strip()


def _kwargs_form(key: str, args: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not args:
        return out
    for item in args.split(","):
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"{key}: expected name=value, got {item.strip()!r}")
        name = name.strip()
        if name in out:
            raise ConfigError(f"{key}: duplicate argument {name!r}")
        out[name] = value.strip()
    return out


def parse_method_token(token: str) -> tuple[str, float | None]:
    """'fedavg' | 'fedprox' | 'fedprox(MU)' -> (method, mu or None)."""
    name, args = _call_form("method", token.strip().lower())
    if name not in OBJECTIVES:
        raise ConfigError(f"method: must be one of {OBJECTIVES}, got {token!r}")
    if args is None or args == "":
        return name, None
    if name == "fedavg":
        raise ConfigError(f"method: fedavg takes no argument, got {token!r}")
    mu = _float_field("method", args)
    if mu < 0:
        raise ConfigError(f"method: mu must be >= 0, got {args!r}")
    return name, mu


def parse_partition_token(token: str) -> tuple[str, int | None]:
    """'iid' | 'shards(K)' -> (mode, shards_per_client or None)."""
    name, args = _call_form("partition", token.strip().lower())
    if name == "iid":
        if args not in (None, ""):
            raise ConfigError(f"partition: iid takes no argument, got {token!r}")
        return "iid", None
    if name == "shards":
        if args is None or args == "":
            raise ConfigError("partition: shards requires a count, e.g. shards(2)")
        k = _int_field("partition", args)
        if k < 1:
            raise ConfigError(f"partition: shard count must be >= 1, got {k}")
        return "shards", k
    raise ConfigError(f"partition: must be iid or shards(K), got {token!r}")


def canonical_method(cfg: ExperimentConfig, token: str) -> tuple[str, float]:
    """The (method, mu) a sweep token runs; a bare token takes ``cfg.mu``."""
    name, mu = parse_method_token(token)
    return name, cfg.mu if mu is None else mu


def canonical_partition(cfg: ExperimentConfig, token: str) -> tuple[str, int]:
    """The (mode, shards_per_client) a sweep token runs; iid keeps ``cfg``'s count."""
    mode, k = parse_partition_token(token)
    return mode, cfg.shards_per_client if k is None else k


def check_sweep_cells(cfg: ExperimentConfig) -> None:
    """Reject sweep tokens that name the same cell as an earlier token.

    Bare tokens resolve against this config, so run it on the suite's base
    config, not on a per-cell copy whose mu or shard count was replaced.
    """
    for key, tokens, canonical in (
        ("methods", cfg.suite_methods, canonical_method),
        ("partitions", cfg.suite_partitions, canonical_partition),
    ):
        seen: dict[tuple, str] = {}
        for t in tokens:
            cell = canonical(cfg, t)
            if cell in seen:
                raise ConfigError(f"{key}: {t!r} duplicates {seen[cell]!r}")
            seen[cell] = t


def parse_seed_list(key: str, text: str) -> tuple[int, ...]:
    """Comma list of distinct non-negative ints."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key}: must list at least one seed")
    seeds = tuple(_int_field(key, s) for s in items)
    if any(s < 0 for s in seeds):
        raise ConfigError(f"{key}: seeds must be >= 0, got {text!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{key}: seeds must be distinct, got {text!r}")
    return seeds


def _parse_dataset(text: str) -> SyntheticData | FileData:
    name, args = _call_form("dataset", text)
    kind = name.strip().lower()
    if kind == "synthetic":
        kwargs = _kwargs_form("dataset", args or "")
        allowed = {
            "n_samples": int,
            "n_classes": int,
            "feature_dim": int,
            "separation": float,
            "test_fraction": float,
        }
        values: dict[str, Any] = {}
        for k, v in kwargs.items():
            if k not in allowed:
                raise ConfigError(f"dataset: unknown synthetic argument {k!r}")
            values[k] = (
                _int_field(f"dataset.{k}", v)
                if allowed[k] is int
                else _float_field(f"dataset.{k}", v)
            )
        return SyntheticData(**values)
    if kind == "file":
        kwargs = _kwargs_form("dataset", args or "")
        if set(kwargs) != {"train", "test"}:
            raise ConfigError("dataset: file requires train= and test= paths")
        if not kwargs["train"] or not kwargs["test"]:
            raise ConfigError("dataset: file paths must be non-empty")
        return FileData(train_path=kwargs["train"], test_path=kwargs["test"])
    raise ConfigError(f"dataset: must be synthetic(...) or file(...), got {text!r}")


_KEYS = (
    "method",
    "mu",
    "n_clients",
    "fraction",
    "rounds",
    "local_epochs",
    "batch_size",
    "learning_rate",
    "partition",
    "dataset",
    "seed",
    "seeds",
    "weighting",
    "methods",
    "partitions",
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; see the module docstring for the grammar."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: {key}: empty value")
        entries[key] = value

    fields: dict[str, Any] = {}
    if "method" in entries:
        name, mu = parse_method_token(entries["method"])
        if mu is not None:
            raise ConfigError(
                "method: set mu through the mu key, not method(...)"
            )
        fields["method"] = name
    if "mu" in entries:
        fields["mu"] = _float_field("mu", entries["mu"])
    if "n_clients" in entries:
        fields["n_clients"] = _int_field("n_clients", entries["n_clients"])
    if "fraction" in entries:
        fields["fraction"] = _float_field("fraction", entries["fraction"])
    if "rounds" in entries:
        fields["rounds"] = _int_field("rounds", entries["rounds"])
    if "local_epochs" in entries:
        fields["local_epochs"] = _int_field("local_epochs", entries["local_epochs"])
    if "batch_size" in entries:
        fields["batch_size"] = _int_field("batch_size", entries["batch_size"])
    if "learning_rate" in entries:
        fields["learning_rate"] = _float_field(
            "learning_rate", entries["learning_rate"]
        )
    if "partition" in entries:
        mode, k = parse_partition_token(entries["partition"])
        fields["partition_mode"] = mode
        if k is not None:
            fields["shards_per_client"] = k
    if "dataset" in entries:
        fields["dataset"] = _parse_dataset(entries["dataset"])
    if "seed" in entries:
        fields["seed"] = _int_field("seed", entries["seed"])
    if "seeds" in entries:
        fields["suite_seeds"] = parse_seed_list("seeds", entries["seeds"])
    if "weighting" in entries:
        fields["weighting"] = entries["weighting"].lower()
    if "methods" in entries:
        tokens = tuple(
            t.strip().lower() for t in entries["methods"].split(",") if t.strip()
        )
        if not tokens:
            raise ConfigError("methods: must list at least one method")
        fields["suite_methods"] = tokens
    if "partitions" in entries:
        tokens = tuple(
            t.strip().lower() for t in entries["partitions"].split(",") if t.strip()
        )
        if not tokens:
            raise ConfigError("partitions: must list at least one partition")
        fields["suite_partitions"] = tokens

    cfg = ExperimentConfig(**fields)
    validate_config(cfg)
    check_sweep_cells(cfg)
    if "mu" in entries and cfg.method == "fedavg":
        warnings.warn("mu is ignored when method = fedavg", stacklevel=2)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Parse a config file."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every field against its documented range; raise ConfigError."""
    if cfg.method not in OBJECTIVES:
        raise ConfigError(f"method: must be one of {OBJECTIVES}, got {cfg.method!r}")
    if not np.isfinite(cfg.mu) or cfg.mu < 0:
        raise ConfigError(f"mu: must be >= 0 and finite, got {cfg.mu}")
    if cfg.n_clients < 1:
        raise ConfigError(f"n_clients: must be >= 1, got {cfg.n_clients}")
    if not 0.0 < cfg.fraction <= 1.0:
        raise ConfigError(f"fraction: must be in (0, 1], got {cfg.fraction}")
    if int(cfg.fraction * cfg.n_clients + 0.5) < 1:
        raise ConfigError(
            f"fraction: {cfg.fraction} of {cfg.n_clients} clients rounds to "
            "zero selected per round"
        )
    if cfg.rounds < 0:
        raise ConfigError(f"rounds: must be >= 0, got {cfg.rounds}")
    if cfg.local_epochs < 1:
        raise ConfigError(f"local_epochs: must be >= 1, got {cfg.local_epochs}")
    if cfg.batch_size < 1:
        raise ConfigError(f"batch_size: must be >= 1, got {cfg.batch_size}")
    if not np.isfinite(cfg.learning_rate) or cfg.learning_rate <= 0:
        raise ConfigError(
            f"learning_rate: must be > 0, got {cfg.learning_rate}"
        )
    if cfg.partition_mode not in ("iid", "shards"):
        raise ConfigError(
            f"partition: must be iid or shards(K), got {cfg.partition_mode!r}"
        )
    if cfg.shards_per_client < 1:
        raise ConfigError(
            f"partition: shard count must be >= 1, got {cfg.shards_per_client}"
        )
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    if not cfg.suite_seeds:
        raise ConfigError("seeds: must list at least one seed")
    if any(s < 0 for s in cfg.suite_seeds):
        raise ConfigError(f"seeds: seeds must be >= 0, got {cfg.suite_seeds}")
    if len(set(cfg.suite_seeds)) != len(cfg.suite_seeds):
        raise ConfigError(f"seeds: seeds must be distinct, got {cfg.suite_seeds}")
    if cfg.weighting not in WEIGHTINGS:
        raise ConfigError(
            f"weighting: must be one of {WEIGHTINGS}, got {cfg.weighting!r}"
        )
    for t in cfg.suite_methods:
        parse_method_token(t)
    for t in cfg.suite_partitions:
        parse_partition_token(t)

    ds = cfg.dataset
    if isinstance(ds, SyntheticData):
        if ds.n_classes < 2:
            raise ConfigError(f"dataset: n_classes must be >= 2, got {ds.n_classes}")
        if ds.feature_dim < ds.n_classes:
            raise ConfigError(
                f"dataset: feature_dim must be >= n_classes, got "
                f"{ds.feature_dim} < {ds.n_classes}"
            )
        if not ds.separation > 0:
            raise ConfigError(f"dataset: separation must be > 0, got {ds.separation}")
        if not 0.0 < ds.test_fraction < 1.0:
            raise ConfigError(
                f"dataset: test_fraction must be in (0, 1), got {ds.test_fraction}"
            )
        n_test = int(round(ds.test_fraction * ds.n_samples))
        n_train = ds.n_samples - n_test
        if n_train < ds.n_classes or n_test < ds.n_classes:
            raise ConfigError(
                f"dataset: {ds.n_samples} samples leave train={n_train}, "
                f"test={n_test}; both must be >= n_classes ({ds.n_classes})"
            )
        _check_partition_feasible(cfg, n_train, ds.n_classes)
    else:
        if not ds.train_path or not ds.test_path:
            raise ConfigError("dataset: file paths must be non-empty")


def _check_partition_feasible(
    cfg: ExperimentConfig, n_train: int, n_classes: int
) -> None:
    if cfg.partition_mode == "iid":
        if cfg.n_clients > n_train:
            raise ConfigError(
                f"partition: {cfg.n_clients} clients cannot split "
                f"{n_train} training samples"
            )
        return
    total = cfg.n_clients * cfg.shards_per_client
    if total > n_train:
        raise ConfigError(
            f"partition: infeasible, {total} shards "
            f"({cfg.n_clients} clients x {cfg.shards_per_client}) exceed "
            f"{n_train} training samples"
        )
    if total < n_classes:
        raise ConfigError(
            f"partition: infeasible, {total} shards cannot cover "
            f"{n_classes} classes with one shard each"
        )


def _dataset_token(ds: SyntheticData | FileData) -> str:
    if isinstance(ds, SyntheticData):
        return (
            f"synthetic(n_samples={ds.n_samples}, n_classes={ds.n_classes}, "
            f"feature_dim={ds.feature_dim}, separation={ds.separation!r}, "
            f"test_fraction={ds.test_fraction!r})"
        )
    return f"file(train={ds.train_path}, test={ds.test_path})"


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key explicit, fixed order, LF line ends.

    Floats render with repr, which round-trips exactly, so
    ``parse_config(serialize_config(cfg)) == cfg`` for any valid config.
    """
    lines = [
        f"method = {cfg.method}",
        f"mu = {cfg.mu!r}",
        f"n_clients = {cfg.n_clients}",
        f"fraction = {cfg.fraction!r}",
        f"rounds = {cfg.rounds}",
        f"local_epochs = {cfg.local_epochs}",
        f"batch_size = {cfg.batch_size}",
        f"learning_rate = {cfg.learning_rate!r}",
        f"partition = {cfg.partition_token()}",
        f"dataset = {_dataset_token(cfg.dataset)}",
        f"seed = {cfg.seed}",
        f"seeds = {', '.join(str(s) for s in cfg.suite_seeds)}",
        f"weighting = {cfg.weighting}",
    ]
    if cfg.suite_methods:
        lines.append(f"methods = {', '.join(cfg.suite_methods)}")
    if cfg.suite_partitions:
        lines.append(f"partitions = {', '.join(cfg.suite_partitions)}")
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """JSON-friendly echo of every field, for run metadata."""
    ds = cfg.dataset
    if isinstance(ds, SyntheticData):
        dataset = {
            "kind": "synthetic",
            "n_samples": ds.n_samples,
            "n_classes": ds.n_classes,
            "feature_dim": ds.feature_dim,
            "separation": ds.separation,
            "test_fraction": ds.test_fraction,
        }
    else:
        dataset = {
            "kind": "file",
            "train_path": ds.train_path,
            "test_path": ds.test_path,
        }
    return {
        "method": cfg.method,
        "mu": cfg.mu,
        "n_clients": cfg.n_clients,
        "fraction": cfg.fraction,
        "rounds": cfg.rounds,
        "local_epochs": cfg.local_epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "partition": cfg.partition_token(),
        "dataset": dataset,
        "seed": cfg.seed,
        "seeds": list(cfg.suite_seeds),
        "weighting": cfg.weighting,
        "methods": list(cfg.suite_methods),
        "partitions": list(cfg.suite_partitions),
    }


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
