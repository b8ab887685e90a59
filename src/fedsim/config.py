"""Experiment configuration: parsing, validation, canonical serialization.

Config files are flat text, one ``key = value`` setting per line.  ``#``
starts a comment and blank lines are ignored.  Keys:

    method         fedavg | fedprox                      (default fedavg)
    mu             fedprox's proximal coefficient, >= 0  (default 0.2)
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
commas or '#'.  A relative file() path resolves against the working
directory, not against the config file's directory.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "FileData",
    "SyntheticData",
    "check_seeds",
    "clients_per_round",
    "config_fingerprint",
    "config_to_dict",
    "load_config",
    "parse_config",
    "parse_method_token",
    "parse_partition_token",
    "parse_seed_list",
    "serialize_config",
    "suite_cells",
    "validate_config",
]

OBJECTIVES = ("fedavg", "fedprox")
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

    def method_token(self) -> str:
        return "fedavg" if self.method == "fedavg" else f"fedprox({self.mu!r})"

    def partition_token(self) -> str:
        if self.partition_mode == "iid":
            return "iid"
        return f"shards({self.shards_per_client})"


def _number(key: str, text: str, kind: type = float) -> Any:
    """``text`` as a ``kind`` (int or float), which must be finite."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {noun}, got {text!r}") from None
    if kind is float and not np.isfinite(value):
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
    for item in args.split(",") if args else ():
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
    mu = _number("method", args)
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
        k = _number("partition", args, int)
        if k < 1:
            raise ConfigError(f"partition: shard count must be >= 1, got {k}")
        return "shards", k
    raise ConfigError(f"partition: must be iid or shards(K), got {token!r}")


def suite_cells(cfg: ExperimentConfig) -> list[tuple[str, str, ExperimentConfig]]:
    """The suite's cells as (method token, partition token, cell config).

    Methods are the outer loop.  The sweep lists default to the config's own
    method and partition, and a bare token takes the config's mu or shard
    count, so pass the suite's base config.  A token that names the same cell
    as an earlier one raises ConfigError; the cell configs are not validated.
    """
    def resolve(key, tokens, parse_token, default) -> dict[tuple, str]:
        seen: dict[tuple, str] = {}  # resolved cell -> the token that named it
        for t in tokens:
            name, arg = parse_token(t)
            cell = (name, default if arg is None else arg)
            if cell in seen:
                raise ConfigError(f"{key}: {t!r} duplicates {seen[cell]!r}")
            seen[cell] = t
        return seen

    methods = resolve("methods", cfg.suite_methods or (cfg.method_token(),),
                      parse_method_token, cfg.mu)
    partitions = resolve("partitions", cfg.suite_partitions or (cfg.partition_token(),),
                         parse_partition_token, cfg.shards_per_client)
    return [
        (mt, pt, replace(cfg, method=name, mu=mu, partition_mode=mode,
                         shards_per_client=k))
        for (name, mu), mt in methods.items()
        for (mode, k), pt in partitions.items()
    ]


def check_seeds(seeds: Sequence[int], got: object, key: str = "seeds") -> None:
    """The seed-list rule: at least one seed, each >= 0, all distinct."""
    if not seeds:
        raise ConfigError(f"{key}: must list at least one seed")
    if any(s < 0 for s in seeds):
        raise ConfigError(f"{key}: seeds must be >= 0, got {got}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{key}: seeds must be distinct, got {got}")


def parse_seed_list(key: str, text: str) -> tuple[int, ...]:
    """Comma list of distinct non-negative ints."""
    seeds = tuple(_number(key, s.strip(), int) for s in text.split(",") if s.strip())
    check_seeds(seeds, repr(text), key)
    return seeds


def _parse_dataset(text: str) -> SyntheticData | FileData:
    name, args = _call_form("dataset", text)
    kind = name.strip().lower()
    if kind == "synthetic":
        defaults = asdict(SyntheticData())
        values: dict[str, Any] = {}
        for k, v in _kwargs_form("dataset", args or "").items():
            if k not in defaults:
                raise ConfigError(f"dataset: unknown synthetic argument {k!r}")
            values[k] = _number(f"dataset.{k}", v, type(defaults[k]))
        return SyntheticData(**values)
    if kind == "file":
        kwargs = _kwargs_form("dataset", args or "")
        if set(kwargs) != {"train", "test"}:
            raise ConfigError("dataset: file requires train= and test= paths")
        if not kwargs["train"] or not kwargs["test"]:
            raise ConfigError("dataset: file paths must be non-empty")
        return FileData(train_path=kwargs["train"], test_path=kwargs["test"])
    raise ConfigError(f"dataset: must be synthetic(...) or file(...), got {text!r}")


def _dataset_token(ds: SyntheticData | FileData) -> str:
    if isinstance(ds, SyntheticData):
        return (
            f"synthetic(n_samples={ds.n_samples}, n_classes={ds.n_classes}, "
            f"feature_dim={ds.feature_dim}, separation={ds.separation!r}, "
            f"test_fraction={ds.test_fraction!r})"
        )
    return f"file(train={ds.train_path}, test={ds.test_path})"


def _dataset_echo(ds: SyntheticData | FileData) -> dict[str, Any]:
    kind = "synthetic" if isinstance(ds, SyntheticData) else "file"
    return {"kind": kind, **asdict(ds)}


def _parse_method_key(text: str) -> dict[str, Any]:
    name, mu = parse_method_token(text)
    if mu is not None:
        raise ConfigError("method: set mu through the mu key, not method(...)")
    return {"method": name}


def _parse_partition_key(text: str) -> dict[str, Any]:
    mode, k = parse_partition_token(text)
    return {"partition_mode": mode} | ({} if k is None else {"shards_per_client": k})


def clients_per_round(n_clients: int, fraction: float) -> int:
    """Clients selected per round: ``fraction * n_clients`` rounded half-up."""
    return math.floor(fraction * n_clients + 0.5)


def _check_selected(cfg: ExperimentConfig) -> None:
    if clients_per_round(cfg.n_clients, cfg.fraction) < 1:
        raise ConfigError(f"fraction: {cfg.fraction} of {cfg.n_clients} clients "
                          "rounds to zero selected per round")


def _check_partition(cfg: ExperimentConfig) -> None:
    mode, k = cfg.partition_mode, cfg.shards_per_client
    if mode not in ("iid", "shards"):
        raise ConfigError(f"partition: must be iid or shards(K), got {mode!r}")
    if k < 1:
        raise ConfigError(f"partition: shard count must be >= 1, got {k}")


class _Key(NamedTuple):
    """One config key: how its text sets fields, renders back and is checked."""

    name: str
    parse: Callable[[str], dict[str, Any]]  # value text -> ExperimentConfig fields
    text: Callable[[ExperimentConfig], str | None]  # canonical value; None: no line
    echo: Callable[[ExperimentConfig], Any]  # its config_to_dict value
    check: Callable[[ExperimentConfig], None] = lambda cfg: None


def _field(name, kind, bad, rule, parse=None, then=lambda cfg: None) -> _Key:
    """A key held in field ``name`` of type ``kind``; ``bad(value)`` breaks ``rule``."""
    def parse_field(text: str) -> dict[str, Any]:
        return {name: text.lower() if kind is str else _number(name, text, kind)}

    def check(cfg: ExperimentConfig) -> None:
        value = getattr(cfg, name)
        if bad(value):
            got = repr(value) if kind is str else value
            raise ConfigError(f"{name}: {rule}, got {got}")
        then(cfg)

    return _Key(name, parse or parse_field,
                lambda cfg: (repr if kind is float else str)(getattr(cfg, name)),
                lambda cfg: getattr(cfg, name), check)


def _sweep(name: str, attr: str, parse_token: Callable) -> _Key:
    """A comma list of sweep tokens; an empty list writes no line."""
    def parse(text: str) -> dict[str, Any]:
        tokens = tuple(t.strip().lower() for t in text.split(",") if t.strip())
        if not tokens:
            raise ConfigError(f"{name}: must list at least one {name[:-1]}")
        return {attr: tokens}

    def check(cfg: ExperimentConfig) -> None:
        for t in getattr(cfg, attr):
            parse_token(t)

    return _Key(name, parse, lambda cfg: ", ".join(getattr(cfg, attr)) or None,
                lambda cfg: list(getattr(cfg, attr)), check)


# One row per key, in canonical order.  Parsing, validate_config's per-key
# checks, serialize_config and config_to_dict all walk this table.  The
# dataset's checks come after it, in validate_config.
_TABLE = {k.name: k for k in (
    _field("method", str, lambda v: v not in OBJECTIVES, f"must be one of {OBJECTIVES}",
           parse=_parse_method_key),
    _field("mu", float, lambda v: not 0 <= v < np.inf, "must be >= 0 and finite"),
    _field("n_clients", int, lambda v: v < 1, "must be >= 1"),
    _field("fraction", float, lambda v: not 0.0 < v <= 1.0, "must be in (0, 1]",
           then=_check_selected),
    _field("rounds", int, lambda v: v < 0, "must be >= 0"),
    _field("local_epochs", int, lambda v: v < 1, "must be >= 1"),
    _field("batch_size", int, lambda v: v < 1, "must be >= 1"),
    _field("learning_rate", float, lambda v: not 0 < v < np.inf, "must be > 0"),
    _Key("partition", _parse_partition_key, ExperimentConfig.partition_token,
         ExperimentConfig.partition_token, _check_partition),
    _Key("dataset", lambda t: {"dataset": _parse_dataset(t)},
         lambda c: _dataset_token(c.dataset), lambda c: _dataset_echo(c.dataset)),
    _field("seed", int, lambda v: v < 0, "must be >= 0"),
    _Key("seeds", lambda text: {"suite_seeds": parse_seed_list("seeds", text)},
         lambda cfg: ", ".join(str(s) for s in cfg.suite_seeds),
         lambda cfg: list(cfg.suite_seeds),
         lambda cfg: check_seeds(cfg.suite_seeds, cfg.suite_seeds)),
    _field("weighting", str, lambda v: v not in WEIGHTINGS,
           f"must be one of {WEIGHTINGS}"),
    _sweep("methods", "suite_methods", parse_method_token),
    _sweep("partitions", "suite_partitions", parse_partition_token),
)}


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
        if key not in _TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: {key}: empty value")
        entries[key] = value

    fields: dict[str, Any] = {}
    for k in _TABLE.values():
        if k.name in entries:
            fields.update(k.parse(entries[k.name]))
    cfg = ExperimentConfig(**fields)
    validate_config(cfg)
    suite_cells(cfg)  # rejects duplicate cells; the suite validates each cell
    if "mu" in entries and cfg.method == "fedavg":
        warnings.warn("mu is ignored when method = fedavg", stacklevel=2)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Parse a config file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse_config(f.read())
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once
            raise ConfigError(f"{path}: {exc}") from None


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every field against its documented range; raise ConfigError."""
    for k in _TABLE.values():
        k.check(cfg)
    ds = cfg.dataset
    if not isinstance(ds, SyntheticData):
        if not ds.train_path or not ds.test_path:
            raise ConfigError("dataset: file paths must be non-empty")
        return
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
    total = cfg.n_clients * cfg.shards_per_client
    if cfg.partition_mode == "iid" and cfg.n_clients > n_train:
        raise ConfigError(
            f"partition: {cfg.n_clients} clients cannot split "
            f"{n_train} training samples"
        )
    if cfg.partition_mode == "shards" and total > n_train:
        raise ConfigError(
            f"partition: infeasible, {total} shards ({cfg.n_clients} clients x "
            f"{cfg.shards_per_client}) exceed {n_train} training samples"
        )
    if cfg.partition_mode == "shards" and total < ds.n_classes:
        raise ConfigError(
            f"partition: infeasible, {total} shards cannot cover "
            f"{ds.n_classes} classes with one shard each"
        )


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key explicit, fixed order, LF line ends.

    Floats render with repr, which round-trips exactly, so
    ``parse_config(serialize_config(cfg)) == cfg`` for any valid config whose
    iid partition keeps the default shard count (``iid`` names none).
    """
    lines = [f"{n} = {v}" for n, k in _TABLE.items() if (v := k.text(cfg)) is not None]
    return "\n".join(lines) + "\n"


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """JSON-friendly echo of every field, for run metadata."""
    return {name: k.echo(cfg) for name, k in _TABLE.items()}


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
