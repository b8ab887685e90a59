"""Experiment configuration: parsing, validation, canonical serialization.

A config file describes one run, an ExperimentConfig, and optionally the
sweep a suite runs around it, a Sweep.  Each checks its own fields whenever
it is built, by parse_config, its constructor or ``dataclasses.replace``,
with the same ConfigError each way.  What a dataset can hold is checked when
its data is built (see federation.prepare_experiment).

Config files are flat text, one ``key = value`` setting per line.  ``#``
starts a comment and blank lines are ignored.  Run keys:

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
    weighting      datasize | uniform                    (default datasize)

Sweep keys, read by the suite alone:

    seeds          comma list of distinct ints >= 0      (default 0,1,2)
    methods        comma list of method tokens; a token is
                   fedavg, fedprox, or fedprox(MU)       (default: method)
    partitions     comma list of partition tokens        (default: partition)

Two sweep tokens that name the same cell, such as fedprox(0.3) and
fedprox(.3), or a bare fedprox and fedprox(MU) at the config's mu, are
rejected when the file is read.

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
from typing import Any, Callable, NamedTuple

import numpy as np

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "FileData",
    "Sweep",
    "SyntheticData",
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

    def __post_init__(self) -> None:
        if not self.train_path or not self.test_path:
            raise ConfigError("dataset: file paths must be non-empty")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one federated run.

    Defaults mirror the reference setup: FedAvg over 10 clients, half of them
    sampled per round, 100 rounds of 2 local epochs with batch size 64 and
    learning rate 0.01, and fedprox's mu at 0.2.  Building one checks every
    field and raises ConfigError at the first rule broken.
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
    weighting: str = "datasize"

    def __post_init__(self) -> None:
        _validate(self)

    def method_token(self) -> str:
        return "fedavg" if self.method == "fedavg" else f"fedprox({self.mu!r})"

    def partition_token(self) -> str:
        if self.partition_mode == "iid":
            return "iid"
        return f"shards({self.shards_per_client})"


@dataclass(frozen=True)
class Sweep:
    """What a suite varies around its base config: the seeds it runs, and
    the method and partition tokens of its cells; empty lists mean the base
    config's own method or partition (see suite_cells)."""

    seeds: tuple[int, ...] = (0, 1, 2)
    methods: tuple[str, ...] = ()
    partitions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("seeds: must list at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds: seeds must be >= 0, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: seeds must be distinct, got {self.seeds}")


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


def _resolve(key: str, tokens, parse_token, default) -> dict[tuple, str]:
    """Resolved cell -> the token naming it; a bare token takes ``default``."""
    seen: dict[tuple, str] = {}
    parsed = [parse_token(t) for t in tokens]  # every token parses before a repeat
    for t, (name, arg) in zip(tokens, parsed):
        cell = (name, default if arg is None else arg)
        if cell in seen:
            raise ConfigError(f"{key}: {t!r} duplicates {seen[cell]!r}")
        seen[cell] = t
    return seen


def suite_cells(cfg: ExperimentConfig,
                sweep: Sweep) -> list[tuple[str, str, ExperimentConfig]]:
    """The sweep's cells as (method token, partition token, cell config).

    Methods are the outer loop.  Empty sweep lists default to the config's
    own method and partition, and a bare fedprox takes its mu.  An iid cell
    keeps the default shard count, as ``partition = iid`` names none.
    """
    methods = _resolve("methods", sweep.methods or (cfg.method_token(),),
                       parse_method_token, cfg.mu)
    partitions = _resolve("partitions", sweep.partitions or (cfg.partition_token(),),
                          parse_partition_token, ExperimentConfig.shards_per_client)
    return [
        (mt, pt, replace(cfg, method=name, mu=mu, partition_mode=mode, shards_per_client=k))
        for (name, mu), mt in methods.items()
        for (mode, k), pt in partitions.items()
    ]


def parse_seed_list(key: str, text: str) -> tuple[int, ...]:
    """Comma list of ints; Sweep checks them."""
    return tuple(_number(key, s.strip(), int) for s in text.split(",") if s.strip())


def _parse_tokens(key: str, text: str) -> tuple[str, ...]:
    """Comma list of sweep tokens; suite_cells checks them."""
    tokens = tuple(t.strip().lower() for t in text.split(",") if t.strip())
    if not tokens:
        raise ConfigError(f"{key}: must list at least one {key[:-1]}")
    return tokens


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
    text: Callable[[ExperimentConfig], str]  # canonical value
    echo: Callable[[ExperimentConfig], Any]  # its config_to_dict value
    check: Callable[[ExperimentConfig], object] = lambda cfg: None


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


# One row per key, in canonical order.  Parsing, the checks each
# ExperimentConfig runs when built, serialize_config and config_to_dict all
# walk this table.
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
    _field("weighting", str, lambda v: v not in WEIGHTINGS,
           f"must be one of {WEIGHTINGS}"),
)}

# The sweep keys: (key, value text) -> the Sweep field of the same name.
_SWEEP_KEYS = {"seeds": parse_seed_list, "methods": _parse_tokens, "partitions": _parse_tokens}


def parse_config(text: str) -> tuple[ExperimentConfig, Sweep]:
    """Parse config text into (run config, sweep); see the module docstring."""
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
        if key not in _TABLE and key not in _SWEEP_KEYS:
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
    sweep = Sweep(**{k: parse(k, entries[k]) for k, parse in _SWEEP_KEYS.items() if k in entries})
    cfg = ExperimentConfig(**fields)
    suite_cells(cfg, sweep)  # rejects a sweep token, or two naming one cell
    bare_fedprox = ("fedprox", None) in map(parse_method_token, sweep.methods)
    if "mu" in entries and cfg.method == "fedavg" and not bare_fedprox:
        warnings.warn("mu is ignored when method = fedavg", stacklevel=2)
    return cfg, sweep


def load_config(path: str) -> tuple[ExperimentConfig, Sweep]:
    """Parse a config file into (run config, sweep)."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse_config(f.read())
        except UnicodeDecodeError as exc:  # read() decodes the whole file at once
            raise ConfigError(f"{path}: {exc}") from None


def _validate(cfg: ExperimentConfig) -> None:
    """Check every field against its documented range; raise ConfigError."""
    for k in _TABLE.values():
        k.check(cfg)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: every key explicit, fixed order, LF line ends.

    Floats render with repr, which round-trips exactly, so
    ``parse_config(serialize_config(cfg))[0] == cfg`` for any config whose
    iid partition keeps the default shard count (``iid`` names none), which
    every config suite_cells builds does.
    """
    return "".join(f"{n} = {k.text(cfg)}\n" for n, k in _TABLE.items())


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    """JSON-friendly echo of every field, for run metadata."""
    return {name: k.echo(cfg) for name, k in _TABLE.items()}


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
