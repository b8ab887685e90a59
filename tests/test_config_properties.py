"""Config serialization: the round-trip property and the pinned canonical form."""

import json
import warnings
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsim.config import (
    ExperimentConfig,
    FileData,
    Sweep,
    SyntheticData,
    config_to_dict,
    parse_config,
    serialize_config,
    suite_cells,
)
from fedsim.federation import ExperimentData, prepare_suite

positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
path = st.text("abcXYZ019/._-", min_size=1, max_size=16)


@st.composite
def configs(draw):
    n_classes = draw(st.integers(2, 6))
    dataset = draw(
        st.one_of(
            st.builds(
                SyntheticData,
                n_samples=st.integers(2_000, 100_000),
                n_classes=st.just(n_classes),
                feature_dim=st.integers(n_classes, 32),
                separation=positive,
                test_fraction=st.floats(0.05, 0.5),
            ),
            st.builds(FileData, path, path),
        )
    )
    n_clients = draw(st.integers(1, 50))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    assume(int(fraction * n_clients + 0.5) >= 1)
    mode = draw(st.sampled_from(["iid", "shards"]))
    # "partition = iid" carries no shard count, so an iid config re-parses
    # with the default one.
    k = draw(st.integers(1, 5)) if mode == "shards" else 2
    return ExperimentConfig(
        method=draw(st.sampled_from(["fedavg", "fedprox"])),
        mu=draw(st.floats(min_value=0.0, max_value=1e6)),
        n_clients=n_clients,
        fraction=fraction,
        rounds=draw(st.integers(0, 1000)),
        local_epochs=draw(st.integers(1, 10)),
        batch_size=draw(st.integers(1, 512)),
        learning_rate=draw(positive),
        partition_mode=mode,
        shards_per_client=k,
        dataset=dataset,
        seed=draw(st.integers(0, 2**63)),
        weighting=draw(st.sampled_from(["datasize", "uniform"])),
    )


@st.composite
def sweeps(draw, mu: float):
    """A sweep whose cells are distinct around a base config at ``mu``."""
    mus = draw(st.lists(st.floats(min_value=0.0, max_value=1e3), unique=True, max_size=3))
    bare = draw(st.booleans())
    methods = [f"fedprox({m!r})" for m in mus if not (bare and m == mu)]
    methods += ["fedprox"] * bare + ["fedavg"] * draw(st.booleans())
    partitions = [f"shards({s})" for s in draw(st.sets(st.integers(1, 5), max_size=3))]
    partitions += ["iid"] * draw(st.booleans())
    return Sweep(
        seeds=tuple(draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=5, unique=True))),
        methods=tuple(draw(st.permutations(methods))),
        partitions=tuple(draw(st.permutations(partitions))),
    )


def suites():
    """(base config, sweep) pairs."""
    return configs().flatmap(lambda cfg: st.tuples(st.just(cfg), sweeps(cfg.mu)))


@settings(max_examples=100, deadline=None)
@given(cfg=configs())
def test_serialize_parse_roundtrip_property(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fedavg configs warn that mu is ignored
        assert parse_config(serialize_config(cfg)) == (cfg, Sweep())
    json.dumps(config_to_dict(cfg))


@settings(max_examples=100, deadline=None)
@given(suite=suites())
def test_every_config_a_suite_builds_round_trips(suite):
    # A cell's or a run's config describes that run alone, so the config a
    # run echoes loads back as itself.  No data is built: only configs are.
    cfg, sweep = suite
    unbuilt = ExperimentData(train=None, test=None, splits=())
    with mock.patch("fedsim.federation.prepare_experiment", return_value=unbuilt):
        runs = [rcfg for _, _, cell_runs in prepare_suite(cfg, sweep)
                for rcfg, _ in cell_runs]
    cells = [cell for _, _, cell in suite_cells(cfg, sweep)]
    assert [r.seed for r in runs] == list(sweep.seeds) * len(cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fedavg configs warn that mu is ignored
        for built in cells + runs:
            assert parse_config(serialize_config(built)) == (built, Sweep())
            assert not {"seeds", "methods", "partitions"} & set(config_to_dict(built))


FULL = """\
method = fedprox
mu = 0.3
n_clients = 8
fraction = 0.25
rounds = 12
local_epochs = 3
batch_size = 32
learning_rate = 0.05
partition = shards(3)
dataset = synthetic(n_samples=900, n_classes=3, feature_dim=16, separation=2.5, test_fraction=0.2)
seed = 4
weighting = uniform
"""


def test_canonical_form_is_pinned():
    # config_fingerprint hashes this text, so run identities depend on it
    # byte for byte: key order, spacing and number formatting.
    cfg, _ = parse_config(FULL)
    assert serialize_config(cfg) == FULL
    assert config_to_dict(cfg) == {
        "method": "fedprox",
        "mu": 0.3,
        "n_clients": 8,
        "fraction": 0.25,
        "rounds": 12,
        "local_epochs": 3,
        "batch_size": 32,
        "learning_rate": 0.05,
        "partition": "shards(3)",
        "dataset": {
            "kind": "synthetic",
            "n_samples": 900,
            "n_classes": 3,
            "feature_dim": 16,
            "separation": 2.5,
            "test_fraction": 0.2,
        },
        "seed": 4,
        "weighting": "uniform",
    }
    # A file's sweep keys are no part of its run's canonical form.
    swept, _ = parse_config(FULL + "seeds = 5, 6\nmethods = fedavg, fedprox(0.1)\n"
                            "partitions = iid, shards(2)\n")
    assert swept == cfg and serialize_config(swept) == FULL
