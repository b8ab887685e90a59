"""Config serialization: the round-trip property and the pinned canonical form."""

import json
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsim.config import (
    ExperimentConfig,
    FileData,
    SyntheticData,
    config_to_dict,
    parse_config,
    serialize_config,
)

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
    assume(mode == "iid" or n_clients * k >= n_classes)
    mu = draw(st.floats(min_value=0.0, max_value=1e6))

    mus = draw(st.lists(st.floats(min_value=0.0, max_value=1e3), unique=True, max_size=3))
    bare = draw(st.booleans())
    methods = [f"fedprox({m!r})" for m in mus if not (bare and m == mu)]
    methods += ["fedprox"] * bare + ["fedavg"] * draw(st.booleans())
    partitions = [f"shards({s})" for s in draw(st.sets(st.integers(1, 5), max_size=3))]
    partitions += ["iid"] * draw(st.booleans())
    return ExperimentConfig(
        method=draw(st.sampled_from(["fedavg", "fedprox"])),
        mu=mu,
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
        suite_seeds=tuple(
            draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=5, unique=True))
        ),
        weighting=draw(st.sampled_from(["datasize", "uniform"])),
        suite_methods=tuple(draw(st.permutations(methods))),
        suite_partitions=tuple(draw(st.permutations(partitions))),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=configs())
def test_serialize_parse_roundtrip_property(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fedavg configs warn that mu is ignored
        assert parse_config(serialize_config(cfg)) == cfg
    json.dumps(config_to_dict(cfg))


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
seeds = 5, 6
weighting = uniform
methods = fedavg, fedprox(0.1)
partitions = iid, shards(2)
"""


def test_canonical_form_is_pinned():
    # config_fingerprint hashes this text, so run identities depend on it
    # byte for byte: key order, spacing and number formatting.
    cfg = parse_config(FULL)
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
        "seeds": [5, 6],
        "weighting": "uniform",
        "methods": ["fedavg", "fedprox(0.1)"],
        "partitions": ["iid", "shards(2)"],
    }
    bare = serialize_config(ExperimentConfig())
    assert "\nmethods" not in bare and "\npartitions" not in bare
