"""Config grammar: parsing, validation, serialization, fingerprints."""

import json
import warnings
from dataclasses import replace

import pytest

from fedsim.config import (
    ConfigError,
    ExperimentConfig,
    FileData,
    Sweep,
    SyntheticData,
    config_fingerprint,
    config_to_dict,
    load_config,
    parse_config,
    parse_method_token,
    parse_partition_token,
    parse_seed_list,
    serialize_config,
    suite_cells,
)
from fedsim.federation import prepare_experiment, prepare_suite


def test_empty_config_gives_defaults():
    cfg, sweep = parse_config("")
    assert cfg.method == "fedavg"
    assert cfg.mu == 0.2
    assert cfg.n_clients == 10
    assert cfg.fraction == 0.5
    assert cfg.rounds == 100
    assert cfg.local_epochs == 2
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 0.01
    assert cfg.partition_mode == "iid"
    assert cfg.shards_per_client == 2
    assert cfg.dataset == SyntheticData(5000, 4, 16, 6.0, 0.2)
    assert cfg.seed == 0
    assert cfg.weighting == "datasize"
    assert sweep == Sweep(seeds=(0, 1, 2), methods=(), partitions=())


def test_comments_blanks_and_case_are_tolerated():
    cfg, _ = parse_config(
        """
        # a comment line
        Method = fedprox
        ROUNDS = 7   # trailing comment

        seed=3
        """
    )
    assert cfg.method == "fedprox"
    assert cfg.rounds == 7
    assert cfg.seed == 3


def test_line_level_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 1: unknown key 'color'"):
        parse_config("color = red")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
        parse_config("seed = 1\nrounds = 2\nseed = 4")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("just some words")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("seed =")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("rounds = many")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("learning_rate = fast")
    with pytest.raises(ConfigError, match="finite"):
        parse_config("mu = inf")


def test_method_token_forms():
    assert parse_method_token("fedavg") == ("fedavg", None)
    assert parse_method_token("fedprox") == ("fedprox", None)
    assert parse_method_token("FedProx(0.3)") == ("fedprox", 0.3)
    with pytest.raises(ConfigError, match="fedavg takes no argument"):
        parse_method_token("fedavg(1)")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_method_token("sgd")
    with pytest.raises(ConfigError, match="mu must be >= 0"):
        parse_method_token("fedprox(-1)")
    with pytest.raises(ConfigError, match="unbalanced"):
        parse_method_token("fedprox(0.3")


def test_method_key_rejects_inline_mu():
    with pytest.raises(ConfigError, match="mu key"):
        parse_config("method = fedprox(0.2)")


def test_partition_token_forms():
    assert parse_partition_token("iid") == ("iid", None)
    assert parse_partition_token("shards(2)") == ("shards", 2)
    assert parse_partition_token("Shards(4)") == ("shards", 4)
    with pytest.raises(ConfigError, match="iid takes no argument"):
        parse_partition_token("iid(3)")
    with pytest.raises(ConfigError, match="requires a count"):
        parse_partition_token("shards()")
    with pytest.raises(ConfigError, match=">= 1"):
        parse_partition_token("shards(0)")
    with pytest.raises(ConfigError, match="iid or shards"):
        parse_partition_token("dirichlet")


def test_partition_key_sets_mode_and_count():
    cfg, _ = parse_config("partition = shards(3)")
    assert cfg.partition_mode == "shards"
    assert cfg.shards_per_client == 3


def test_dataset_synthetic_kwargs():
    cfg, _ = parse_config("dataset = synthetic(n_samples=800, separation=2.5)")
    assert cfg.dataset == SyntheticData(n_samples=800, separation=2.5)
    assert parse_config("dataset = synthetic()")[0].dataset == SyntheticData()
    with pytest.raises(ConfigError, match="unknown synthetic argument"):
        parse_config("dataset = synthetic(size=10)")
    with pytest.raises(ConfigError, match="expected name=value"):
        parse_config("dataset = synthetic(800)")
    with pytest.raises(ConfigError, match="duplicate argument"):
        parse_config("dataset = synthetic(n_samples=1, n_samples=2)")
    with pytest.raises(ConfigError, match="synthetic"):
        parse_config("dataset = mnist")


def test_dataset_file_form():
    cfg, _ = parse_config("dataset = file(train=/tmp/a.csv, test=/tmp/b.csv)")
    assert cfg.dataset == FileData("/tmp/a.csv", "/tmp/b.csv")
    with pytest.raises(ConfigError, match="train= and test="):
        parse_config("dataset = file(train=/tmp/a.csv)")
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config("dataset = file(train=, test=)")
    with pytest.raises(ConfigError, match="^dataset: file paths must be non-empty$"):
        FileData("a.csv", "")


def test_seed_list_parsing():
    assert parse_seed_list("seeds", "0, 4,2") == (0, 4, 2)
    assert parse_config("seeds = 0, 4,2")[1].seeds == (0, 4, 2)
    with pytest.raises(ConfigError, match="^seeds: seeds must be distinct, got \\(1, 1\\)$"):
        parse_config("seeds = 1,1")
    with pytest.raises(ConfigError, match="^seeds: seeds must be >= 0, got \\(0, -2\\)$"):
        parse_config("seeds = 0,-2")
    with pytest.raises(ConfigError, match="^seeds: must list at least one seed$"):
        parse_config("seeds = , ")
    with pytest.raises(ConfigError, match="integer"):
        parse_seed_list("seeds", "0,x")


def test_sweep_keys():
    cfg, sweep = parse_config(
        "methods = fedavg, fedprox(0.3)\npartitions = iid, shards(2)"
    )
    assert cfg == ExperimentConfig()
    assert sweep.methods == ("fedavg", "fedprox(0.3)")
    assert sweep.partitions == ("iid", "shards(2)")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config("methods = fedavg, adam")
    with pytest.raises(ConfigError, match="must be one of"):  # a bad token before a repeat
        parse_config("methods = fedavg, fedavg, adam")
    with pytest.raises(ConfigError, match="iid or shards"):
        parse_config("partitions = pathological")


@pytest.mark.parametrize(
    "text,key",
    [
        ("methods = fedavg, fedavg", "methods"),
        ("methods = fedprox(0.3), fedprox(.3)", "methods"),
        ("method = fedprox\nmu = 0.3\nmethods = fedprox, fedprox(0.30)", "methods"),
        ("partitions = shards(2), iid, shards(02)", "partitions"),
        ("partitions = iid, IID", "partitions"),
    ],
)
def test_duplicate_sweep_cells_name_the_key(text, key):
    with pytest.raises(ConfigError, match=f"^{key}: '.+' duplicates '.+'$"):
        parse_config(text)


def test_a_config_with_duplicate_sweep_cells_cannot_be_built():
    with pytest.raises(ConfigError, match="^methods: 'fedavg' duplicates 'fedavg'$"):
        suite_cells(ExperimentConfig(), Sweep(methods=("fedavg", "fedavg")))
    # At mu 0.3 a bare fedprox is fedprox(0.3), however the sweep is built.
    twins = Sweep(methods=("fedprox", "fedprox(0.3)"))
    with pytest.raises(ConfigError, match="^methods: 'fedprox\\(0.3\\)' duplicates"):
        suite_cells(ExperimentConfig(method="fedprox", mu=0.3), twins)
    # At the default mu they are two cells, and each cell's config loads back
    # from its own serialization.
    cells = suite_cells(ExperimentConfig(method="fedprox"), twins)
    assert [c.mu for _, _, c in cells] == [0.2, 0.3]
    for _, _, cell in cells:
        assert parse_config(serialize_config(cell)) == (cell, Sweep())


def test_distinct_sweep_tokens_keep_their_text():
    cfg, sweep = parse_config(
        "methods = fedavg, fedprox, fedprox(.3), fedprox(0)\n"
        "partitions = iid, shards(1), shards(2)"
    )
    assert sweep.methods == ("fedavg", "fedprox", "fedprox(.3)", "fedprox(0)")
    cells = suite_cells(cfg, sweep)
    assert [(mt, pt) for mt, pt, _ in cells[:3]] == [
        ("fedavg", "iid"), ("fedavg", "shards(1)"), ("fedavg", "shards(2)")
    ]
    runs = {(mt, pt): (c.method, c.mu, c.partition_mode, c.shards_per_client)
            for mt, pt, c in cells}
    assert runs[("fedprox(.3)", "shards(2)")] == ("fedprox", 0.3, "shards", 2)
    assert runs[("fedprox", "iid")] == ("fedprox", cfg.mu, "iid", cfg.shards_per_client)
    assert runs[("fedavg", "shards(1)")][:2] == ("fedavg", cfg.mu)
    assert len(cells) == 12


def test_suite_cells_default_to_the_config_and_resolve_tokens():
    cfg, sweep = parse_config("method = fedprox\nmu = 0.3\npartition = shards(3)")
    ((mt, pt, cell),) = suite_cells(cfg, sweep)
    assert (mt, pt) == ("fedprox(0.3)", "shards(3)")
    assert cell == cfg
    sweep = replace(sweep, partitions=("Shards(02)", "iid"))
    # iid names no shard count, so its cell keeps the default, not the base's 3.
    assert [c.shards_per_client for _, _, c in suite_cells(cfg, sweep)] == [2, 2]
    with pytest.raises(ConfigError, match="^partitions: 'shards\\(2\\)' duplicates"):
        suite_cells(cfg, replace(sweep, partitions=("shards(02)", "shards(2)")))


def test_parse_config_leaves_sweep_cells_unvalidated():
    # 10 clients x 1000 shards exceed the 4000 training samples; the cell's
    # config builds, and only preparing its data rejects it.
    cfg, sweep = parse_config("partitions = iid, shards(1000)")
    assert sweep.partitions == ("iid", "shards(1000)")
    assert [c.shards_per_client for _, _, c in suite_cells(cfg, sweep)] == [2, 1000]
    with pytest.raises(ConfigError, match="^partition: 10000 shards cannot be built "
                                          "from 4000 samples$"):
        prepare_suite(cfg, replace(sweep, seeds=(0,)))


def test_mu_warning_only_for_fedavg():
    with pytest.warns(UserWarning, match="mu is ignored"):
        parse_config("method = fedavg\nmu = 0.5")
    # No run the file describes reads mu: the sweep runs fedavg or pins mu.
    for methods in ("fedavg", "fedavg, fedprox(0.3)", "fedprox(0.5)"):
        with pytest.warns(UserWarning, match="^mu is ignored when method = fedavg$"):
            parse_config(f"mu = 0.3\nmethods = {methods}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config("method = fedprox\nmu = 0.5")
        parse_config("method = fedavg")
        # A bare fedprox in the sweep trains at the file's mu.
        for methods in ("fedprox", "fedavg, FedProx()", "fedprox(0.1), fedprox"):
            cfg, sweep = parse_config(f"mu = 0.3\nmethods = {methods}")
            assert 0.3 in [c.mu for mt, _, c in suite_cells(cfg, sweep) if mt != "fedavg"]


# What a dataset can hold is the data layer's rule: these configs build, and
# preparing their data raises, naming the dataset or partition key.
DATA_RULES = [
    ("dataset = synthetic(n_classes=1)", "n_classes"),
    ("dataset = synthetic(n_classes=8, feature_dim=4)", "feature_dim"),
    ("dataset = synthetic(separation=0)", "separation"),
    ("dataset = synthetic(test_fraction=0)", "test_fraction"),
    ("dataset = synthetic(n_samples=6)", "must be >= n_classes"),
    ("dataset = synthetic(n_samples=50)\npartition = shards(5)", "cannot be built"),
    ("n_clients = 1\npartition = shards(2)\nfraction = 1", "one shard per class"),
    ("dataset = synthetic(n_samples=50)\nn_clients = 45\nfraction = 1", "cannot split"),
]


@pytest.mark.parametrize(
    "text,message",
    [
        ("fraction = 0", "fraction"),
        ("fraction = 1.2", "fraction"),
        ("n_clients = 10\nfraction = 0.04", "rounds to zero"),
        ("rounds = -1", "rounds"),
        ("local_epochs = 0", "local_epochs"),
        ("batch_size = 0", "batch_size"),
        ("learning_rate = 0", "learning_rate"),
        ("mu = -0.5", "mu"),
        ("n_clients = 0", "n_clients"),
        ("seed = -1", "seed"),
        ("weighting = harmonic", "weighting"),
        *DATA_RULES,
    ],
)
def test_range_violations_name_the_key(text, message):
    if (text, message) not in DATA_RULES:
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        return
    cfg, _ = parse_config(text)
    with pytest.raises(ConfigError, match=f"^(dataset|partition): .*{message}"):
        prepare_experiment(cfg)


def test_validate_config_direct_field_checks():
    with pytest.raises(ConfigError, match="method"):
        replace(ExperimentConfig(), method="adam")
    with pytest.raises(ConfigError, match="partition"):
        replace(ExperimentConfig(), partition_mode="x")
    with pytest.raises(ConfigError, match="^seeds: must list at least one seed$"):
        replace(Sweep(), seeds=())
    with pytest.raises(ConfigError, match="^seeds: seeds must be distinct, got \\(1, 1\\)$"):
        Sweep(seeds=(1, 1))


def test_serialize_parse_roundtrip():
    cfg, sweep = parse_config(
        """
        method = fedprox
        mu = 0.3
        n_clients = 8
        fraction = 0.25
        rounds = 12
        partition = shards(3)
        dataset = synthetic(n_samples=900, n_classes=3, feature_dim=6)
        seeds = 5, 6
        weighting = uniform
        methods = fedavg, fedprox(0.1)
        partitions = iid, shards(2)
        """
    )
    assert sweep == Sweep((5, 6), ("fedavg", "fedprox(0.1)"), ("iid", "shards(2)"))
    # The canonical form is the run's alone: it writes no sweep key.
    assert parse_config(serialize_config(cfg)) == (cfg, Sweep())
    # It always names mu, so fedavg configs warn on re-parse.
    with pytest.warns(UserWarning, match="mu is ignored"):
        assert parse_config(serialize_config(ExperimentConfig()))[0] == ExperimentConfig()
    file_cfg = replace(cfg, dataset=FileData("/tmp/a.csv", "/tmp/b.csv"))
    assert parse_config(serialize_config(file_cfg))[0] == file_cfg


def test_serialization_is_canonical():
    text = serialize_config(ExperimentConfig())
    with pytest.warns(UserWarning, match="mu is ignored"):
        assert text == serialize_config(parse_config(text)[0])
    assert text.endswith("\n")
    assert "\r" not in text


def test_fingerprint_stable_across_formatting():
    a, _ = parse_config("rounds = 9\nseed = 2  # note")
    b, _ = parse_config("# other layout\nseed=2\nrounds=9")
    assert config_fingerprint(a) == config_fingerprint(b)
    c, _ = parse_config("rounds = 9\nseed = 3")
    assert config_fingerprint(a) != config_fingerprint(c)
    # The sweep is no part of a run's identity.
    d, _ = parse_config("rounds = 9\nseed = 2\nseeds = 4, 5\nmethods = fedprox(0.3)")
    assert config_fingerprint(a) == config_fingerprint(d)


def test_config_to_dict_is_json_friendly():
    cfg, _ = parse_config("method = fedprox\nmu = 0.3\nmethods = fedavg, fedprox(0.3)")
    payload = config_to_dict(cfg)
    text = json.dumps(payload, sort_keys=True)
    assert '"method": "fedprox"' in text and '"mu": 0.3' in text
    assert "methods" not in payload
    assert payload["dataset"]["kind"] == "synthetic"
    file_payload = config_to_dict(
        replace(cfg, dataset=FileData("a.csv", "b.csv"))
    )
    assert file_payload["dataset"] == {
        "kind": "file",
        "train_path": "a.csv",
        "test_path": "b.csv",
    }


def test_tokens_render_back():
    cfg, _ = parse_config("method = fedprox\nmu = 0.2\npartition = shards(2)")
    assert cfg.method_token() == "fedprox(0.2)"
    assert cfg.partition_token() == "shards(2)"
    assert ExperimentConfig().method_token() == "fedavg"
    assert ExperimentConfig().partition_token() == "iid"


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("rounds = 4\nseed = 9\nseeds = 3\n", encoding="utf-8")
    cfg, sweep = load_config(str(path))
    assert (cfg.rounds, cfg.seed, sweep.seeds) == (4, 9, (3,))
