"""The package's exported names and a run config's fields, pinned so the
API changes only on purpose, the names the benchmark harness binds, the one
module that writes files, the one that checks configs, the modules that read
a suite's sweep, the one that keys local training's streams, the one that
hands a Dataset its arrays uncopied, the one function that starts processes,
and the config module's independence from the rest of the package."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import fedsim
from fedsim.config import ExperimentConfig
from fedsim.data import load_dataset, save_dataset
from fedsim.federation import FederationResult, ServerState, run_federation

EXPORTS = [
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


def test_exported_names_are_pinned():
    assert sorted(fedsim.__all__) == EXPORTS


# A run config's knobs, in canonical order; the suite's sweep lives in config.Sweep.
CONFIG_FIELDS = [
    "method",
    "mu",
    "n_clients",
    "fraction",
    "rounds",
    "local_epochs",
    "batch_size",
    "learning_rate",
    "partition_mode",
    "shards_per_client",
    "dataset",
    "seed",
    "weighting",
]


def test_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == CONFIG_FIELDS


def test_every_exported_name_resolves():
    missing = [name for name in fedsim.__all__ if not hasattr(fedsim, name)]
    assert missing == []


# Functions the benchmark harness looks up by module and name to time and
# check a run; losing one breaks the harness, not only a test.
BENCHMARK_BINDINGS = [
    ("fedsim.cli", "main"),
    ("fedsim.cli", "_write_run_outputs"),
    ("fedsim.config", "load_config"),
    ("fedsim.data", "load_dataset"),
    ("fedsim.data", "partition_iid"),
    ("fedsim.data", "partition_shards"),
    ("fedsim.data", "save_dataset"),
    ("fedsim.data", "synthetic_train_test"),
    ("fedsim.evaluation", "accuracy"),
    ("fedsim.federation", "aggregate"),
    ("fedsim.federation", "prepare_experiment"),
    ("fedsim.federation", "run_federation"),
    ("fedsim.federation", "select_clients"),
    ("fedsim.seeds", "key_rng"),
]


def test_the_names_the_benchmark_binds_exist():
    missing = [f"{module}.{name}" for module, name in BENCHMARK_BINDINGS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    # The harness binds run_federation's arguments by name and wraps progress.
    assert list(inspect.signature(run_federation).parameters) == ["cfg", "data", "progress"]
    # Its byte counter binds load_dataset's file by the name "path", and its
    # large_file workload calls save_dataset(d, path).
    assert list(inspect.signature(load_dataset).parameters) == ["path"]
    assert list(inspect.signature(save_dataset).parameters) == ["d", "path"]
    # It checks each run's final parameters through result.final_state.global_params.
    assert typing.get_type_hints(FederationResult)["final_state"] is ServerState
    assert "global_params" in {f.name for f in dataclasses.fields(ServerState)}


# Calls that write a file whatever their arguments; open() writes by its mode.
# A named scratch file could be left half written, so it counts as a writer;
# an anonymous tempfile.TemporaryFile never has a name, and is allowed.
DIRECT_WRITERS = {"write_text", "write_bytes", "save", "savez", "savez_compressed",
                  "savetxt", "tofile", "NamedTemporaryFile", "mkstemp"}


def opens_for_writing(call: ast.Call) -> bool:
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in DIRECT_WRITERS:
        return True
    if name != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    # A mode that is not a literal may write.
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
               for m in modes)


def writers(node: ast.AST, where: str = "<module>"):
    """(function, line) of each call under ``node`` that writes a file."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and opens_for_writing(child):
            yield where, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from writers(child, inner)


def test_only_the_atomic_writer_opens_files_for_writing():
    # Every output goes through data.atomic_write, so no output file is ever
    # left half written.
    src = Path(fedsim.__file__).parent
    found = [
        (path.name, fn, line)
        for path in sorted(src.glob("*.py"))
        for fn, line in writers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [(name, fn) for name, fn, _ in found] == [("data.py", "atomic_write")], found


# Modules, and functions of os and concurrent.futures, that start a process.
PROCESS_MODULES = {"multiprocessing", "subprocess", "concurrent"}
PROCESS_CALLS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen",
                 "spawnl", "spawnle", "spawnlp", "spawnlpe", "spawnv", "spawnve", "spawnvp",
                 "spawnvpe", "ProcessPoolExecutor"}


def process_starters(node: ast.AST, where: str = "<module>"):
    """(function, line) of each use under ``node`` of something that starts a process."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            modules = [getattr(child, "module", None) or "", *(a.name for a in child.names)]
            calls = [a.name for a in child.names]
        else:
            modules, calls = [getattr(child, "id", None) or ""], [getattr(child, "attr", None)]
        if (any(m.split(".")[0] in PROCESS_MODULES for m in modules)
                or any(c in PROCESS_CALLS for c in calls)):
            yield where, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from process_starters(child, inner)


def test_only_the_fork_helper_starts_processes():
    # save_dataset, load_dataset and a run's evaluator fork through
    # data._start_process, which stops and joins its process and keeps the
    # fork warning from raising.
    src = Path(fedsim.__file__).parent
    found = [
        (path.name, fn, line)
        for path in sorted(src.glob("*.py"))
        for fn, line in process_starters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert {(name, fn) for name, fn, _ in found} == {("data.py", "_start_process")}, found


# The config's rule check, under its current name and its former public one.
RULE_CHECKS = {"_validate", "validate_config"}


def identifiers(tree: ast.AST):
    """(name, line) of every name, attribute and import under ``tree``."""
    for node in ast.walk(tree):
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     node.name if isinstance(node, ast.alias) else None):
            if name is not None:
                yield name, getattr(node, "lineno", 0)


def lines_naming(names):
    """{module file: [line, ...]} of where each package module names any of ``names``."""
    found = {}
    for path in sorted(Path(fedsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.name] = [line for name, line in identifiers(tree) if name in names]
    return found


def test_only_the_config_module_names_the_rule_check():
    # ExperimentConfig runs its rules when it is built, so no other module has
    # a reason to check a config again.
    found = lines_naming(RULE_CHECKS)
    assert found.pop("config.py"), "the guard no longer sees the check it guards"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_seeds_module_names_the_training_stream():
    # Local training's keys are laid out by seeds.local_words alone, so a run,
    # a cohort and the pooled baseline cannot key a client's streams apart.
    found = lines_naming({"LOCAL_STREAM"})
    assert found.pop("seeds.py"), "the guard no longer sees the stream it guards"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_data_module_hands_a_dataset_its_arrays():
    # Dataset._adopt keeps its arrays uncopied, so only the module that has just
    # made them may call it; every other caller gets the constructor's copies.
    found = lines_naming({"_adopt"})
    assert found.pop("data.py"), "the guard no longer sees the path it guards"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_data_module_hands_a_split_its_indices():
    # ClientSplit._adopt keeps its indices unchecked and uncopied, so only the
    # partitions, which have just built them sorted and unique, may call it.
    found = {}
    for path in sorted(Path(fedsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.name] = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_adopt"
            and isinstance(node.value, ast.Name) and node.value.id == "ClientSplit"
        ]
    assert found.pop("data.py"), "the guard no longer sees the path it guards"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_suite_path_names_the_sweep():
    # A run reads its config alone; the sweep is the suite's, so only the
    # config module and the suite's two callers may name it.
    found = set()
    for path in sorted(Path(fedsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(name == "Sweep" for name, _ in identifiers(tree)):
            found.add(path.name)
    assert found == {"cli.py", "config.py", "federation.py"}


def fedsim_imports(tree: ast.AST):
    """(module, line) of each import under ``tree`` from the fedsim package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith(".") or name.split(".")[0] == "fedsim":
                yield name, node.lineno


def test_the_config_module_imports_no_other_fedsim_module():
    # A config checks its own fields; what a dataset can hold is the data
    # layer's rule alone, so config.py must not call into data to check it.
    path = Path(fedsim.__file__).parent / "config.py"
    assert list(fedsim_imports(ast.parse(path.read_text(encoding="utf-8")))) == []
