"""The package runs on the standard library alone, and a CLI call loads
only the boxworld modules its subcommand runs.

`import boxworld` compiles no submodule: the exported names load with their
submodule on first use.  A `python -m boxworld` process pays for `cli`,
`errors` and `rational`, plus what its handler imports: `box check` adds
`boxes`; `compile`, `simulate`, `verify` and `cc` add `boxes`, `circuits`,
`wiring` and `compiler`; `box local` adds `boxes`, `locality` and `exactlp`;
`polytope` adds `boxes`, `polytope` and `exactlp`; `cluster` adds `boxes`,
`circuits`, `wiring` and `cluster`.  A third-party import would be both a
declared dependency and a start-up cost.
"""

import ast
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import boxworld as bw

PACKAGE = pathlib.Path(bw.__file__).parent


def _imported_modules(args, stdin=None):
    """Names of the modules a fresh interpreter imports while running args."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], input=stdin, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return names, proc.stdout


SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
SOLVERS = {"compiler", "wiring", "cluster", "polytope", "locality", "exactlp"}
_PR_BOX = json.dumps(bw.pr_box().to_json_dict())
_AND_CIRCUIT = json.dumps(bw.synthesize_nand(bw.TruthTable(2, (0, 0, 0, 1)), ["x0", "x1"]).to_json_dict())

# (arguments, stdin, boxworld submodules the call must not load)
START_UP = (
    (["-c", "import boxworld"], None, SUBMODULES),
    (["-m", "boxworld", "--version"], None, SOLVERS),
    (["-m", "boxworld", "box", "check"], _PR_BOX, SOLVERS),
    (["-m", "boxworld", "compile", "--parties", "2", "--map", "x0;x1"], _AND_CIRCUIT, SOLVERS - {"compiler", "wiring"}),
)


@pytest.mark.parametrize("args, stdin", [case[:2] for case in START_UP], ids=[" ".join(case[0]) for case in START_UP])
def test_start_up_leaves_numpy_unimported(args, stdin):
    names, stdout = _imported_modules(args, stdin)
    assert "boxworld" in names  # the import trace was read
    assert not {name for name in names if name.split(".")[0] == "numpy"}
    if "--version" in args:
        assert bw.__version__ in stdout


@pytest.mark.parametrize("args, stdin, unused", START_UP, ids=[" ".join(case[0]) for case in START_UP])
def test_each_call_loads_only_the_modules_it_runs(args, stdin, unused):
    names, stdout = _imported_modules(args, stdin)
    assert "boxworld" in names
    loaded = {name.split(".", 1)[1] for name in names if name.startswith("boxworld.")}
    assert loaded & unused == set()
    if "compile" in args:
        assert {"compiler", "wiring"} <= loaded  # the trace sees lazily imported modules too
        assert json.loads(stdout)["type"] == "compiled"


def test_package_imports_only_the_standard_library():
    # a third-party import must come with a dependency in pyproject.toml
    # and a change to this test
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not a source checkout")
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []
    # the tests themselves import numpy
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_sources_parse_as_the_oldest_supported_python(path):
    # requires-python >= 3.10: no newer syntax, checked without a 3.10 interpreter
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _python_3_10():
    """A python3.10 on PATH that starts and is 3.10, else None."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    try:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True, timeout=60
        )
    except OSError:
        return None
    return exe if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)" else None


def test_oldest_supported_python_runs_the_cli():
    # pyproject.toml declares requires-python >= 3.10; run the package on 3.10
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no working python3.10 on PATH")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def run(args, stdin=None):
        return subprocess.run([exe, *args], input=stdin, capture_output=True, text=True, env=env, timeout=120)

    imported = run(["-c", "import boxworld; print(boxworld.__file__)"])
    assert imported.returncode == 0, imported.stderr
    assert pathlib.Path(imported.stdout.strip()).parent == PACKAGE
    box = run(["-m", "boxworld", "box", "make", "pr"])
    assert box.returncode == 0, box.stderr
    local = run(["-m", "boxworld", "box", "local"], stdin=box.stdout)
    assert local.returncode == 1, local.stderr  # computed, and nonlocal
    payload = json.loads(local.stdout)
    assert payload["local"] is False
    assert payload["witness_kind"] == "linear"


# the public API, by defining submodule
EXPORTS = {
    "boxes": (
        "Box NoSignalingVerdict PartyMarginal Relabeling all_relabelings check_no_signaling chsh_value"
        " deterministic_box full_correlation_box make_box marginal mix_boxes parity_box pr_box relabel uniform_box"
    ),
    "circuits": (
        "NandCircuit TruthTable all_truth_tables eval_circuit format_netlist gate_count parse_netlist prune"
        " synthesize_nand truth_table"
    ),
    "cluster": (
        "ConstraintSet ParityConstraint cluster_box cluster_constraints ghz_local_search"
        " inverted_cluster_constraints satisfies simulation_search"
    ),
    "compiler": (
        "CCResult CompiledProtocol SimulationVerdict compile_circuit induced_box_fast nand_block nand_block_branches"
        " solve_cc verify_simulation"
    ),
    "errors": (
        "BoxworldError DimensionMismatch Infeasible MissingAssignment NegativeProbability NotAVertex NotNormalized"
        " ShapeMismatch SignalingAmbiguity TooLarge UnownedInputBit Unvalidated VerificationFailed WrongShape"
    ),
    "locality": "LocalityVerdict is_local",
    "polytope": (
        "HRepresentation VertexReport build_h_rep classify_vertex decompose enumerate_vertices is_vertex parity_form_of"
    ),
    "wiring": (
        "STOP BoxBank BoxInstance OutcomeDistribution SharedRandomness TableStrategy WiringProtocol count_strategies"
        " enumerate_strategies execute_exact execute_sample identity_wiring induced_box pr_instance validate_protocol"
    ),
}


def test_public_api_is_unchanged_by_lazy_loading():
    exported = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert len(exported) == 82
    assert isinstance(bw.__all__, tuple) and len(bw.__all__) == 82
    assert set(bw.__all__) == set(exported)
    assert set(exported) <= set(dir(bw))
    for name, module in exported.items():
        assert getattr(bw, name) is getattr(importlib.import_module(f"boxworld.{module}"), name), name
    namespace = {}
    exec("from boxworld import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(exported)
    with pytest.raises(AttributeError):
        bw.no_such_name
    namespace = {}
    exec("from boxworld import compiler, wiring", namespace)
    assert namespace["compiler"].compile_circuit is bw.compile_circuit
    assert namespace["wiring"].__name__ == "boxworld.wiring"
    assert bw.__version__ == "0.1.0"
