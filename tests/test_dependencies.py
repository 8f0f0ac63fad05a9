"""The package runs on the standard library alone.

Every `python -m boxworld` process pays for what the package imports, so a
third-party import is both a declared dependency and a start-up cost.
"""

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import boxworld as bw

PACKAGE = pathlib.Path(bw.__file__).parent


def _imported_modules(args):
    """Names of the modules a fresh interpreter imports while running args."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return names, proc.stdout


@pytest.mark.parametrize("args", [["-c", "import boxworld"], ["-m", "boxworld", "--version"]], ids=" ".join)
def test_start_up_leaves_numpy_unimported(args):
    names, stdout = _imported_modules(args)
    assert "boxworld" in names  # the import trace was read
    assert not {name for name in names if name.split(".")[0] == "numpy"}
    if "--version" in args:
        assert bw.__version__ in stdout


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
