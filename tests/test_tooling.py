"""Source-level checks on the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tworow

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tworow"


def test_no_assert_statements_in_package():
    # python -O strips assert statements; checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_public_names_resolve():
    # a stale entry would only fail on `from tworow import *`
    missing = [name for name in tworow.__all__ if not hasattr(tworow, name)]
    assert missing == []
    assert len(set(tworow.__all__)) == len(tworow.__all__)


def test_cli_imports_only_public_names():
    # every CLI document is then reproducible from the public API, as the
    # benchmark's in-process references assume
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1].startswith("_")
    ]
    assert private == []


# seeded output each script must print for the arguments below
SCRIPT_OUTPUT = {
    "completeness_table.py": (
        "n\\q          2          3\n"
        "-------------------------\n"
        "2     1.000000   1.000000\n"
        "3     0.400000   0.600000\n"
    ),
    "hamiltonicity_sweep.py": "all 20 samples traceable\n",
}


@pytest.mark.parametrize("script", sorted(SCRIPT_OUTPUT))
def test_scripts_run(script):
    # both scripts drive sample_gl through run_experiment
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--sizes", "2", "3", "--orders", "2", "3", "--trials", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert SCRIPT_OUTPUT[script] in done.stdout
