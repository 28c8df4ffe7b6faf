"""The runtime package imports only the standard library."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "tests" / "smoke.py"
# the smoke script runs in CI before the test dependencies are installed
SOURCES = sorted((ROOT / "src" / "snfglp").glob("*.py")) + [SMOKE]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_snfglp(path):
    # mpmath, sympy and the like are installed for the tests, so an import of
    # one from the package would pass every other test and break the promise
    # that the runtime is pure standard library
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    top = {name.split(".")[0] for name in modules}
    assert top - set(sys.stdlib_module_names) - {"snfglp"} == set()


def test_smoke_script_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SMOKE)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("smoke ok")
