"""The runtime package imports only the standard library."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "snfglp").glob("*.py"))


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
