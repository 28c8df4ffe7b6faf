"""The traced benchmark run wraps layer functions by module and name."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import snfglp
import snfglp.cli  # noqa: F401 - the tracer reads it as an attribute of the package


def _traced_layers() -> tuple[tuple[str, str], ...]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    # a renamed or deleted layer function would make `--trace 1` runs fail
    for mod_name, attr in _traced_layers():
        assert callable(getattr(getattr(snfglp, mod_name), attr)), f"{mod_name}.{attr}"
