"""The benchmark's span tracer wraps package functions by name; every name
it lists must resolve, or a traced benchmark run fails before it measures."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not _TRACING.exists(), reason="benchmark harness not in this checkout")
def test_every_traced_entry_point_resolves():
    tracing = _load_tracing()
    for target, attr, _ in tracing.ENTRY_POINTS:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{target}.{attr}"
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
