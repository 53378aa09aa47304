"""Every name the benchmark's tracer wraps exists in the program."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_names_resolve():
    # the tracer replaces these names where callers look them up; a function
    # moved to another module would otherwise show only in a traced run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _ in tracing.SPANS] + list(tracing.COUNTED)
    assert tracing.SPANS and tracing.COUNTED
    missing = [
        f"{module}.{attr}" for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
