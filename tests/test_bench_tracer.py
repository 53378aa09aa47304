"""The benchmark files the tests rely on: every name the tracer wraps exists
in the program, and the oracle stays independent of it."""

import ast
import importlib

from oracles import BENCH, load_bench


def test_tracer_names_resolve():
    # the tracer replaces these names where callers look them up; a function
    # moved to another module would otherwise show only in a traced run
    tracing = load_bench("tracing")
    names = [(module, attr) for module, attr, _ in tracing.SPANS] + list(tracing.COUNTED)
    assert tracing.SPANS and tracing.COUNTED
    missing = [
        f"{module}.{attr}" for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_oracle_imports_only_math_and_numpy():
    # the brute-force tests check the program against bench/oracle.py, so a
    # solver bug shows only while the oracle computes without the program
    tree = ast.parse((BENCH / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "math", "numpy"}
