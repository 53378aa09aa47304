"""Every name a liabstaff module imports is used in that module, and the
package's __init__ imports exactly the names in __all__. An import kept for
another reader, such as the benchmark's tracer, is marked ``# noqa: F401``
on its line and is exempt."""

import ast
from pathlib import Path

import pytest

import liabstaff

SRC = Path(liabstaff.__file__).parent
NOQA = "# noqa: F401"


def _imported(path: Path) -> dict[str, int]:
    """The names bound by the module's imports, other than __future__, each
    with the line of its import; names on a line marked NOQA are left out."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    names = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0], alias) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias.asname or alias.name, alias) for alias in node.names]
        else:
            continue
        for name, alias in bound:
            if NOQA not in lines[alias.lineno - 1]:
                names[name] = alias.lineno
    return names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(path).items() if name not in used}
    assert unused == {}


def test_package_imports_exactly_what_it_exports():
    assert sorted(_imported(SRC / "__init__.py")) == sorted(liabstaff.__all__)
