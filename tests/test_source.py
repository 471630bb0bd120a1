"""Guards on the package source itself."""

import ast
from pathlib import Path

import tableaux

SOURCES = sorted(Path(tableaux.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


def test_no_assert_statements():
    # Cross-checks must raise on their own: ``python -O`` strips ``assert``.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
