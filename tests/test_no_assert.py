"""No ``assert`` statement in the library: ``python -O`` strips them, so
every invariant there must raise explicitly."""

from __future__ import annotations

import ast
from pathlib import Path

import swhamming

SOURCES = sorted(Path(swhamming.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
