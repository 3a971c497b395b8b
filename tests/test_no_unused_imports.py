"""No unused import in the library: a deletion must take the imports that
only the deleted code read with it.  A name counts as used when the module
reads it anywhere as a name, annotations and ``TYPE_CHECKING`` blocks
included; ``from __future__`` imports are compiler directives."""

from __future__ import annotations

import ast
from pathlib import Path

import swhamming

SOURCES = sorted(Path(swhamming.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, bound name) of each import whose name the module never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a.asname or a.name) for a in node.names]
        else:
            continue
        imported += [(node.lineno, name) for name in names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_library_has_no_unused_imports():
    assert SOURCES
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from .gf2 import BitMatrix\n"
        "def f(x: Sequence[BitMatrix]) -> None:\n"
        "    return np.zeros(len(x))\n"
    )
    assert _unused_imports(tree) == [(2, "os")]
