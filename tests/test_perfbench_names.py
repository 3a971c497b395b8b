"""Every name the benchmark harness takes from ``swhamming`` still exists.

``perfbench/`` and ``benchmarks/bench_kernels.py`` reach into the library
by attribute, wrap some of its functions and methods for tracing, and read
spans back by name.  A renamed or deleted name there breaks a traced
benchmark run (``perfbench/run.py --trace 1``), which no other test runs.
These tests read the scripts' source and resolve each such name.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "benchmarks" / "bench_kernels.py"]


def _resolve(dotted: str):
    """The object a dotted name names, importing submodules on the way;
    AttributeError or ModuleNotFoundError when there is none."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _library_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted library name, from the file's imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "swhamming":
                    local = alias.asname or alias.name.split(".")[0]
                    names[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "swhamming":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _chain(node: ast.expr) -> list[str] | None:
    """["a", "b", "c"] for the expression ``a.b.c``, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(attrs)]


def _library_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, dotted name) of each attribute taken from a library name,
    read or assigned, and of each ``setattr(module, "name", ...)``."""
    names = _library_names(tree)
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _chain(node)
            if chain and chain[0] in names:
                uses.append((node.lineno, ".".join([names[chain[0]], *chain[1:]])))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func, (owner, attr) = node.func, node.args[:2]
            is_setattr = isinstance(func, ast.Name) and func.id == "setattr" or (
                isinstance(func, ast.Attribute) and func.attr == "setattr"
            )
            if (
                is_setattr
                and isinstance(owner, ast.Name)
                and owner.id in names
                and isinstance(attr, ast.Constant)
                and isinstance(attr.value, str)
            ):
                uses.append((node.lineno, f"{names[owner.id]}.{attr.value}"))
    return uses


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(f"no module-level assignment to {name}")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_library_attribute_resolves(path):
    uses = _library_uses(_parse(path))
    missing = []
    for line, dotted in uses:
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(f"line {line}: {dotted}")
    assert not missing, f"{path.name} names what the library lacks: {missing}"


def test_the_scan_sees_the_library_uses():
    uses = {dotted for _, dotted in _library_uses(_parse(ROOT / "perfbench" / "probes.py"))}
    assert {"swhamming.gf2.BitVector.from_bits", "swhamming.codec.is_compressible"} <= uses
    assert "swhamming.hcms.hcms_decode" in {
        dotted for _, dotted in _library_uses(_parse(ROOT / "perfbench" / "test_perfbench.py"))
    }
    with pytest.raises(AttributeError):
        _resolve("swhamming.gf2.BitVector.no_such_method")


def test_traced_methods_are_defined_on_their_classes():
    tree = _parse(ROOT / "perfbench" / "tracing.py")
    names = _library_names(tree)
    methods = _assigned(tree, "_METHODS")
    assert methods.elts
    for entry in methods.elts:
        owner, attr = entry.elts
        chain = _chain(owner)
        cls = _resolve(".".join([names[chain[0]], *chain[1:]]))
        # tracing wraps cls.__dict__[attr], so an inherited name would not do
        assert inspect.isclass(cls) and attr.value in cls.__dict__, (cls, attr.value)


def test_bench_kernels_spans_name_functions():
    probes = _parse(ROOT / "perfbench" / "probes.py")
    cases = ast.literal_eval(_assigned(probes, "BENCH_KERNELS_CASES"))
    assert cases
    for _, _, span in cases:
        obj = _resolve(f"swhamming.{span}")
        assert inspect.isfunction(obj) or inspect.ismethod(obj), span


def test_bundle_exposes_what_the_probes_read_off_instances(bundle_a3):
    # probes.py reads attributes off bundle instances (b4.code, b4.G[0].rows,
    # b4.M, b4.n), which the scan above cannot resolve; tracing.py wraps
    # Bundle.locate_column
    from swhamming import hcms

    assert callable(hcms.Bundle.__dict__["locate_column"])
    assert "code" in {f.name for f in dataclasses.fields(hcms.Bundle)}
    assert isinstance(bundle_a3, hcms.Bundle)
    assert bundle_a3.G[0].rows == bundle_a3.g_split[0]
    assert (bundle_a3.n, bundle_a3.M) == (21, 27)
