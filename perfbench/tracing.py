"""Spans recorded by the benchmark around calls into each layer.

A span is a name, a start, an end and the span that was open when it
began; spans under one top-level span share its index as their trace id.
Spans are kept in memory as parallel arrays and written out at the end.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.

:func:`instrument` wraps the library's module-level functions (and a few
hot methods) in place for the duration of a ``with`` block, so the
``swhamming`` modules themselves stay untouched.  Work done in methods
that are not wrapped counts toward the calling span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import swhamming
from swhamming import _kernels, bundleio, codec, equiv, ghcms, gf2, hcms, sources

LAYERS = ("cli", "bundleio", "equiv", "codec", "hcms", "ghcms", "sources", "gf2", "_kernels")

# trivial helpers whose spans would cost more than the work they time
_SKIP = {"nwords", "effective_s", "env_budget", "get_backend", "available_backends"}
# private functions named as layer boundaries worth seeing
_EXTRA = {codec: ("_validate_pair", "_collision_from_pattern")}
_METHODS = (
    (gf2.BitVector, "from_bits"),
    (gf2.BitVector, "to01"),
    (hcms.HcmsBundle, "locate_column"),
    (ghcms.GhcmsBundle, "locate_column"),
)


class Tracer:
    """In-memory span store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_id(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open_id(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def seconds(self, idx: int) -> float:
        return (self.end[idx] - self.start[idx]) * 1e-9

    def traced_iter(self, nid: int, it):
        """Yield from ``it``, recording each step as one span."""
        while True:
            idx = self.open_id(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            yield item

    # -- analysis --------------------------------------------------------

    def _arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return np.frombuffer(self.name, dtype=np.int32), parent, dur

    def self_ns(self) -> np.ndarray:
        _, parent, dur = self._arrays()
        has = parent >= 0
        children = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - children

    def subtree(self, root: int) -> slice:
        """Spans are stored in open order, so a span's descendants follow it."""
        end = self.end[root]
        stop = root + 1
        while stop < len(self.start) and self.start[stop] < end:
            stop += 1
        return slice(root, stop)

    def layer_table(self, root: int) -> list[tuple[str, int, float]]:
        """(layer, spans, self ms) under ``root``, the root itself included."""
        names, _, _ = self._arrays()
        sl = self.subtree(root)
        own = self.self_ns()[sl]
        layer_of = np.array([layer_of_name(n) for n in self.names], dtype=object)
        layers = layer_of[names[sl]]
        rows = []
        for layer in dict.fromkeys(layers):
            mask = layers == layer
            rows.append((layer, int(mask.sum()), float(own[mask].sum()) * 1e-6))
        rows.sort(key=lambda r: -r[2])
        return rows

    def self_ms_by_name(self, root: int) -> dict[str, float]:
        names, _, _ = self._arrays()
        sl = self.subtree(root)
        sums = np.bincount(names[sl], weights=self.self_ns()[sl], minlength=len(self.names))
        return {self.names[i]: float(v) * 1e-6 for i, v in enumerate(sums) if v}

    def trace_ids(self) -> np.ndarray:
        """Index of each span's top-level ancestor, by pointer jumping."""
        _, parent, _ = self._arrays()
        root = np.where(parent < 0, np.arange(len(parent)), parent)
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                return root
            root = nxt

    def write(self, path: Path, meta: dict) -> None:
        """Spans as compressed numpy columns (name id, parent, trace id,
        start/end ns), the span names, and ``meta`` as a JSON string."""
        names, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=names,
            parent=parent,
            trace=self.trace_ids(),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def layer_of_name(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return tracer.traced_iter(nid, fn(*args, **kwargs))

        return gen_wrapper

    open_id, close = tracer.open_id, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_id(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)

    return wrapper


def _targets():
    """Module-level functions of every layer below the CLI, by span name."""
    out = {}
    for mod in (_kernels, gf2, sources, codec, hcms, ghcms, equiv, bundleio):
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in _EXTRA.get(mod, ())
            if (
                public
                and attr not in _SKIP
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = f"{short}.{attr}"
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record a span for every call into a layer function while active.

    Every module binding of a wrapped function is replaced (``from x import
    f`` copies included) and restored on exit.
    """
    wrapped = {fn: _wrap(tracer, name, fn) for fn, name in _targets().items()}
    patches = []
    prefix = swhamming.__name__ + "."
    modules = [m for name, m in sys.modules.items() if name.startswith(prefix) and m is not None]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    for cls, attr in _METHODS:
        raw = cls.__dict__[attr]
        short = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            repl = classmethod(_wrap(tracer, short, raw.__func__))
        else:
            repl = _wrap(tracer, short, raw)
        patches.append((cls, attr, raw))
        setattr(cls, attr, repl)
    try:
        yield
    finally:
        for owner, attr, obj in reversed(patches):
            setattr(owner, attr, obj)

