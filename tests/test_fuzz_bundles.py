"""``verify --roundtrip`` and ``reduce`` on bundle files, marked or full,
that were damaged (lines deleted, duplicated or swapped, a bit of a
matrix body flipped, a label renamed, the form marker deleted,
duplicated, misspelled or moved) either succeed or print an
``error=<TOKEN>`` line; they never raise."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import relaxed_a3, run_quiet
from swhamming import bundleio, ghcms, hcms
from test_bundleio_reference import full_bundle_text

LABELS = ["P", "Q_1", "Q_4", "T", "G_2", "R", "C_1", "C_3", "Y", "D_1", "E_3", "X"]

_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_BODY_RE = re.compile(r"^[01]+$")
MARKERS = ["bundle direct", "bundle relaxed", "bundle", "bundle drect", "bundel direct", "bundle direct x"]

index = st.integers(0, 1 << 20)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("delete"), index, st.just(0)),
        st.tuples(st.just("duplicate"), index, st.just(0)),
        st.tuples(st.just("swap"), index, index),
        # one bit of a matrix body row, the code's included
        st.tuples(st.just("flip"), index, index),
        st.tuples(st.just("rename"), index, st.sampled_from(LABELS)),
        # the marker line deleted, duplicated, moved or replaced
        st.tuples(st.just("marker"), index, st.sampled_from(["delete", "duplicate", "move", *MARKERS])),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def bundle_texts(tmp_path_factory) -> dict[str, str]:
    """The ``gen --a 3`` and ``gen --trivial`` bundle files, a relaxed a = 3
    bundle whose E_i and D_i are not identities, and the s = 2 bundle of
    the 3-bit Hamming matrix, each marked as ``write_bundle`` writes it and
    full."""
    P = hcms.hamming_matrix(2)
    bundles = {
        "a3": hcms.hcms_for_a(3),
        "trivial": ghcms.ghcms_build(tuple(P.take_cols(j, j + 1) for j in range(3))),
        "relaxed": relaxed_a3(np.random.default_rng(5)),
        "pair": ghcms.degenerate_two_source(hcms.hamming_matrix(3)),
    }
    out = {}
    for name, bundle in bundles.items():
        path = tmp_path_factory.mktemp("bundles") / f"{name}.txt"
        bundleio.write_bundle(path, bundle)
        out[name] = path.read_text()
        out[f"{name} full"] = full_bundle_text(bundle)
    return out


def mutate(text: str, edits) -> str:
    lines = text.split("\n")
    for kind, where, what in edits:
        if not lines:
            break
        at = where % len(lines)
        labels = [i for i, line in enumerate(lines) if _LABEL_RE.match(line)]
        if kind == "delete":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "swap":
            other = what % len(lines)
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == "flip":
            body = [i for i, line in enumerate(lines) if _BODY_RE.match(line)]
            if body:
                row = lines[body[at % len(body)]]
                col = what % len(row)
                lines[body[at % len(body)]] = row[:col] + "10"[int(row[col])] + row[col + 1 :]
        elif kind == "rename" and labels:
            lines[labels[at % len(labels)]] = what
        elif kind == "marker" and lines[0].startswith("bundle"):
            if what == "delete":
                del lines[0]
            elif what == "duplicate":
                lines.insert(0, lines[0])
            elif what == "move":
                lines.insert(max(at, 1), lines.pop(0))
            else:
                lines[0] = what
    return "\n".join(lines)


NAMES = [f"{name}{form}" for name in ("a3", "trivial", "relaxed", "pair") for form in ("", " full")]


@given(name=st.sampled_from(NAMES), edits=mutations)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_bundle_gives_a_token_not_a_traceback(tmp_path, monkeypatch, bundle_texts, name, edits):
    monkeypatch.delenv("HCMS_BUDGET", raising=False)
    path = tmp_path / "bundle.txt"
    path.write_text(mutate(bundle_texts[name], edits))
    for argv in (
        ["verify", str(path), "--roundtrip", "20"],
        ["reduce", str(path), "-o", str(tmp_path / "r.txt")],
    ):
        code, err = run_quiet(argv)
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert re.match(r"error=[A-Z_]+ ", err), (argv, err)
