"""Chunked CLI encode/decode against the per-tuple reference path.

The CLI streams group files through ``sources.iter_bit_chunks``,
``codec.encode_batch`` and the bundle's decode plan (or the table decoder
row by row).  Its output files must be byte-identical to what the
per-tuple functions give: ``codec.encode``, ``hcms_decode``/``ghcms_decode``
or ``DecodeTable.decode``, formatted by ``format_syndromes``/
``format_tuples``.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import bundleio, cli, codec, equiv, gf2, ghcms, hcms, sources
from swhamming.errors import SyndromeNotDecodableError

CHUNK = sources.CHUNK_TUPLES
COUNTS = (0, 1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1)


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory, bundle_a3, pair_n7):
    """kind -> (file, code, per-tuple decoder) for each decode path."""
    root = tmp_path_factory.mktemp("bundles")
    made = {
        "hcms": bundle_a3,
        "ghcms": equiv.reduce_to_ghcms(hcms.hcms_a3(g_split=(9, 0, 0)).code),
        "ghcms_s2": equiv.reduce_to_ghcms(pair_n7),
    }
    out = {}
    for kind, bundle in made.items():
        path = root / f"{kind}.txt"
        bundleio.write_bundle(path, bundle)
        loaded = bundleio.load_bundle(path)
        if isinstance(loaded, ghcms.GhcmsBundle):
            decode = lambda y, b=loaded: ghcms.ghcms_decode(b, y)
        else:
            decode = lambda y, b=loaded: hcms.hcms_decode(b, y)
        out[kind] = (path, loaded.code, decode)
    path = root / "code.txt"
    bundleio.write_code_file(path, pair_n7)
    out["code"] = (path, pair_n7, codec.DecodeTable(pair_n7).decode)
    return out


def noisy_text(groups: list[list[str]], rng: np.random.Generator, crlf: bool) -> str:
    """The group file with CRLF or LF line ends, trailing blanks on lines,
    and runs of one to three (possibly space-filled) blank lines between,
    before and after the groups."""
    eol = "\r\n" if crlf else "\n"

    def blanks(least: int) -> str:
        return "".join(
            rng.choice(["", " ", "\t "]) + eol for _ in range(int(rng.integers(least, 4)))
        )

    parts = [blanks(0)]
    for k, group in enumerate(groups):
        if k:
            parts.append(blanks(1))
        parts += [line + " " * int(rng.integers(0, 3)) + eol for line in group]
    parts.append(blanks(0))
    return "".join(parts)


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("kind", ["hcms", "ghcms", "ghcms_s2", "code"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), crlf=st.booleans())
def test_cli_matches_per_tuple_reference(bundle_files, kind, count, seed, crlf):
    path, code, decode = bundle_files[kind]
    rng = np.random.default_rng(seed)
    xs = [sources.random_member(code.s, code.n, rng) for _ in range(count)]
    ys = [codec.encode(code, x) for x in xs]
    # the CLI writes nothing at all for an empty input
    want_y = codec.format_syndromes(ys) if count else ""
    want_x = sources.format_tuples([decode(y) for y in ys]) if count else ""
    assert want_x == (sources.format_tuples(xs) if count else "")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src, synd = tmp / "src.txt", tmp / "synd.txt"
        src.write_bytes(noisy_text([[v.to01() for v in x] for x in xs], rng, crlf).encode())
        synd.write_bytes(noisy_text([[v.to01() for v in y] for y in ys], rng, crlf).encode())
        out = run_cli("encode", str(path), "--input", str(src), "--output", str(tmp / "enc.txt"))
        assert f"encoded={count} " in out
        out = run_cli("decode", str(path), "--input", str(synd), "--output", str(tmp / "dec.txt"))
        assert f"decoded={count} " in out
        assert (tmp / "enc.txt").read_bytes() == want_y.encode()
        assert (tmp / "dec.txt").read_bytes() == want_x.encode()


def test_chunk_parser_splits_at_chunk_boundaries(bundle_a3, rng):
    n = bundle_a3.n
    xs = [sources.random_member(3, n, rng) for _ in range(2 * CHUNK + 1)]
    chunks = list(sources.iter_bit_chunks(sources.format_tuples(xs).splitlines(), [n] * 3))
    assert [c[0].shape[0] for c in chunks] == [CHUNK, CHUNK, 1]
    rows = [np.concatenate([c[i] for c in chunks]) for i in range(3)]
    for t, x in enumerate(xs):
        assert all(gf2.BitVector.from_bits(rows[i][t]) == x[i] for i in range(3))


def test_decode_batch_rejects_unlocated_sigma(bundle_a3):
    # only a corrupted partition misses a nonzero sigma: overwrite column 0
    # of P with column 1, then deviate terminal 0 at position 0
    arr = bundle_a3.P.to_array()
    arr[:, 0] = arr[:, 1]
    plan = hcms.DecodePlan(
        bundle_a3.code, bundle_a3.g_split, gf2.BitMatrix.from_bits(arr), bundle_a3.R_inv
    )
    n = bundle_a3.n
    zero = gf2.BitVector.zeros(n)
    xs = ((zero,) * 3, (gf2.BitVector.unit(n, 0), zero, zero))
    ys = [codec.encode(bundle_a3.code, x) for x in xs]
    parts = [np.stack([y[i].to_array() for y in ys]) for i in range(3)]
    with pytest.raises(SyndromeNotDecodableError, match="tuple 1 of the chunk"):
        plan.decode_batch(parts)
