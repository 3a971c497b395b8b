"""Chunked CLI encode/decode against the per-tuple reference path.

The CLI streams group files through ``sources.iter_bit_chunks``,
``codec.encode_batch`` and the code's decoder (``codec.decoder``), for
bundle and plain code files alike.  Its output files must be
byte-identical to what the per-tuple functions give: ``codec.encode``,
``hcms_decode`` or the syndrome-table oracle's
``DecodeTable.decode``, formatted by ``sources.format_tuples``.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decode_oracle import DecodeTable
from helpers import shifted
from swhamming import bundleio, cli, codec, equiv, gf2, hcms, sources
from swhamming.errors import NotInImageError

# the CLI's tuples per chunk in these tests, set through sources.CHUNK_BITS
# so that the counts straddle chunk boundaries at every width
CHUNK = 256
COUNTS = (0, 1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1)


def chunks_of(code: codec.SwCode):
    """CHUNK tuples per chunk of the CLI's encode and decode of ``code``."""
    return mock.patch.object(sources, "CHUNK_BITS", CHUNK * max(code.s * code.n, sum(code.m)))


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory, bundle_a3, pair_n7):
    """kind -> (file, code, per-tuple decoder) for each decode path."""
    root = tmp_path_factory.mktemp("bundles")
    made = {
        "hcms": bundle_a3,
        "ghcms": equiv.reduce_to_ghcms(hcms.hcms_for_a(3, g_split=(9, 0, 0)).code),
        "ghcms_s2": equiv.reduce_to_ghcms(pair_n7),
    }
    out = {}
    for kind, bundle in made.items():
        path = root / f"{kind}.txt"
        bundleio.write_bundle(path, bundle)
        loaded = bundleio.build_bundle(bundleio.read_file(path))
        out[kind] = (path, loaded.code, lambda y, b=loaded: hcms.hcms_decode(b, y))
    path = root / "code.txt"
    bundleio.write_code_file(path, pair_n7)
    out["code"] = (path, pair_n7, DecodeTable(pair_n7).decode)
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
    want_y = sources.format_tuples(ys) if count else ""
    want_x = sources.format_tuples([decode(y) for y in ys]) if count else ""
    assert want_x == (sources.format_tuples(xs) if count else "")

    with tempfile.TemporaryDirectory() as tmp, chunks_of(code):
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
    data = io.BytesIO(sources.format_tuples(xs).encode())
    chunks = list(sources.iter_bit_chunks(data, [n] * 3, CHUNK))
    assert [c[0].shape[0] for c in chunks] == [CHUNK, CHUNK, 1]
    rows = [np.concatenate([c[i] for c in chunks]) for i in range(3)]
    for t, x in enumerate(xs):
        assert all(gf2.BitVector.from_bits(rows[i][t]) == x[i] for i in range(3))


def test_decode_batch_rejects_syndrome_outside_image():
    # (I_3, I_3) compresses S but is not perfect: (000, 111) differs from
    # its first block in three positions, so no member of S gives it
    I3 = gf2.BitMatrix.identity(3)
    decoder = codec.decoder(codec.make_code([I3, I3]))
    parts = [np.array([[0, 1, 0], [0, 0, 0]], dtype=np.uint8),
             np.array([[0, 1, 1], [1, 1, 1]], dtype=np.uint8)]
    with pytest.raises(NotInImageError, match="tuple 1 of the chunk") as caught:
        decoder.decode_batch(parts)
    assert caught.value.index == 1
    first = decoder.decode_batch([p[:1] for p in parts])
    assert [b.tolist() for b in first] == [[[0, 1, 0]], [[0, 1, 1]]]


@pytest.mark.parametrize("base", ["a3", "pair_n7"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.sampled_from(COUNTS))
def test_decode_inverts_encode_through_files(bundle_a3, pair_n7, base, seed, count):
    # decode(encode(file)) is the file, byte for byte, for a shifted code
    # file and for the bundle that reduce makes of it
    rng = np.random.default_rng(seed)
    code = shifted(bundle_a3.code if base == "a3" else pair_n7, np.random.default_rng(seed))
    xs = [sources.random_member(code.s, code.n, rng) for _ in range(count)]
    with tempfile.TemporaryDirectory() as tmp, chunks_of(code):
        tmp = Path(tmp)
        bundleio.write_code_file(tmp / "code.txt", code)
        run_cli("reduce", str(tmp / "code.txt"), "-o", str(tmp / "reduced.txt"))
        src, synd, back = tmp / "src.txt", tmp / "synd.txt", tmp / "back.txt"
        # the file as the CLI writes groups: nothing at all for no groups
        src.write_text(sources.format_tuples(xs) if count else "")
        for name in ("code.txt", "reduced.txt"):
            run_cli("encode", str(tmp / name), "--input", str(src), "--output", str(synd))
            run_cli("decode", str(tmp / name), "--input", str(synd), "--output", str(back))
            assert back.read_bytes() == src.read_bytes()
