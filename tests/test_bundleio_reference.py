"""The byte parser of code and bundle files, ``bundleio.read_file``, against
the text parser it replaced, kept here as the reference: the file decoded
as UTF-8 with replacement characters, split by ``str.splitlines``, and
each matrix read row by row from the stripped lines.  Also the full
writer of bundle files without a form marker, kept as the reference of
those files, and the property that a bundle written in either format
loads to the same bundle and gets the same ``verify`` report."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import relaxed_a3, shifted
from swhamming import bundleio, cli, equiv, gf2, ghcms, hcms, sources
from swhamming._kernels import pack_bits
from swhamming.codec import SwCode, format_code, make_code
from swhamming.errors import MalformedFileError
from swhamming.gf2 import BitMatrix, format_matrix

# ---------------------------------------------------------------------------
# reference: the full writer of bundle files without a marker
# ---------------------------------------------------------------------------


def ref_sections(bundle):
    """(label, matrix) of each section of a full file, in file order."""
    yield "P", bundle.P
    yield from ((f"Q_{i}", Qi) for i, Qi in enumerate(bundle.Q, 1))
    yield "T", bundle.T
    yield from ((f"G_{i}", Gi) for i, Gi in enumerate(bundle.G, 1))
    yield "R", bundle.R
    if bundle.E is not None:
        yield from ((f"C_{i}", Ci) for i, Ci in enumerate(bundle.C, 1))
        yield "Y", bundle.Y
        yield from ((f"D_{i}", Di) for i, Di in enumerate(bundle.D, 1))
        yield from ((f"E_{i}", Ei) for i, Ei in enumerate(bundle.E, 1))


def full_bundle_text(bundle) -> str:
    """A full bundle file: the plain code, then a label line and a matrix
    per section, derived or chosen."""
    return format_code(bundle.code) + "".join(
        label + "\n" + format_matrix(M) for label, M in ref_sections(bundle)
    )


def write_full_bundle(path, bundle) -> None:
    with open(path, "w") as fh:
        fh.write(full_bundle_text(bundle))

# ---------------------------------------------------------------------------
# reference: the text parser as it was
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
# byte -> bit value, 2 for any byte other than "0" and "1"
_BIT_OF_BYTE = np.full(256, 2, dtype=np.uint8)
_BIT_OF_BYTE[ord("0")] = 0
_BIT_OF_BYTE[ord("1")] = 1


def _echo(row: str) -> str:
    shown = row if len(row) <= 16 else row[:16] + "..."
    return f"{shown!r} ({len(row)} characters)"


def ref_parse_matrix(lines) -> BitMatrix:
    """A "rows cols" header, then exactly ``rows`` stripped lines of
    ``cols`` ASCII 0/1 characters; every body line is collected before
    anything is allocated."""
    it = iter(lines)
    try:
        header = next(it).split()
        rows, cols = int(header[0]), int(header[1])
    except (StopIteration, IndexError, ValueError) as exc:
        raise MalformedFileError("expected 'rows cols' header") from exc
    if not (0 <= rows <= sys.maxsize and 0 <= cols <= sys.maxsize):
        raise MalformedFileError(f"matrix dimensions {rows} x {cols} out of range")
    body = [line.strip() for line in itertools.islice(it, rows)]
    good = next((i for i, line in enumerate(body) if len(line) != cols), len(body))
    raw = np.frombuffer("".join(body[:good]).encode("ascii", errors="replace"), dtype=np.uint8)
    bits = _BIT_OF_BYTE[raw].reshape(good, cols)
    bad = np.flatnonzero(bits.max(axis=1, initial=0) > 1)
    if bad.size:
        good = int(bad[0])
    if good < len(body):
        raise MalformedFileError(f"bad matrix row {good}: {_echo(body[good])}")
    if len(body) < rows:
        raise MalformedFileError(f"matrix body ended after {len(body)} of {rows} rows")
    return BitMatrix(rows, cols, pack_bits(bits))


def ref_parse_code(it) -> SwCode:
    try:
        s, n = (int(t) for t in next(it).split())
        m = tuple(int(t) for t in next(it).split())
    except (StopIteration, ValueError) as exc:
        raise MalformedFileError("expected 's n' and 'm_1 ... m_s' header lines") from exc
    if s < 2 or n < 1:
        raise MalformedFileError(f"code header 's n' is '{s} {n}': need s >= 2 and n >= 1")
    if len(m) != s:
        raise MalformedFileError(f"expected {s} syndrome lengths, got {len(m)}")
    mats = []
    for mi in m:
        H = ref_parse_matrix(it)
        if H.rows != mi or H.cols != n:
            raise MalformedFileError(f"matrix {H.rows}x{H.cols} disagrees with header ({mi}x{n})")
        mats.append(H)
    return SwCode(tuple(mats))


def _chosen(label: str) -> bool:
    return label == "Y" or label[:2] in ("E_", "D_")


def ref_parse_file(data: bytes) -> bundleio.ParsedFile:
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace").read()
    all_lines = text.splitlines()
    lines = iter(all_lines)
    # a first line "bundle <form>" marks a bundle file that has only the
    # sections its form chooses, or more
    words = all_lines[0].split() if all_lines else []
    form = None
    if words[:1] == ["bundle"]:
        next(lines)
        if len(words) != 2 or words[1] not in ("direct", "relaxed"):
            got = _echo(all_lines[0].strip())
            raise MalformedFileError(f"expected 'bundle direct' or 'bundle relaxed', got {got}")
        form = words[1]
    code = ref_parse_code(lines)
    sections = {}
    for line in lines:
        label = line.strip()
        if not label:
            continue
        if not _LABEL_RE.match(label):
            raise MalformedFileError(f"expected a section label, got {label!r}")
        if label in sections:
            raise MalformedFileError(f"duplicate section {label!r}")
        if form == "direct" and _chosen(label):
            raise MalformedFileError(f"section {label!r} is not part of a direct bundle")
        try:
            sections[label] = ref_parse_matrix(lines)
        except MalformedFileError as exc:
            raise MalformedFileError(f"section {label}: {exc}") from None
    if form == "relaxed":
        for name in ["Y"] + [f"{X}_{i}" for X in "DE" for i in range(1, code.s + 1)]:
            if name not in sections:
                raise MalformedFileError(f"missing section {name!r} of a relaxed bundle")
    if form is not None:
        kind = {"direct": "hcms", "relaxed": "ghcms"}[form]
        return bundleio.ParsedFile(kind=kind, code=code, sections=sections, marked=True)
    relaxed = any(_chosen(label) for label in sections)
    kind = "ghcms" if relaxed else "hcms" if sections else "code"
    return bundleio.ParsedFile(kind=kind, code=code, sections=sections)


def outcome(parse, data: bytes):
    """(kind, marked, code, sections) of a parse, or its refusal's message."""
    try:
        parsed = parse(data)
    except MalformedFileError as exc:
        return str(exc)
    return parsed.kind, parsed.marked, parsed.code, parsed.sections


# ---------------------------------------------------------------------------
# generated code and bundle files: mostly well formed, with damage of every kind
# ---------------------------------------------------------------------------

# whitespace that str.strip removes and str.splitlines does not break at
SPACE = [" ", "\t", "\x1f", "\u00a0", "\u2003", "\u3000"]
EOL = ["\n", "\r\n", "\r"]
LABELS = ["P", "Q_1", "Q_2", "T", "R", "C_1", "Y", "E_2"]
MARKERS = ["bundle direct", "bundle relaxed", "bundle", "bundle drect", "bundle direct x", "bundel direct"]
HEADERS = ["+2 3", "-1 3", "2", "2 3 7", "", "x 1", "\u0662 3", "99999999 99999999", "99999999 2"]
# bytes that are not whitespace: invalid UTF-8, NUL and other controls, a
# lead byte cut short, a digit, a letter and a line end
JUNK = [b"\xff", b"\x80", b"\x00", b"\x07", b"\xe2\x80", b"\xc2", b"2", b"x", b"\r", b"\n"]


def _matrix_lines(draw, rows, cols):
    return [f"{rows} {cols}"] + [
        "".join(draw(st.lists(st.sampled_from("01"), min_size=cols, max_size=cols)))
        for _ in range(rows)
    ]


@functools.cache
def _real_bundles() -> list[list[str]]:
    """The lines of the a = 3 bundle, direct and relaxed, and of the
    trivial bundle, each in the marked and the full format."""
    P = hcms.hamming_matrix(2)
    trivial = tuple(P.take_cols(j, j + 1) for j in range(3))
    bundles = [hcms.hcms_for_a(3), ghcms.ghcms_build(hcms.hcms_for_a(3).Q), ghcms.ghcms_build(trivial)]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.txt"
        for bundle in bundles:
            bundleio.write_bundle(path, bundle)
            out += [path.read_text().splitlines(), full_bundle_text(bundle).splitlines()]
    return out


@st.composite
def matrix_files(draw):
    """A code or bundle file, marked or not: whitespace around lines, blank
    lines between sections, mixed line ends, and at most one damage."""
    if draw(st.integers(0, 5)) == 0:
        lines = list(draw(st.sampled_from(_real_bundles())))
    else:
        s, n = draw(st.integers(2, 3)), draw(st.integers(1, 5))
        m = draw(st.lists(st.integers(0, 3), min_size=s, max_size=s))
        lines = [f"{s} {n}", " ".join(map(str, m))]
        if draw(st.integers(0, 2)) == 0:
            lines.insert(0, draw(st.sampled_from(MARKERS)))
        for mi in m:
            lines += _matrix_lines(draw, mi, n)
        unique = draw(st.integers(0, 4)) > 0  # mostly no label twice
        for label in draw(st.lists(st.sampled_from(LABELS), max_size=3, unique=unique)):
            lines += [""] * draw(st.integers(0, 2))
            lines += [label] + _matrix_lines(draw, draw(st.integers(0, 3)), draw(st.integers(0, 6)))
    damage = draw(st.sampled_from(["none"] * 3 + ["header", "cut", "junk", "flip"]))
    if damage == "header":  # a header line: signed, short, extra fields, huge
        headers = [k for k, line in enumerate(lines) if " " in line or k < 2]
        lines[draw(st.sampled_from(headers))] = draw(st.sampled_from(HEADERS))
    elif damage == "cut":  # the file ends early
        lines = lines[: draw(st.integers(0, len(lines)))]
    space = st.lists(st.sampled_from(SPACE), max_size=2).map("".join)
    out = []
    for line in lines:
        pad = draw(st.integers(0, 3))  # mostly none
        left, right = (draw(space), draw(space)) if pad == 0 else ("", "")
        out += [left, line, right, draw(st.sampled_from(EOL))]
    data = "".join(out).encode()
    if draw(st.booleans()):  # no final line end
        data = data.rstrip(b"\r\n")
    if damage == "junk":  # a byte anywhere, line ends included
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from(JUNK)) + data[k:]
    elif damage == "flip":  # one body bit flipped: still well formed
        bits = [k for k, byte in enumerate(data) if byte in b"01"]
        if bits:
            k = draw(st.sampled_from(bits))
            data = data[:k] + bytes([data[k] ^ 1]) + data[k + 1 :]
    return data


def _same(got, want) -> None:
    if isinstance(want, str):
        # the refusal, with the file line in front
        assert isinstance(got, str), got
        line, _, rest = got.partition(": ")
        assert re.fullmatch(r"line \d+", line) and rest == want, (got, want)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(data=matrix_files())
def test_read_file_matches_reference(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("files") / "bundle.txt"
    path.write_bytes(data)
    want = outcome(ref_parse_file, data)
    _same(outcome(lambda _: bundleio.read_file(path), data), want)


@pytest.mark.parametrize("name", ["a3", "a3-relaxed", "a3-full", "a3-relaxed-full"])
def test_real_bundles_match_reference(tmp_path, name):
    bundle = hcms.hcms_for_a(3)
    if name.startswith("a3-relaxed"):
        bundle = ghcms.ghcms_build(bundle.Q)
    path = tmp_path / "bundle.txt"
    write = write_full_bundle if name.endswith("full") else bundleio.write_bundle
    write(path, bundle)
    got = bundleio.read_file(path)
    assert outcome(lambda _: got, b"") == outcome(ref_parse_file, path.read_bytes())
    for M in [*got.code.matrices, *got.sections.values()]:
        assert M.data.flags.c_contiguous and M.data.dtype == np.uint64
        # its words live in an array of their own, not in the file's bytes
        owner = M.data
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.base is None


def test_file_of_several_scan_blocks_matches_reference(tmp_path):
    # a code file of about 3 scan blocks, CRLF line ends and rows indented
    # by varying whitespace, so that rows straddle the block boundaries
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, (2, 300, 1400))
    rows = [" " * (i % 5) + "".join(map(str, row)) for H in bits for i, row in enumerate(H)]
    text = "2 1400\r\n300 300\r\n300 1400\r\n" + "\r\n".join(rows[:300])
    text += "\r\n300 1400\r\n" + "\r\n".join(rows[300:]) + "\r\n"
    data = text.encode()
    assert len(data) > 3 * sources._SCAN_BLOCK
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    got = bundleio.read_file(path)
    assert outcome(lambda _: got, data) == outcome(ref_parse_file, data)
    assert np.array_equal(got.code.matrices[1].to_array(), bits[1])


def test_form_feed_in_a_body_is_whitespace_not_a_line_end(tmp_path):
    # the one deliberate difference: str.splitlines breaks at \f (and at
    # \v, \x1c-\x1e, U+0085, U+2028, U+2029); the byte parser breaks only
    # at LF, CRLF and CR, so "01\f10" is one row with a blank inside
    data = b"2 2\n1 2\n1 2\n11\n2 2\n01\f10\n"
    code = ref_parse_file(data).code
    assert code.matrices[1].to_array().tolist() == [[0, 1], [1, 0]]
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    with pytest.raises(MalformedFileError) as info:
        bundleio.read_file(path)
    assert str(info.value) == "line 6: bad matrix row 0: '01\\x0c10' (5 characters)"


# ---------------------------------------------------------------------------
# the two formats of a bundle file: marked and full
# ---------------------------------------------------------------------------

# sums of the full files of the gen --a 3 bundle, of the gen --trivial
# bundle and of helpers.relaxed_a3(default_rng(5)), as the writer of full
# files wrote them
FULL_FILES = {
    "a3": "8f235415f41ecc8550d774e29370ec2672acc2dbb73641069da481f06da82517",
    "trivial": "4091e5470c0ad0631242a31f52d83c788784082a466a2ea8b3c0d7d0adb3a8e3",
    "relaxed": "5d9183d11f4123d9bd85e18be72b6eb13c8a914a95a6746e3fbf3fea0ffd7707",
}


def test_reference_writer_gives_the_full_files():
    P = hcms.hamming_matrix(2)
    bundles = {
        "a3": hcms.hcms_for_a(3),
        "trivial": ghcms.ghcms_build(tuple(P.take_cols(j, j + 1) for j in range(3))),
        "relaxed": relaxed_a3(np.random.default_rng(5)),
    }
    for name, bundle in bundles.items():
        assert hashlib.sha256(full_bundle_text(bundle).encode()).hexdigest() == FULL_FILES[name]


def _splits(draw, s: int, t: int) -> tuple[int, ...]:
    """s nonnegative parts of t."""
    cuts = sorted(draw(st.lists(st.integers(0, t), min_size=s - 1, max_size=s - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, t]))


@st.composite
def bundles(draw):
    """A direct bundle of a random partition, a relaxed one of a random
    partition or of the trivial one, or the reduced bundle of a shifted
    perfect code, s = 2 included; row splits drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["direct", "relaxed", "trivial", "reduced", "reduced pair"]))
    if kind == "trivial":
        P = hcms.hamming_matrix(2)
        Q = tuple(P.take_cols(j, j + 1) for j in range(3))
    elif kind in ("direct", "relaxed"):
        Q = hcms.random_sum_zero_partition(*draw(st.sampled_from([(3, 6), (5, 8)])), rng)
    if kind in ("direct", "relaxed", "trivial"):
        # the completion's rows, split among the terminals
        split = _splits(draw, len(Q), Q[0].cols - gf2.rank(gf2.vstack(Q[:-1])))
        build = hcms.hcms_from_parts if kind == "direct" else ghcms.ghcms_build
        return build(Q, split)
    if kind == "reduced":
        code = hcms.hcms_for_a(3).code
    else:
        m = draw(st.integers(2, 3))
        code = make_code([BitMatrix.identity((1 << m) - 1), hcms.hamming_matrix(m)])
    return equiv.reduce_with_report(shifted(code, rng))[0]


def _loaded(path):
    bundle = bundleio.build_bundle(bundleio.read_file(path))
    return bundle.code, bundle.E, bundle.Y, bundle.D


def _verify_report(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(path), "--kv", "--roundtrip", "50"]) == 0
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(bundle=bundles())
def test_both_formats_load_to_the_bundle_and_verify_alike(bundle, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("formats")
    marked, full = tmp / "marked.txt", tmp / "full.txt"
    bundleio.write_bundle(marked, bundle)
    write_full_bundle(full, bundle)
    assert marked.read_text().splitlines()[0] == ("bundle direct" if bundle.E is None else "bundle relaxed")
    want = (bundle.code, bundle.E, bundle.Y, bundle.D)
    assert _loaded(marked) == _loaded(full) == want
    assert _verify_report(marked) == _verify_report(full)
