"""The array parser of group files, ``sources.iter_bit_chunks``, against the
per-line loop it replaced, kept here as the reference."""

from __future__ import annotations

import io
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import sources
from swhamming.errors import MalformedFileError

# ---------------------------------------------------------------------------
# reference: the loop as it was, over the lines of the file read as text
# ---------------------------------------------------------------------------


def ref_iter_bit_chunks(lines, widths, chunk):
    """Strip each line, collect ``chunk`` groups of stripped lines, and
    check their sizes as each group ends and their lines per chunk."""
    s = len(widths)
    full = chunk * s
    buf: list[str] = []  # lines of complete groups
    open_lines = 0  # lines of the group being read
    for raw in lines:
        line = raw.strip()
        if line:
            buf.append(line)
            open_lines += 1
            continue
        if open_lines:
            _check_group_size(open_lines, s)
            open_lines = 0
            if len(buf) == full:
                yield _chunk_arrays(buf, widths)
                buf = []
    if open_lines:
        _check_group_size(open_lines, s)
    if buf:
        yield _chunk_arrays(buf, widths)


def _check_group_size(count, s):
    if count != s:
        raise MalformedFileError(f"group of {count} lines, expected {s}")


def _chunk_arrays(buf, widths):
    s = len(widths)
    parts = []
    for i, w in enumerate(widths):
        rows = buf[i::s]
        if set(map(len, rows)) != {w}:
            bad = next(r for r in rows if len(r) != w)
            raise MalformedFileError(f"line {i} of a group is not {w} bits: {bad!r}")
        # a non-ASCII character becomes '?' and fails the 0/1 check below
        arr = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
        arr = (arr - ord("0")).reshape(len(rows), w)
        bad_rows = np.nonzero((arr > 1).any(axis=1))[0]
        if bad_rows.size:
            raise MalformedFileError(f"line is not over {{0,1}}: {rows[bad_rows[0]]!r}")
        parts.append(arr)
    return parts


def text_lines(data: bytes):
    """The lines of a file opened as text: UTF-8 with replacement
    characters, and LF, CRLF and CR line ends."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")


def outcome(chunks):
    """The chunks a parser yields, and whether it then raised."""
    got = []
    try:
        for parts in chunks:
            got.append([np.asarray(p) for p in parts])
    except MalformedFileError:
        return got, True
    return got, False


# ---------------------------------------------------------------------------
# generated group files: mostly well formed, with damage of every kind
# ---------------------------------------------------------------------------

SPACE = [" ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\u00a0", "\u2003"]
EOL = [b"\n", b"\r\n", b"\r"]
# bytes that are not whitespace: invalid UTF-8, NUL and other controls, a
# lead byte cut short, a digit and a letter
JUNK = [b"\xff", b"\x80", b"\x00", b"\x07", b"\x7f", b"\xe2\x80", b"\xc2", b"2", b"x"]


@st.composite
def group_files(draw):
    """A group file and its widths: whitespace around every line, blank
    lines between groups, mixed line ends, and at most one damage."""
    s = draw(st.integers(2, 3))
    widths = draw(st.lists(st.sampled_from([1, 2, 3, 4] * 3 + [0]), min_size=s, max_size=s))
    groups = [
        [bytes(draw(st.lists(st.sampled_from(b"01"), min_size=w, max_size=w))) for w in widths]
        for _ in range(draw(st.integers(0, 9)))
    ]
    damage = draw(st.sampled_from(["none"] * 4 + ["lines", "width", "inner", "stray"]))
    if groups and damage in ("lines", "width", "inner"):
        group = draw(st.sampled_from(groups))
        i = draw(st.integers(0, s - 1))
        if damage == "lines":  # a line missing or one too many
            if draw(st.booleans()):
                del group[i]
            else:
                group.insert(i, group[i])
        elif damage == "width":
            group[i] = group[i][1:] if group[i] and draw(st.booleans()) else group[i] + b"1"
        else:  # a byte that is not a bit, or a blank, inside the line
            k = draw(st.integers(0, len(group[i])))
            inner = draw(st.sampled_from(JUNK + [c.encode() for c in SPACE]))
            group[i] = group[i][:k] + inner + group[i][k:]
    space = st.lists(st.sampled_from(SPACE), max_size=2).map(lambda xs: "".join(xs).encode())
    eol = st.sampled_from(EOL)
    out = []
    for g, group in enumerate(groups):
        for _ in range(draw(st.integers(1 if g else 0, 3))):  # blank lines
            out += [draw(space), draw(eol)]
        for line in group:
            out += [draw(space), line, draw(space), draw(eol)]
    for _ in range(draw(st.integers(0, 2))):
        out += [draw(space), draw(eol)]
    data = b"".join(out)
    if draw(st.booleans()):  # no final line end
        data = data.rstrip(b"\r\n")
    if damage == "stray":  # a byte anywhere, line ends included
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from(JUNK + EOL)) + data[k:]
    return data, widths


@settings(max_examples=200, deadline=None)
@given(file=group_files(), chunk=st.integers(1, 3))
def test_iter_bit_chunks_matches_reference(file, chunk):
    # a small chunk makes small blocks, so groups, lines and CRLF pairs
    # straddle block boundaries
    data, widths = file
    want = outcome(ref_iter_bit_chunks(text_lines(data), widths, chunk))
    got = outcome(sources.iter_bit_chunks(io.BytesIO(data), widths, chunk))
    assert got[1] == want[1]
    assert [[p.shape for p in c] for c in got[0]] == [[p.shape for p in c] for c in want[0]]
    for g, w in zip(got[0], want[0]):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))


def test_whitespace_is_what_strip_removes():
    space = {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    ascii_space = {c for c in range(128) if sources._NOT_SPACE[c] == 0}
    assert ascii_space | set(sources._WIDE_SPACE) == space


def test_long_line_and_open_group_span_blocks():
    # one valid group whose lines carry more whitespace than several blocks
    pad = " \t" * 5000
    data = f"{pad}01{pad}\r\n10\n{pad}\n\n11\n00\n".encode()
    got, raised = outcome(sources.iter_bit_chunks(io.BytesIO(data), [2, 2], 1))
    assert not raised
    assert [[p.tolist() for p in c] for c in got] == [[[[0, 1]], [[1, 0]]], [[[1, 1]], [[0, 0]]]]


def test_not_bits_across_scan_blocks():
    # bytes scanned in several blocks, with non-bit bytes on both sides of
    # each block boundary, give the positions one whole-array test gives
    block = sources._SCAN_BLOCK
    rng = np.random.default_rng(7)
    text = rng.choice(np.frombuffer(b"0101010101\n\r \xa0x", dtype=np.uint8), 3 * block + 17)
    for at in (block - 1, block, 2 * block - 1, 2 * block, 3 * block):
        text[at] = ord("\n")
    want = ((text & 0xFE) != 0x30).nonzero()[0]
    assert np.array_equal(sources._not_bits(text), want)
    assert np.array_equal(sources._not_bits(text[:5]), want[want < 5])
