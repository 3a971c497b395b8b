"""Hamming-source model: counting, enumeration, membership, parameters,
the sampler of S and the per-tuple views of the group-file codec."""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decompose
from swhamming import codec, gf2, sources
from swhamming.errors import BudgetExceededError, MalformedFileError


def test_size_formula():
    assert sources.hamming_source_size(3, 5) == 512
    assert sources.hamming_source_size(2, 3) == 32
    assert sources.hamming_source_size(3, 1) == 8
    assert sources.hamming_source_size(2, 1) == 4


@pytest.mark.parametrize("s,n", [(2, 1), (2, 4), (3, 1), (3, 3), (3, 5), (4, 2), (5, 2)])
def test_enumeration_complete_and_duplicate_free(s, n):
    members = list(sources.enumerate_hamming_sources(s, n))
    assert len(members) == sources.hamming_source_size(s, n)
    assert len(set(members)) == len(members)
    assert all(sources.is_hamming_member(x) for x in members)


def test_enumeration_matches_unranking():
    for s, n in [(2, 3), (3, 2)]:
        members = list(sources.enumerate_hamming_sources(s, n))
        assert members == [
            sources.member_at(s, n, k) for k in range(sources.hamming_source_size(s, n))
        ]


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(sources.enumerate_hamming_sources(3, 10, budget=100))


def test_membership_negatives(rng):
    # random tuples with two or more discrepant positions are outside S
    rejected = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        s = int(rng.integers(2, 5))
        vs = tuple(gf2.random_matrix(1, n, rng).row(0) for _ in range(s))
        if sources.is_hamming_member(vs):
            continue
        rejected += 1
        diff_cols = 0
        arr = np.stack([v.to_array() for v in vs])
        for j in range(n):
            col = arr[:, j]
            if col.min() != col.max():
                diff_cols += 1
        ones_bad = False
        if diff_cols == 1:
            j = next(j for j in range(n) if arr[:, j].min() != arr[:, j].max())
            ones = int(arr[:, j].sum())
            ones_bad = not (ones == 1 or ones == s - 1)
        assert diff_cols > 1 or ones_bad
    assert rejected > 0


def test_membership_rejects_constructed_outsiders(rng):
    n = 6
    for _ in range(50):
        bits = rng.integers(0, 2, size=(1, n), dtype=np.uint8)
        b = gf2.BitMatrix.from_bits(bits).row(0)
        p, q = rng.choice(n, size=2, replace=False)
        ep, eq = gf2.BitVector.unit(n, int(p)), gf2.BitVector.unit(n, int(q))
        # two discrepant instances
        assert not sources.is_hamming_member((b, b + ep, b + eq))
        assert not sources.is_hamming_member((b, b + ep + eq))
        # one instance where two of four terminals deviate together
        assert not sources.is_hamming_member((b, b + ep, b + ep, b))


def test_decompose_roundtrip():
    for s, n in [(2, 3), (3, 4)]:
        for x in sources.enumerate_hamming_sources(s, n):
            b, t, p = decompose(x)
            if t is None:
                assert all(v == b for v in x)
            else:
                e = gf2.BitVector.unit(n, p)
                assert all(v == (b + e if i == t else b) for i, v in enumerate(x))
    with pytest.raises(ValueError):
        decompose(
            (gf2.BitVector.from_bits([1, 1]), gf2.BitVector.from_bits([0, 0]))
        )


def test_random_member_is_member(rng):
    for _ in range(100):
        x = sources.random_member(3, 21, rng)
        assert sources.is_hamming_member(x)


def test_perfect_params():
    assert sources.is_perfect_params(3, 21, 27)
    assert sources.is_perfect_params(3, 5, 9)
    assert not sources.is_perfect_params(3, 4, 9)
    assert sources.is_perfect_params(2, 7, 10)


def test_params_for_a_table():
    expected = {1: (1, 3), 2: (5, 9), 3: (21, 27), 4: (85, 93), 5: (341, 351)}
    for a, nm in expected.items():
        assert sources.perfect_params_for_a(a) == nm


def test_params_scan_properties():
    for a in range(1, 9):
        n, M = sources.perfect_params_for_a(a)
        assert sources.is_perfect_params(3, n, M)
        assert M % 3 == 0
        assert (M - n) % 2 == 0  # the exponent solving 2^(M-n) = 3n+1 is even


def test_feasible_cuvw():
    rows = sources.feasible_cuvw(21, 27)
    assert (12, 4, 4, 4) in rows and (9, 6, 6, 6) in rows
    assert len(rows) == 4
    assert all(u >= v >= w for _, u, v, w in rows)
    assert sources.feasible_cuvw(1, 3) == [(0, 0, 0, 0)]
    assert sources.feasible_cuvw(5, 9) == [(0, 2, 2, 2)]


def test_tuple_text_roundtrip(rng):
    tuples = [sources.random_member(3, 6, rng) for _ in range(5)]
    text = sources.format_tuples(tuples)
    assert list(sources.iter_tuples(text.splitlines())) == tuples


# ---------------------------------------------------------------------------
# the sampler of S
# ---------------------------------------------------------------------------

# sha256 of the 0/1 text of 300 random_member draws at each (s, n), in
# order, from one generator seeded MEMBER_SEED: every seeded test that
# samples S relies on this stream
MEMBER_SEED, MEMBER_SHAPES = 11, [(2, 7), (3, 21), (5, 9), (3, 85)]
MEMBER_DRAWS = "fa5cc7b032505a59f36c58da66641c6b7dd280f2c26352e237ffe363c9e76e03"


def test_random_member_stream_is_pinned():
    rng = np.random.default_rng(MEMBER_SEED)
    h = hashlib.sha256()
    for s, n in MEMBER_SHAPES:
        for _ in range(300):
            h.update("".join(v.to01() for v in sources.random_member(s, n, rng)).encode())
    assert h.hexdigest() == MEMBER_DRAWS


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(2, 5), n=st.integers(1, 40), count=st.integers(0, 30), seed=st.integers(0, 2**32)
)
def test_random_members_are_members(s, n, count, seed):
    parts = sources.random_members(s, n, count, np.random.default_rng(seed))
    assert [p.shape for p in parts] == [(count, n)] * s
    for r in range(count):
        assert sources.is_hamming_member(tuple(gf2.BitVector.from_bits(p[r]) for p in parts))
    if s == 2:
        # the common blocks come first in the stream, and terminal 0 keeps them
        common = np.random.default_rng(seed).integers(0, 2, size=(count, n), dtype=np.uint8)
        assert np.array_equal(parts[0], common)
    one = sources.random_members(s, n, 1, np.random.default_rng(seed))
    x = sources.random_member(s, n, np.random.default_rng(seed))
    assert x == tuple(gf2.BitVector.from_bits(p[0]) for p in one)


# ---------------------------------------------------------------------------
# the per-tuple views of the group-file codec
# ---------------------------------------------------------------------------

PAD = ["", " ", "\t", "\u00a0", " \u00a0\t"]
EOL = ["\n", "\r\n", "\r"]


@st.composite
def group_texts(draw):
    """A group file as text, its widths and whether it was damaged: padding
    around every line, runs of blank lines, mixed line ends, and at most
    one damage (a line missing or doubled, a line one bit off, a stray
    character inside a line)."""
    s = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 6), min_size=s, max_size=s))
    if draw(st.booleans()):  # the shape iter_tuples reads: one width
        widths = [widths[0]] * s
    bits = st.text("01", min_size=1, max_size=1)
    groups = [
        ["".join(draw(st.lists(bits, min_size=w, max_size=w))) for w in widths]
        for _ in range(draw(st.integers(0, 6)))
    ]
    damage = draw(st.sampled_from(["none"] * 3 + ["lines", "width", "inner"])) if groups else "none"
    if damage != "none":
        group = draw(st.sampled_from(groups))
        i = draw(st.integers(0, s - 1))
        if damage == "lines":
            if s > 1 and draw(st.booleans()):
                del group[i]
            else:
                group.insert(i, group[i])
        elif damage == "width":
            group[i] = group[i][1:] if len(group[i]) > 1 else group[i] + "1"
        else:
            k = draw(st.integers(0, len(group[i])))
            inner = draw(st.sampled_from(["2", "x", "\u00e9", " 1", "\u00a01"]))
            group[i] = group[i][:k] + inner + group[i][k:]
    pad, eol = st.sampled_from(PAD), st.sampled_from(EOL)
    out = []
    for g, group in enumerate(groups):
        for k in range(draw(st.integers(1 if g else 0, 3))):
            # a blank line of no padding after a lone CR would make a CRLF
            out += [draw(st.sampled_from(PAD[1:]) if k == 0 else pad), draw(eol)]
        out += [draw(pad) + line + draw(pad) + draw(eol) for line in group]
    text = "".join(out)
    return (text.rstrip("\r\n") if draw(st.booleans()) else text), widths, damage != "none"


def outcome(groups):
    """The groups an iterator yields, and the message of its refusal after
    them, or None."""
    got = []
    try:
        for group in groups:
            got.append(group)
    except MalformedFileError as exc:
        return got, str(exc)
    return got, None


def chunk_groups(text, widths):
    """The groups of ``iter_bit_chunks`` over ``text``, as BitVector tuples."""
    chunk = sources.chunk_tuples(sum(widths))
    for parts in sources.iter_bit_chunks(io.BytesIO(text.encode()), widths, chunk):
        for r in range(parts[0].shape[0]):
            yield tuple(gf2.BitVector.from_bits(p[r]) for p in parts)


@settings(max_examples=200, deadline=None)
@given(file=group_texts())
def test_line_views_read_what_the_chunk_scanner_reads(file):
    text, widths, damaged = file
    lines = text.splitlines()
    want = outcome(chunk_groups(text, widths))
    assert outcome(codec.iter_syndromes(lines, widths)) == want
    assert (want[1] is not None) == damaged
    # iter_tuples reads s and n off the first group's line count and first line
    stripped = [ln.strip() for ln in lines]
    first = next((k for k, ln in enumerate(stripped) if ln), len(lines))
    s = next((k for k, ln in enumerate(stripped[first:]) if not ln), len(lines) - first)
    want_tuples = outcome(chunk_groups(text, [len(stripped[first])] * s)) if s else ([], None)
    assert outcome(sources.iter_tuples(lines)) == want_tuples
    if not damaged:
        tuples = want[0]
        # format_tuples writes format_chunk's text, which is the text of the
        # per-line writer it replaced
        old = "\n\n".join("\n".join(v.to01() for v in t) for t in tuples) + "\n"
        assert sources.format_tuples(tuples) == old
        if tuples:
            parts = [np.stack([v.to_array() for v in col]) for col in zip(*tuples)]
            assert old == sources.format_chunk(parts)[1:].decode()
