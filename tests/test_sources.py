"""Hamming-source model: counting, enumeration, membership, parameters."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import decompose
from swhamming import gf2, sources
from swhamming.errors import BudgetExceededError


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


def test_source_params_validation():
    with pytest.raises(ValueError):
        sources.SourceParams(1, 3, (1,))
    with pytest.raises(ValueError):
        sources.SourceParams(2, 3, (1,))
    p = sources.SourceParams(3, 21, (9, 9, 9))
    assert p.M == 27
    assert p.rates() == (9 / 21, 9 / 21, 9 / 21)
