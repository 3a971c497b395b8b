"""The array listing of admissible null spaces and the array spans of
``codec.coset_masks`` against the per-candidate loops they replaced, kept
here as references: one span and one weight test per reduced row echelon
basis, and one span per subspace."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import span_values
from swhamming import codec, gf2
from swhamming._kernels import nwords
from swhamming.errors import BudgetExceededError
from swhamming.gf2 import BitMatrix, Subspace


def ref_admissible_null_spaces(n: int, d: int) -> list[Subspace]:
    """Every d x n basis in reduced row echelon form, pivot sets in
    ``itertools.combinations`` order and free bits in
    ``itertools.product`` order, kept when its span has no nonzero member
    of weight < 3."""
    if d == 0:
        return [Subspace.zero(n)]
    out = []
    width = 8 * nwords(n)
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivset]
        for assignment in itertools.product((0, 1), repeat=len(free)):
            rows = [1 << pivots[i] for i in range(d)]
            for (i, j), bit in zip(free, assignment):
                rows[i] |= bit << j
            if all(v.bit_count() >= 3 for v in span_values(rows)[1:]):
                words = b"".join(r.to_bytes(width, "little") for r in rows)
                data = np.frombuffer(words, dtype="<u8").reshape(d, -1)
                out.append(Subspace(n, basis=BitMatrix(d, n, data)))
    return out


def _as_listed(spaces: list[Subspace]) -> list[tuple[int, bytes]]:
    return [(N.dim, N.basis.data.tobytes()) for N in spaces]


@pytest.mark.parametrize("n", range(1, 8))
def test_listing_matches_the_per_candidate_loop(n):
    # every d, those the Hamming bound cuts without listing included
    for d in range(n + 1):
        listed = codec.admissible_null_spaces(n, d)
        assert _as_listed(listed) == _as_listed(ref_admissible_null_spaces(n, d))
        assert all(N.n == n for N in listed)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_listing_is_the_same_in_any_chunks(monkeypatch, chunk):
    # small chunks split pivot sets and join others
    want = {(n, d): _as_listed(ref_admissible_null_spaces(n, d)) for n in (5, 6) for d in range(n + 1)}
    monkeypatch.setattr(codec, "LISTING_CHUNK", chunk)
    for (n, d), listed in want.items():
        assert _as_listed(codec.admissible_null_spaces(n, d)) == listed


@pytest.mark.parametrize("n, d, size", [(5, 1, 1), (6, 2, 7), (6, 3, 64), (7, 3, 1000)])
def test_listing_chunks_hold_at_most_size_bases(n, d, size):
    # every basis in reduced row echelon form once, in full chunks but the last
    chunks = list(codec._rref_bases(n, d, size))
    assert all(len(c) == size for c in chunks[:-1]) and 0 < len(chunks[-1]) <= size
    assert sum(map(len, chunks)) == codec.gaussian_binomial(n, d)


def test_hamming_bound_answers_without_listing(monkeypatch):
    def no_listing(*args):
        raise AssertionError("listed")

    monkeypatch.setattr(codec, "_rref_bases", no_listing)
    # 2^d (n + 1) > 2^n
    assert codec.admissible_null_spaces(5, 3) == codec.admissible_null_spaces(5, 4) == []
    assert codec.admissible_null_spaces(21, 17) == codec.admissible_null_spaces(21, 20) == []
    assert codec.admissible_null_spaces(64, 63) == []
    assert codec.admissible_null_spaces(64, 0) == [Subspace.zero(64)]


@pytest.mark.parametrize("n, d", [(64, 1), (40, 20), (63, 2)])
def test_listing_refuses_indices_wider_than_63_bits(monkeypatch, n, d):
    monkeypatch.setattr(codec, "_rref_bases", None)
    with pytest.raises(BudgetExceededError, match="at least 2\\^63"):
        codec.admissible_null_spaces(n, d)


def _ref_masks(N: Subspace, n: int) -> list[int]:
    """N and the unions of its weight-1 and weight-1-or-2 cosets, each an
    int with bit w set iff w is in the set."""
    members = span_values([N.basis.row(i).value for i in range(N.dim)])
    ones = [1 << p for p in range(n)]
    twos = [a | b for a, b in itertools.combinations(ones, 2)]
    return [
        sum(1 << w for w in {v ^ u for v in members for u in offsets})
        for offsets in ([0], ones, ones + twos)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_coset_masks_match_the_per_subspace_spans(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed
    spaces = [Subspace.zero(n)] + [
        Subspace(n, gf2.random_matrix(int(rng.integers(1, n + 1)), n, rng)) for _ in range(12)
    ]
    spaces = [spaces[k] for k in rng.permutation(len(spaces))]
    masks = codec.coset_masks(spaces, n)
    words = nwords(1 << n)
    assert masks.shape == (3, len(spaces), words)
    for k, N in enumerate(spaces):
        for kind, mask in enumerate(_ref_masks(N, n)):
            want = [(mask >> (64 * w)) & ((1 << 64) - 1) for w in range(words)]
            assert masks[kind, k].tolist() == want
    assert codec.coset_masks([], n).shape == (3, 0, words)
