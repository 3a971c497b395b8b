"""Relaxed construction: row bases, completion, transforms, decoding."""

from __future__ import annotations

import pytest

from swhamming import codec, gf2, ghcms, hcms, sources


@pytest.fixture(scope="module")
def trivial_bundle():
    P = hcms.hamming_matrix(2)
    Q = tuple(P.take_cols(j, j + 1) for j in range(3))
    return ghcms.ghcms_build(Q)


def test_trivial_bundle_matches_expected_form(trivial_bundle):
    b = trivial_bundle
    assert [C.to_array().tolist() for C in b.C] == [[[1]], [[1]], [[1]]]
    assert b.Y.to_array().tolist() == [[1]]
    assert b.T.rows == 0
    assert all(G.rows == 0 for G in b.G)
    assert b.code.m == (1, 1, 1)


def test_trivial_bundle_counting(trivial_bundle):
    b = trivial_bundle
    assert b.d == (1, 1, 1)
    assert sum(b.d) + (b.n - b.Y.rows) == b.M == 3
    assert codec.is_perfect(b.code)


def test_trivial_bundle_decodes_exhaustively(trivial_bundle):
    for x in sources.enumerate_hamming_sources(3, 1):
        y = codec.encode(trivial_bundle.code, x)
        assert ghcms.ghcms_decode(trivial_bundle, y) == x


def test_full_rank_blocks_reduce_to_direct_construction(bundle_a3):
    # with full-rank Q_i the canonical row bases span the same rows, so the
    # relaxed code's null spaces equal the direct code's terminal by terminal
    g = ghcms.ghcms_build(bundle_a3.Q)
    assert codec.is_perfect(g.code)
    for direct, relaxed in zip(bundle_a3.code.matrices, g.code.matrices):
        assert gf2.null_space(direct) == gf2.null_space(relaxed)
    # same T falls out of the pivot structure
    assert g.T == bundle_a3.T


def test_transforms_satisfy_definitions(bundle_a3):
    g = ghcms.ghcms_build(bundle_a3.Q)
    for Qi, Ci, Ei, Di in zip(g.Q, g.C, g.E, g.D):
        assert Ei @ Ci == Qi
        assert Di @ Qi == Ci
    assert g.Y == gf2.row_basis(gf2.vstack(g.Q[:2]))


def test_decode_roundtrip_sampled(bundle_a3, rng):
    g = ghcms.ghcms_build(bundle_a3.Q)
    for _ in range(200):
        x = sources.random_member(3, 21, rng)
        assert ghcms.ghcms_decode(g, codec.encode(g.code, x)) == x
    zero = tuple(gf2.BitVector.zeros(21) for _ in range(3))
    assert ghcms.ghcms_decode(g, codec.encode(g.code, zero)) == zero


def test_compressible_even_when_not_perfect():
    """A sum-zero partition exists at block length 5 (three blocks of five
    4-bit columns), where no perfect code exists at all; the relaxed code
    still compresses, its total rate just exceeds the packing bound."""
    pool = set(range(1, 16))
    groups = []
    for x in sorted(pool):
        if x not in pool:
            continue
        found = None
        for y in sorted(pool):
            if y in (x,) or y not in pool:
                continue
            z = x ^ y
            if z in pool and z not in (x, y):
                found = (x, y, z)
                break
        if found:
            for v in found:
                pool.discard(v)
            groups.append(found)
    assert len(groups) == 5, "greedy zero-sum grouping must cover all 15 values"
    blocks = list(zip(*groups))  # block b takes element b of each triple
    Q = tuple(
        gf2.BitMatrix.from_bits(
            [[(val >> (3 - r)) & 1 for val in blk] for r in range(4)]
        )
        for blk in blocks
    )
    bundle = ghcms.ghcms_build(Q)
    assert codec.is_compressible(bundle.code)
    assert bundle.M > 9  # the packing-equality rate is unattainable here
    assert not codec.is_perfect(bundle.code)
    for x in sources.enumerate_hamming_sources(3, 5):
        assert ghcms.ghcms_decode(bundle, codec.encode(bundle.code, x)) == x


def test_randomized_partition_with_scattered_pivots(rng):
    # partitions from the randomized search have pivots spread across the
    # stack; the standard completion must still produce an invertible [Y; T]
    Q = hcms.random_sum_zero_partition(3, 6, rng)
    assert Q is not None
    g = ghcms.ghcms_build(Q)
    assert codec.is_perfect(g.code)
    for _ in range(50):
        x = sources.random_member(3, 21, rng)
        assert ghcms.ghcms_decode(g, codec.encode(g.code, x)) == x


def test_explicit_c_choices(bundle_a3):
    # any row basis works, not just the canonical one: permute rows of Q_i
    perm = gf2.BitMatrix.from_bits(
        [[1 if j == (i + 1) % 6 else 0 for j in range(6)] for i in range(6)]
    )
    C_alt = tuple(perm @ Qi for Qi in bundle_a3.Q)
    g = hcms.assemble(bundle_a3.Q, C_alt, None, None)
    assert codec.is_perfect(g.code)


def test_degenerate_two_source_bundle():
    ham = hcms.hamming_matrix(3)
    b = ghcms.degenerate_two_source(ham)
    assert b.s == 2 and b.code.m == (7, 3)
    assert codec.is_perfect(b.code)
    for x in sources.enumerate_hamming_sources(2, 7):
        assert ghcms.ghcms_decode(b, codec.encode(b.code, x)) == x


def test_degenerate_rejects_bad_matrix():
    dup = gf2.BitMatrix.from_bits([[1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        ghcms.degenerate_two_source(dup)
