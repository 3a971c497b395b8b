"""Direct construction: base partition, lifting chain, bundles, decoding."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import codec, gf2, hcms, sources
from swhamming.errors import (
    BudgetExceededError,
    HeightNegativeError,
    NotHammingPartitionError,
    RNotInvertibleError,
    SyndromeNotDecodableError,
)


def test_hamming_matrix_small():
    assert hcms.hamming_matrix(2).to_array().tolist() == [[0, 1, 1], [1, 0, 1]]
    H3 = hcms.hamming_matrix(3)
    assert (H3.rows, H3.cols) == (3, 7)
    bits = H3.to_array()
    assert np.unique(bits, axis=1).shape[1] == 7 and bits.any(axis=0).all()


def test_hamming_matrix_matches_partition_columns(bundle_a3):
    H6 = hcms.hamming_matrix(6)
    assert sorted(hcms._column_values(H6)) == sorted(hcms._column_values(bundle_a3.P))


@given(st.integers(1, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_standard_completion_is_the_unit_rows_off_the_pivots(n, seed):
    # the rows of the identity at Y's non-pivot columns, whether the pivots
    # are found or read off an RREF Y's leading bits
    rng = np.random.default_rng(seed)
    Y = gf2.random_matrix(int(rng.integers(0, n + 1)), n, rng)
    pivots = gf2.pivot_columns(Y)
    if len(pivots) < Y.rows:
        with pytest.raises(RNotInvertibleError):
            hcms.standard_completion(Y)
        Y = gf2.row_basis(Y)
    want = gf2.BitMatrix.from_bits(np.delete(np.eye(n, dtype=np.uint8), pivots, axis=0))
    assert hcms.standard_completion(Y) == want
    basis = gf2.row_basis(Y)
    assert hcms.standard_completion(basis, gf2._leading_bits(basis.data)) == want


# ---------------------------------------------------------------------------
# the embedded base partition
# ---------------------------------------------------------------------------


def test_base_partition_sum_zero():
    Q1, Q2, Q3 = hcms.a3_partition()
    assert (Q1 + Q2 + Q3).is_zero()


def test_base_partition_is_hamming():
    Q = hcms.a3_partition()
    assert sorted(hcms._column_values(gf2.hstack(Q))) == list(range(1, 64))


def test_base_partition_pivots():
    Q1, Q2, _ = hcms.a3_partition()
    pivots = gf2.pivot_columns(gf2.vstack([Q1, Q2]))
    assert pivots == list(range(12))
    # the 12-column truncations stack to a full-rank square matrix
    piv12 = gf2.pivot_columns(gf2.vstack([Q1.take_cols(0, 12), Q2.take_cols(0, 12)]))
    assert piv12 == list(range(12))


def test_base_partition_block_rank_and_kernel():
    # frozen from row-reducing the embedded block: full row rank, so the
    # kernel has dimension 21 - 6
    Q1, _, _ = hcms.a3_partition()
    assert gf2.rank(Q1) == 6
    N = gf2.null_space(Q1)
    assert N.dim == 15
    for i in range(N.dim):
        assert gf2.mat_vec(Q1, N.basis.row(i)).is_zero()


def test_base_partition_k_relation():
    # V = [0 | I] + K U on the 12-column truncations
    Q1, Q2, _ = hcms.a3_partition()
    U = Q1.take_cols(0, 12)
    V = Q2.take_cols(0, 12)
    K = hcms._from_lines(hcms._A3_K)
    ZI = gf2.hstack([gf2.BitMatrix.zeros(6, 6), gf2.BitMatrix.identity(6)])
    assert V == ZI + (K @ U)


def test_a3_bundle(bundle_a3):
    b = bundle_a3
    assert (b.s, b.n, b.M) == (3, 21, 27)
    assert b.code.m == (9, 9, 9)
    assert b.R @ b.R_inv == gf2.BitMatrix.identity(21)
    assert b.T.to_array().tolist() == np.hstack(
        [np.zeros((9, 12), np.uint8), np.eye(9, dtype=np.uint8)]
    ).tolist()
    assert codec.is_perfect(b.code)


def test_a3_void_split():
    b = hcms.hcms_for_a(3, g_split=(9, 0, 0))
    assert b.code.m == (15, 6, 6)
    assert b.G[1].rows == 0 and b.G[2].rows == 0
    assert codec.is_perfect(b.code)


def test_from_parts_rejections():
    one = gf2.BitMatrix.from_bits
    # s = 3, n = 1 has negative completion height
    with pytest.raises(HeightNegativeError):
        hcms.hcms_from_parts([one([[1], [0]]), one([[0], [1]]), one([[1], [1]])])
    # broken sum
    Q1, Q2, Q3 = hcms.a3_partition()
    with pytest.raises(NotHammingPartitionError):
        hcms.hcms_from_parts([Q1, Q2, Q2])
    with pytest.raises(ValueError):
        hcms.hcms_from_parts([Q1, Q2])
    # bad split
    with pytest.raises(ValueError):
        hcms.hcms_from_parts([Q1, Q2, Q3], g_split=(4, 4, 4))
    # a completion that cannot make R invertible
    T = gf2.BitMatrix.zeros(9, 21)
    with pytest.raises(RNotInvertibleError):
        hcms.assemble((Q1, Q2, Q3), None, None, T)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_lift_column_count():
    part = hcms.lift_partition(*hcms.a3_partition())
    n_out = part[0].cols
    assert n_out == 4 * 21 + 1
    assert 3 * n_out == (1 << 8) - 1
    assert part[0].rows == 8


def test_lift_preserves_invariants():
    A, B, C = hcms.lift_partition(*hcms.a3_partition())
    assert (A + B + C).is_zero()
    assert sorted(hcms._column_values(gf2.hstack([A, B, C]))) == list(range(1, 256))
    pivots = gf2.pivot_columns(gf2.vstack([A, B]))
    assert pivots == list(range(16))


def test_lift_chain_to_a5():
    part = hcms.a3_partition()
    for k in (3, 4):
        part = hcms.lift_partition(*part)
        assert hcms.check_lift_precondition(*part) == k + 1


def test_hcms_for_a_checks_each_partition_once(monkeypatch):
    # a = 6 makes four partitions: the embedded one and three lifts; each is
    # validated, and its stack's pivots found, exactly once
    validated, pivoted = [], []
    real_validate, real_pivots = hcms.validate_partition, hcms.pivot_columns

    def validate(Q):
        validated.append(Q[0].rows)
        return real_validate(Q)

    def pivots(M):
        pivoted.append(M.rows)
        return real_pivots(M)

    monkeypatch.setattr(hcms, "validate_partition", validate)
    monkeypatch.setattr(hcms, "pivot_columns", pivots)
    bundle = hcms.hcms_for_a(6)
    assert validated == [6, 8, 10, 12] and pivoted == [12, 16, 20, 24]
    assert codec.is_perfect(bundle.code)
    # a partition handed to lift_partition is still checked
    validated.clear()
    pivoted.clear()
    hcms.lift_partition(*hcms.a3_partition())
    assert validated == [6, 6, 8] and pivoted == [12, 12, 16]


def test_unit_completion_inverse_matches_invert(rng):
    # R = [Y; T] with a unit column in each row of T, at its lowest set bit:
    # unit rows at random distinct columns, or T in RREF.  R^-1 from the
    # r x (n + r) elimination, or SingularMatrixError, as gf2.invert gives
    for _ in range(150):
        n = int(rng.integers(1, 70))
        r = int(rng.integers(0, n + 1))
        if rng.integers(2):
            T = np.zeros((n - r, n), dtype=np.uint8)
            T[np.arange(n - r), rng.permutation(n)[: n - r]] = 1
            T = gf2.BitMatrix.from_bits(T)
        else:
            T = gf2.random_subspace(n, n - r, rng).basis
        R = gf2.vstack([gf2.random_matrix(r, n, rng), T])
        try:
            want = gf2.invert(R)
        except gf2.SingularMatrixError:
            with pytest.raises(gf2.SingularMatrixError):
                hcms._unit_completion_inverse(R, n - r)
        else:
            assert hcms._unit_completion_inverse(R, n - r) == want
    # two rows of T leading at one column are left to gf2.invert, which
    # inverts R or, for a repeated unit row, finds it singular
    R = gf2.BitMatrix.from_bits([[0, 0, 1], [1, 1, 0], [1, 0, 0]])
    assert hcms._unit_completion_inverse(R, 2) is None
    assert R @ gf2.invert(R) == gf2.BitMatrix.identity(3)
    R = gf2.BitMatrix.from_bits([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    assert hcms._unit_completion_inverse(R, 2) is None
    with pytest.raises(gf2.SingularMatrixError):
        gf2.invert(R)


def test_lift_rejects_bad_input():
    Q1, Q2, Q3 = hcms.a3_partition()
    with pytest.raises(NotHammingPartitionError):
        hcms.lift_partition(Q1, Q2, Q2)


@pytest.mark.parametrize("a,n,M", [(3, 21, 27), (4, 85, 93), (5, 341, 351)])
def test_hcms_for_a_params(a, n, M, bundle_a3, bundle_a4, bundle_a5):
    bundle = {3: bundle_a3, 4: bundle_a4, 5: bundle_a5}[a]
    assert (bundle.n, bundle.M) == (n, M)
    assert sum(bundle.code.m) == M
    assert sources.is_perfect_params(3, n, M)


def test_hcms_for_a_chain_beyond_acceptance(rng):
    # one more lift past the acceptance sizes: n = 1365
    bundle = hcms.hcms_for_a(6)
    assert (bundle.n, bundle.M) == (1365, 1377)
    assert codec.is_perfect(bundle.code)
    x = sources.random_member(3, 1365, rng)
    assert hcms.hcms_decode(bundle, codec.encode(bundle.code, x)) == x


def test_hcms_for_a_rejects_small_a():
    with pytest.raises(HeightNegativeError):
        hcms.hcms_for_a(1)
    with pytest.raises(HeightNegativeError):
        hcms.hcms_for_a(2)


def test_hcms_for_a_budget():
    with pytest.raises(BudgetExceededError):
        hcms.hcms_for_a(8)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_decode_zero(bundle_a3):
    zero = tuple(gf2.BitVector.zeros(21) for _ in range(3))
    y = codec.encode(bundle_a3.code, zero)
    assert hcms.hcms_decode(bundle_a3, y) == zero


def test_decode_roundtrip_sampled(bundle_a3, bundle_a4, rng):
    for bundle, n in ((bundle_a3, 21), (bundle_a4, 85)):
        for _ in range(200):
            x = sources.random_member(3, n, rng)
            assert hcms.hcms_decode(bundle, codec.encode(bundle.code, x)) == x


def test_decode_exhaustive_patterns(bundle_a3, rng):
    n = bundle_a3.n
    for _ in range(10):
        bits = rng.integers(0, 2, size=(1, n), dtype=np.uint8)
        b = gf2.BitMatrix.from_bits(bits).row(0)
        for pattern in range(3 * n + 1):
            if pattern == 0:
                x = (b, b, b)
            else:
                t, p = divmod(pattern - 1, n)
                e = gf2.BitVector.unit(n, p)
                x = tuple(b + e if i == t else b for i in range(3))
            assert hcms.hcms_decode(bundle_a3, codec.encode(bundle_a3.code, x)) == x


def test_locate_column_miss_raises(bundle_a3):
    # a valid partition contains every nonzero value as a column, so only a
    # corrupted bundle can miss; the zero vector exercises the error path
    with pytest.raises(SyndromeNotDecodableError):
        bundle_a3.locate_column(gf2.BitVector.zeros(6))


def test_decode_dimension_mismatch(bundle_a3):
    with pytest.raises(ValueError):
        hcms.hcms_decode(bundle_a3, (gf2.BitVector.zeros(3),) * 3)


# ---------------------------------------------------------------------------
# randomized partition search
# ---------------------------------------------------------------------------


def test_random_partition_search(rng):
    assert hcms.random_sum_zero_partition(3, 4, rng) is None  # completion impossible
    Q = hcms.random_sum_zero_partition(3, 6, rng)
    assert Q is not None
    bundle = hcms.hcms_from_parts(Q)
    assert codec.is_perfect(bundle.code)


@pytest.mark.parametrize("mn", [8, 10])
def test_random_partition_search_s3_draws_a_spread(rng, mn):
    # greedy placement strands the last values for s = 3 (at mn = 8 it gave
    # up after about 1 s); the lines of a random spread are found at once
    start = time.perf_counter()
    Q = hcms.random_sum_zero_partition(3, mn, rng)
    assert time.perf_counter() - start < 0.1
    hcms.validate_partition(Q)
    assert gf2.rank(gf2.vstack(Q[:2])) == 2 * mn
    assert codec.is_perfect(hcms.hcms_from_parts(Q).code)


def test_random_partition_search_infeasible_s5(rng):
    # 15 columns split five ways gives n = 3 < (s-1) mn: no completion fits
    assert hcms.random_sum_zero_partition(5, 4, rng) is None
