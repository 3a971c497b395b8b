"""GF(2) substrate: elimination, subspaces, and their defining identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_matrix_bytes
from swhamming import gf2
from swhamming.errors import MalformedFileError, SingularMatrixError

matrices = st.integers(0, 2**31 - 1).map(
    lambda seed: gf2.random_matrix(
        int(np.random.default_rng(seed).integers(1, 10)),
        int(np.random.default_rng(seed + 1).integers(1, 80)),
        np.random.default_rng(seed + 2),
    )
)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(M):
    assert gf2.rank(M) + gf2.null_space(M).dim == M.cols


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_null_space_annihilates(M):
    N = gf2.null_space(M)
    for i in range(N.dim):
        assert gf2.mat_vec(M, N.basis.row(i)).is_zero()


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_null_vector_is_the_first_basis_vector(M):
    N = gf2.null_space(M)
    assert gf2.null_vector(M) == (N.basis.row(0) if N.dim else None)


@pytest.mark.parametrize("cols", [1, 63, 64, 65, 130])
def test_bits_at_or_beyond_cols_are_cleared(cols):
    # packed words with stray bits past the width, the top bit of every row's
    # last word among them, make the same matrix as the words without them
    rng = np.random.default_rng(cols)
    words = rng.integers(0, 1 << 63, size=(5, (cols + 63) // 64), dtype=np.uint64)
    words[:, -1] |= np.uint64(1 << 63)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, :cols]
    wide, clean = gf2.BitMatrix(5, cols, words.copy()), gf2.BitMatrix.from_bits(bits)
    assert wide == clean and hash(wide) == hash(clean)
    assert wide.data.tobytes() == clean.data.tobytes()
    assert wide.to_array().shape == (5, cols) and (wide.to_array() == bits).all()


def test_matrix_adopts_a_packed_array_of_its_shape():
    # a C-contiguous uint64 array of the packed shape is taken over, not
    # copied: its tail is cleared in place and it becomes read-only
    words = np.full((2, 1), 2**64 - 1, dtype=np.uint64)
    M = gf2.BitMatrix(2, 10, words)
    assert M.data is words
    assert words.tolist() == [[0x3FF], [0x3FF]] and not words.flags.writeable
    # any other array is copied, and the caller's stays as it was
    strided = np.full((2, 2), 2**64 - 1, dtype=np.uint64)[:, ::2]
    M = gf2.BitMatrix(2, 10, strided)
    assert M.data is not strided and strided.flags.writeable
    assert strided.tolist() == [[2**64 - 1]] * 2 and M.data.tolist() == [[0x3FF]] * 2


def test_rank_examples():
    assert gf2.rank(gf2.BitMatrix.zeros(3, 5)) == 0
    assert gf2.rank(gf2.BitMatrix.identity(6)) == 6


def test_null_space_examples():
    assert gf2.null_space(gf2.BitMatrix.identity(4)).dim == 0
    assert gf2.null_vector(gf2.BitMatrix.identity(4)) is None
    assert gf2.null_vector(gf2.BitMatrix.zeros(0, 70)) == gf2.BitVector.unit(70, 0)
    ones = gf2.BitMatrix.from_bits([[1, 1, 1, 1, 1]])
    N = gf2.null_space(ones)
    assert N.dim == 4
    for i in range(4):
        assert N.basis.row(i).weight() % 2 == 0


def test_row_basis_example():
    A = gf2.BitMatrix.from_bits([[1, 0, 0], [1, 0, 0], [1, 1, 1]])
    B = gf2.row_basis(A)
    assert B == gf2.BitMatrix.from_bits([[1, 0, 0], [0, 1, 1]])
    A2 = gf2.BitMatrix.from_bits([[1, 0, 0], [1, 1, 1], [1, 1, 1]])
    assert gf2.row_basis(A2) == B


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_row_basis_preserves_row_space(M):
    B = gf2.row_basis(M)
    # every row of M is expressible in B and vice versa
    C, D = gf2.row_basis_transforms(M, B)
    assert C @ B == M
    assert D @ M == B


def test_row_basis_transforms_example():
    A = gf2.BitMatrix.from_bits([[1, 0, 0], [1, 0, 0], [1, 1, 1]])
    B = gf2.BitMatrix.from_bits([[1, 0, 0], [0, 1, 1]])
    C, D = gf2.row_basis_transforms(A, B)
    assert C == gf2.BitMatrix.from_bits([[1, 0], [1, 0], [1, 1]])
    assert D @ A == B


def test_row_basis_transforms_identity_case():
    A = gf2.BitMatrix.from_bits([[1, 1], [0, 1]])
    C, D = gf2.row_basis_transforms(A, A)
    assert C == gf2.BitMatrix.identity(2)
    assert D == gf2.BitMatrix.identity(2)


def test_row_basis_transforms_rejects_mismatch():
    A = gf2.BitMatrix.from_bits([[1, 0, 0]])
    B = gf2.BitMatrix.from_bits([[0, 1, 0]])
    with pytest.raises(ValueError, match=r"^row\(A\) is not contained in row\(B\)$"):
        gf2.row_basis_transforms(A, B)
    with pytest.raises(ValueError, match=r"^row\(X\) is not contained in row\(Y\)$"):
        gf2.row_basis_transforms(A, B, names=("X", "Y"))
    not_full_rank = gf2.BitMatrix.from_bits([[1, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        gf2.row_basis_transforms(not_full_rank, not_full_rank)


def test_invert(rng):
    assert gf2.invert(gf2.BitMatrix.identity(5)) == gf2.BitMatrix.identity(5)
    for n in (1, 7, 64, 65):
        A = gf2.random_invertible(n, rng)
        Ainv = gf2.invert(A)
        assert A @ Ainv == gf2.BitMatrix.identity(n)
        assert gf2.invert(Ainv) == A
    singular = gf2.BitMatrix.from_bits([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        gf2.invert(singular)


def test_subspace_canonical_equality(rng):
    for _ in range(20):
        S = gf2.random_subspace(8, 3, rng)
        # re-span from random invertible combinations of the basis
        T = gf2.random_invertible(3, rng)
        S2 = gf2.Subspace(8, T @ S.basis)
        assert S == S2 and hash(S) == hash(S2)


@pytest.mark.parametrize("side", ["span", "basis", "check", "kernel_of"])
def test_subspace_refuses_a_side_of_another_width(side):
    rows = {side: gf2.BitMatrix.identity(5)}
    assert gf2.Subspace(5, **rows).n == 5
    for n in (4, 6):
        with pytest.raises(ValueError, match=f"{side} width 5"):
            gf2.Subspace(n, **rows)
    # one side of the right width does not excuse another
    other = "kernel_of" if side == "span" else "span"
    with pytest.raises(ValueError, match=f"{side} width 5"):
        gf2.Subspace(6, **rows, **{other: gf2.BitMatrix.zeros(0, 6)})
    with pytest.raises(ValueError, match="needs rows"):
        gf2.Subspace(5)


def test_subspace_idempotence(rng):
    A = gf2.random_subspace(9, 4, rng)
    assert gf2.subspace_intersect(A, A) == A
    assert gf2.subspace_sum(A, A) == A


def test_complement_properties(rng):
    assert gf2.complement(gf2.Subspace.zero(6), gf2.Subspace.full(6)) == gf2.Subspace.full(6)
    for _ in range(20):
        W = gf2.random_subspace(10, int(rng.integers(1, 9)), rng)
        A = gf2.random_subspace_of(W, int(rng.integers(0, W.dim + 1)), rng)
        B = gf2.complement(A, W)
        assert A.dim + B.dim == W.dim
        assert gf2.subspace_intersect(A, B).dim == 0
        assert gf2.subspace_sum(A, B) == W
    with pytest.raises(ValueError):
        gf2.complement(gf2.random_subspace(10, 3, rng), gf2.random_subspace(10, 2, rng))


def test_modular_law_facts(rng):
    """Sum distributes over intersection when one operand sits inside the
    other: (V + U) cap W = (V cap W) + U whenever U is a subspace of W."""
    for _ in range(100):
        n = int(rng.integers(2, 12))
        W = gf2.random_subspace(n, int(rng.integers(1, n + 1)), rng)
        U = gf2.random_subspace_of(W, int(rng.integers(0, W.dim + 1)), rng)
        V = gf2.random_subspace(n, int(rng.integers(0, n + 1)), rng)
        lhs = gf2.subspace_intersect(gf2.subspace_sum(V, U), W)
        rhs = gf2.subspace_sum(gf2.subspace_intersect(V, W), U)
        assert lhs.contains_subspace(rhs) and rhs.contains_subspace(lhs)
        # direct-sum refinement: if V and U are disjoint, both sides split
        if gf2.subspace_intersect(V, U).dim == 0:
            assert gf2.subspace_intersect(gf2.subspace_intersect(V, W), U).dim == 0


def test_matrix_with_null_space(rng):
    assert gf2.matrix_with_null_space(gf2.Subspace.zero(5)) == gf2.BitMatrix.identity(5)
    full = gf2.matrix_with_null_space(gf2.Subspace.full(4))
    assert full.rows == 0 and full.cols == 4
    for _ in range(25):
        n = int(rng.integers(1, 12))
        N = gf2.random_subspace(n, int(rng.integers(0, n + 1)), rng)
        H = gf2.matrix_with_null_space(N)
        assert H.rows == n - N.dim
        assert gf2.rank(H) == H.rows
        assert gf2.null_space(H) == N


def test_matrix_text_roundtrip(rng):
    for rows, cols in [(0, 3), (3, 1), (4, 70)]:
        M = gf2.random_matrix(rows, cols, rng)
        assert parse_matrix_bytes(gf2.format_matrix(M).encode()) == M
    with pytest.raises(MalformedFileError):
        parse_matrix_bytes(b"2 2\n01\n")
    with pytest.raises(MalformedFileError):
        parse_matrix_bytes(b"1 3\n012\n")


def test_vector_basics():
    v = gf2.BitVector.from_bits([1, 0, 1])
    w = gf2.BitVector.unit(3, 1)
    assert (v + w).to01() == "111"
    assert v.weight() == 2
    assert v.bit(0) == 1 and v.bit(1) == 0
    assert gf2.BitVector.zeros(3).is_zero()
    assert gf2.split(gf2.concat([v, w]), [3, 3]) == [v, w]
    with pytest.raises(ValueError):
        gf2.BitVector.from_bits(np.ones((2, 3), dtype=np.uint8))


def test_word_boundary_shapes(rng):
    # operations must be exact around the 64-bit word edges
    for n in (63, 64, 65, 127, 128, 129):
        A = gf2.random_invertible(n, rng)
        assert A @ gf2.invert(A) == gf2.BitMatrix.identity(n)
        M = gf2.random_matrix(7, n, rng)
        assert gf2.rank(M) + gf2.null_space(M).dim == n
        assert gf2.null_vector(M) == gf2.null_space(M).basis.row(0)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 12), cols=st.integers(0, 40), seed=st.integers(0, 2**31 - 1))
def test_distinct_nonzero_columns_matches_unique(rows, cols, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    want = np.unique(bits, axis=1).shape[1] == cols and bits.any(axis=0).all()
    assert gf2.distinct_nonzero_columns(gf2.BitMatrix.from_bits(bits)) == want
