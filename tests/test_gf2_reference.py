"""The array-code subspace routines, matrix text format (read by the byte
parser of code and bundle files) and matrix product against the loop
implementations they replaced, the sums and intersections that choose
between a subspace's basis and check against the basis-only routes they
replaced, ``row_basis_transforms``
against the larger elimination it replaced, ``row_basis_and_transforms``
against the two calls it stands for, the int-backed ``BitVector``
against the words-backed one it replaced, and the two-phase elimination
(echelon form, then back-substitution) against the one-pass Gauss-Jordan
loop it replaced, kept here as references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_lines, parse_matrix_bytes
from swhamming import codec, gf2, hcms
from swhamming._kernels import (
    U64_1,
    back_substitute,
    echelon_in_place,
    matvec_packed,
    nwords,
    pack_bits,
    rref_in_place,
    unpack_bits,
)
from swhamming.errors import MalformedFileError
from swhamming.gf2 import BitMatrix, BitVector, Subspace

# ---------------------------------------------------------------------------
# references: the loop bodies as they were before the array code
# ---------------------------------------------------------------------------


def ref_rref_in_place(data: np.ndarray, n_pivot_cols: int) -> np.ndarray:
    """Gauss-Jordan in one pass: each pivot row is XORed into every other
    row that has its bit, above as well as below."""
    rows = data.shape[0]
    pivots = np.empty(min(rows, n_pivot_cols), dtype=np.int64)
    if rows == 0 or n_pivot_cols == 0 or data.shape[1] == 0:
        return pivots[:0]
    r = 0
    for c in range(n_pivot_cols):
        if r >= rows:
            break
        w = c >> 6
        sh = np.uint64(c & 63)
        nz = np.nonzero((data[r:, w] >> sh) & U64_1)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        mask = ((data[:, w] >> sh) & U64_1).astype(bool)
        mask[r] = False
        if mask.any():
            data[mask, w:] ^= data[r, w:]
        pivots[r] = c
        r += 1
    return pivots[:r]


def ref_matmul(A: BitMatrix, B: BitMatrix) -> BitMatrix:
    """XOR row j of B into every row of A that has bit j set."""
    one = np.uint64(1)
    out = np.zeros((A.rows, B.data.shape[1]), dtype=np.uint64)
    for j in range(A.cols):
        mask = ((A.data[:, j >> 6] >> np.uint64(j & 63)) & one).astype(bool)
        if mask.any():
            out[mask] ^= B.data[j]
    return BitMatrix(A.rows, B.cols, out)


def ref_format_matrix(M: BitMatrix) -> str:
    lines = [f"{M.rows} {M.cols}"]
    arr = M.to_array()
    for i in range(M.rows):
        lines.append("".join("1" if b else "0" for b in arr[i]))
    return "\n".join(lines) + "\n"


def ref_parse_matrix(lines) -> BitMatrix:
    it = iter(lines)
    try:
        header = next(it).split()
        rows, cols = int(header[0]), int(header[1])
    except (StopIteration, IndexError, ValueError) as exc:
        raise MalformedFileError("expected 'rows cols' header") from exc
    bits = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        try:
            line = next(it).strip()
        except StopIteration as exc:
            raise MalformedFileError(f"matrix body ended after {i} of {rows} rows") from exc
        if len(line) != cols or set(line) - {"0", "1"}:
            shown = line if len(line) <= 16 else line[:16] + "..."
            raise MalformedFileError(f"bad matrix row {i}: {shown!r} ({len(line)} characters)")
        bits[i] = [c == "1" for c in line]
    return BitMatrix.from_bits(bits)


def ref_null_space(M: BitMatrix) -> Subspace:
    """Two eliminations: the kernel vectors read off rref(M), then their
    canonical basis by a second elimination (``Subspace``)."""
    n = M.cols
    data = M.data.copy()
    pivots = ref_rref_in_place(data, n)
    rk = len(pivots)
    if rk == n:
        return Subspace.zero(n)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    # one basis vector per free column f: x_f = 1, x_p = rref[i, f] at pivot p_i
    bits = np.zeros((n - rk, n), dtype=np.uint8)
    bits[np.arange(n - rk), free] = 1
    bits[:, pivots] = unpack_bits(data[:rk], n)[:, free].T
    return Subspace(n, BitMatrix(n - rk, n, pack_bits(bits)))


def ref_row_basis_transforms(A: BitMatrix, B: BitMatrix) -> tuple[BitMatrix, BitMatrix]:
    """(C, D) with A = C B and B = D A, D solving B = D A directly: an
    elimination of [A^T | B^T], n rows."""
    if A.cols != B.cols:
        raise ValueError("width mismatch")
    C = gf2._express_rows(A, B)
    if C is None:
        raise ValueError("row(A) is not contained in row(B)")
    if gf2.rank(B) != B.rows:
        raise ValueError("B is not full row rank")
    D = gf2._express_rows(B, A)
    if D is None:
        raise ValueError("row(B) is not contained in row(A)")
    return C, D


def ref_subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    """The stacked bases, made canonical by ``row_basis``: the one route
    ``subspace_sum`` took before it chose between the sides."""
    return Subspace(A.n, basis=gf2.row_basis(gf2.vstack([A.basis, B.basis])))


def ref_subspace_intersect(A: Subspace, B: Subspace) -> Subspace:
    """Zassenhaus on the Gauss-Jordan form of [[A|A],[B|0]]: the one route
    ``subspace_intersect`` took before it chose between the sides."""
    n = A.n
    if A.dim == 0 or B.dim == 0:
        return Subspace.zero(n)
    M = gf2.vstack(
        [gf2.hstack([A.basis, A.basis]), gf2.hstack([B.basis, BitMatrix.zeros(B.dim, n)])]
    )
    data = M.data.copy()
    pivots = ref_rref_in_place(data, M.cols)
    left_rank = sum(1 for p in pivots if p < n)
    gens = unpack_bits(data, M.cols)[left_rank : len(pivots), n:]
    if gens.size == 0:
        return Subspace.zero(n)
    return Subspace(n, BitMatrix.from_bits(gens))


def ref_leading_bit(words: np.ndarray) -> int:
    for k, wd in enumerate(words):
        if wd:
            return (k << 6) + int(wd & (~wd + np.uint64(1))).bit_length() - 1
    raise ValueError("zero row has no leading bit")


def ref_subspace_contains(A: Subspace, v: BitVector) -> bool:
    if A.n != v.n:
        raise ValueError("ambient dimension mismatch")
    w = v.words.copy()
    basis = A.basis
    for i in range(basis.rows):
        data = basis.data[i]
        p = ref_leading_bit(data)
        if (w[p >> 6] >> np.uint64(p & 63)) & np.uint64(1):
            w ^= data
    return not w.any()


def ref_complement(A: Subspace, within: Subspace) -> Subspace:
    if A.n != within.n:
        raise ValueError("ambient dimension mismatch")
    if not all(ref_subspace_contains(within, A.basis.row(i)) for i in range(A.dim)):
        raise ValueError("A is not a subspace of `within`")
    reducer = A.basis.data.copy()
    kept: list[int] = []
    for i in range(within.dim):
        w = within.basis.data[i].copy()
        for rrow in reducer:
            p = ref_leading_bit(rrow) if rrow.any() else None
            if p is not None and (w[p >> 6] >> np.uint64(p & 63)) & np.uint64(1):
                w ^= rrow
        if w.any():
            kept.append(i)
            stacked = np.concatenate([reducer, w[None, :]])
            ref_rref_in_place(stacked, A.n)
            reducer = stacked
    return Subspace(A.n, BitMatrix(len(kept), A.n, within.basis.data[kept]))


class RefBitVector:
    """The vector as it was before it became one int: a read-only uint64
    array of nwords(n) words with the bits at or beyond n zeroed."""

    __slots__ = ("n", "_w")

    def __init__(self, n: int, words: np.ndarray):
        self.n = n
        w = np.array(words, dtype=np.uint64)
        if n & 63 and w.size:
            w[-1] &= np.uint64((1 << (n & 63)) - 1)
        w.flags.writeable = False
        self._w = w

    @classmethod
    def zeros(cls, n: int) -> RefBitVector:
        return cls(n, np.zeros(nwords(n), dtype=np.uint64))

    @classmethod
    def from_bits(cls, bits) -> RefBitVector:
        if isinstance(bits, np.ndarray):
            arr = (bits & 1).astype(np.uint8, copy=False)
        else:
            arr = np.fromiter((int(b) & 1 for b in bits), dtype=np.uint8)
        return cls(len(arr), pack_bits(arr[None, :])[0])

    @classmethod
    def unit(cls, n: int, p: int) -> RefBitVector:
        w = np.zeros(nwords(n), dtype=np.uint64)
        w[p >> 6] = np.uint64(1) << np.uint64(p & 63)
        return cls(n, w)

    @property
    def words(self) -> np.ndarray:
        return self._w

    def bit(self, p: int) -> int:
        return int((self._w[p >> 6] >> np.uint64(p & 63)) & np.uint64(1))

    def weight(self) -> int:
        return int(np.bitwise_count(self._w).sum())

    def is_zero(self) -> bool:
        return not self._w.any()

    def to_array(self) -> np.ndarray:
        return unpack_bits(self._w[None, :], self.n)[0]

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.to_array())

    def tobytes(self) -> bytes:
        return self._w.tobytes()

    def __add__(self, other: RefBitVector) -> RefBitVector:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return RefBitVector(self.n, self._w ^ other._w)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RefBitVector)
            and self.n == other.n
            and self._w.tobytes() == other._w.tobytes()
        )


def _ref_int(v: RefBitVector) -> int:
    return int.from_bytes(v.words.tobytes(), "little")


def _ref_vec(val: int, n: int) -> RefBitVector:
    buf = val.to_bytes(8 * nwords(n), "little")
    return RefBitVector(n, np.frombuffer(buf, dtype=np.uint64))


def ref_concat(vectors) -> RefBitVector:
    val = off = 0
    for v in vectors:
        val |= _ref_int(v) << off
        off += v.n
    return _ref_vec(val, off)


def ref_split(v: RefBitVector, sizes) -> list[RefBitVector]:
    val = _ref_int(v)
    out = []
    for s in sizes:
        out.append(_ref_vec(val & ((1 << s) - 1), s))
        val >>= s
    return out


def ref_mat_vec(M: BitMatrix, v: RefBitVector) -> RefBitVector:
    return RefBitVector(M.rows, matvec_packed(M.data, v.words))


def ref_row(M: BitMatrix, i: int) -> RefBitVector:
    return RefBitVector(M.cols, M.data[i])


def ref_column(M: BitMatrix, j: int) -> RefBitVector:
    bits = ((M.data[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)).astype(np.uint8)
    return RefBitVector(M.rows, pack_bits(bits[None, :])[0])


# ---------------------------------------------------------------------------
# strategies: shapes with 0 rows, 0 columns and widths at the word edge
# ---------------------------------------------------------------------------

widths = st.sampled_from([0, 1, 2, 5, 63, 64, 65]) | st.integers(0, 140)


def _bits(seed: int, rows: int, cols: int, density: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


@st.composite
def matrices(draw, max_rows: int = 12, cols=widths):
    rows = draw(st.integers(0, max_rows))
    n = draw(cols)
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    return BitMatrix.from_bits(_bits(draw(st.integers(0, 2**32 - 1)), rows, n, density))


@st.composite
def nested_subspaces(draw):
    """(A, within) with A a subspace of within, or not when ``inside`` is
    False (then A is a random subspace of the ambient space)."""
    M = draw(matrices(max_rows=10))
    W = Subspace(M.cols, M)
    inside = draw(st.booleans())
    rows = draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    if inside:
        coeff = BitMatrix.from_bits(_bits(seed, rows, W.dim, 0.5))
        A = Subspace(W.n, coeff @ W.basis)
    else:
        A = Subspace(W.n, BitMatrix.from_bits(_bits(seed, rows, W.n, 0.5)))
    return A, W


@st.composite
def products(draw):
    """(A, B) with A.cols == B.rows; any of the three sizes may be 0."""
    rows = draw(st.integers(0, 12))
    inner, outer = draw(widths), draw(widths)
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    A = BitMatrix.from_bits(_bits(seed, rows, inner, density))
    B = BitMatrix.from_bits(_bits(seed + 1, inner, outer, density))
    return A, B


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _check_product(A: BitMatrix, B: BitMatrix) -> None:
    AB = A @ B
    assert (AB.rows, AB.cols) == (A.rows, B.cols)
    assert AB == ref_matmul(A, B)
    want = (A.to_array().astype(np.int64) @ B.to_array().astype(np.int64)) & 1
    for j in range(min(B.cols, 3)):
        col = BitVector.from_bits(B.to_array()[:, j])
        assert gf2.mat_vec(A, col) == BitVector.from_bits(want[:, j])


@given(products())
@settings(max_examples=200, deadline=None)
def test_matmul_and_mat_vec_match_reference(pair):
    _check_product(*pair)


@pytest.mark.parametrize("rows", [0, 65])
@pytest.mark.parametrize("inner", [0, 63, 64, 65])
@pytest.mark.parametrize("outer", [0, 63, 64, 65])
def test_matmul_and_mat_vec_match_reference_at_edges(rows, inner, outer):
    seed = rows * 10_000 + inner * 100 + outer
    A = BitMatrix.from_bits(_bits(seed, rows, inner, 0.5))
    B = BitMatrix.from_bits(_bits(seed + 1, inner, outer, 0.5))
    _check_product(A, B)
    x = BitVector.from_bits(_bits(seed + 2, 1, inner, 0.5)[0])
    want = (A.to_array().astype(np.int64) @ x.to_array().astype(np.int64)) & 1
    assert gf2.mat_vec(A, x) == BitVector.from_bits(want)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_format_matrix_matches_reference(M):
    assert gf2.format_matrix(M) == ref_format_matrix(M)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_parse_inverts_format(M):
    back = parse_matrix_bytes(gf2.format_matrix(M).encode())
    assert back == M
    assert back == ref_parse_matrix(ref_format_matrix(M).splitlines())


@st.composite
def kernel_inputs(draw):
    """0-12 rows, 1-200 columns with the word edges and two words included:
    random, rank 0 or of full rank min(rows, cols)."""
    rows = draw(st.integers(0, 12))
    n = draw(st.sampled_from([1, 63, 64, 65, 128, 200]) | st.integers(1, 200))
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random((rows, n)) < draw(st.sampled_from([0.05, 0.5, 0.95]))).astype(np.uint8)
    if kind == "zero":
        bits[:] = 0
    elif kind == "full":
        r = min(rows, n)
        cols = rng.permutation(n)[:r]
        bits[:r, cols] = np.eye(r, dtype=np.uint8)
        bits[r:] = 0
    return BitMatrix.from_bits(bits)


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_null_space_matches_reference(M):
    got = gf2.null_space(M)
    assert got.basis == ref_null_space(M).basis
    assert (M @ got.basis.transpose()).is_zero()


@st.composite
def row_bases(draw):
    """(A, B): A of 0-14 rows, dependent ones included, spanning a random
    subspace of rank 0-10 in 0-140 columns (the word edges and two words
    included), and B a row basis of A: the canonical one, or a random
    invertible matrix times it.  Or an invalid pair: B with more rows than
    its rank, B missing a row of the basis (row(A) not in row(B)), or B
    with one more row (row(B) larger than row(A), or B rank deficient)."""
    n = draw(st.sampled_from([63, 64, 65, 128]) | widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = gf2.random_matrix(draw(st.integers(0, min(n, 10))), n, rng)
    A = gf2.random_matrix(draw(st.integers(0, 14)), span.rows, rng) @ span
    B = gf2.row_basis(A)
    if draw(st.booleans()):
        B = gf2.random_invertible(B.rows, rng) @ B
    kind = draw(st.sampled_from(["basis", "basis", "deficient", "narrow", "wide"]))
    if kind == "deficient":
        B = gf2.random_matrix(B.rows + draw(st.integers(1, 3)), B.rows, rng) @ B
    elif kind == "narrow" and B.rows:
        B = B.take_rows(1, B.rows)
    elif kind == "wide":
        B = gf2.vstack([B, gf2.random_matrix(1, n, rng)])
    return A, B


@given(row_bases())
@settings(max_examples=200, deadline=None)
def test_row_basis_transforms_matches_reference(pair):
    A, B = pair
    try:
        want = ref_row_basis_transforms(A, B)
    except ValueError:
        with pytest.raises(ValueError):
            gf2.row_basis_transforms(A, B)
        return
    C, D = gf2.row_basis_transforms(A, B)
    assert (C, D) == want
    assert C @ B == A
    assert D @ A == B


@st.composite
def one_elimination_inputs(draw):
    """A of 0-8 rows in 0-140 columns: of full row rank, rank deficient (a
    product through fewer rows), or independent rows among zero rows."""
    n = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "deficient", "zero rows"]))
    rows = draw(st.integers(0 if kind == "full" else 1, 8))
    rank = rows if kind == "full" else draw(st.integers(0, rows - 1))
    rank = min(rank, n)
    span = gf2.random_matrix(rank, n, rng)
    while gf2.rank(span) < rank:
        span = gf2.random_matrix(rank, n, rng)
    if kind == "deficient":
        return gf2.random_matrix(rows, rank, rng) @ span
    if kind == "full":
        return span
    # rank nonzero rows of full rank, the other rows zero, in random order
    bits = np.zeros((rows, n), dtype=np.uint8)
    bits[rng.permutation(rows)[:rank]] = span.to_array()
    return BitMatrix.from_bits(bits)


@given(one_elimination_inputs())
@settings(max_examples=200, deadline=None)
def test_row_basis_and_transforms_matches_its_two_calls(A):
    # the one elimination of [A | I] gives, bit for bit, the row basis and
    # the transforms that row_basis and row_basis_transforms give
    B = gf2.row_basis(A)
    assert gf2.row_basis_and_transforms(A) == (B, *gf2.row_basis_transforms(A, B))


@given(nested_subspaces())
@settings(max_examples=150, deadline=None)
def test_complement_matches_reference(pair):
    A, W = pair
    try:
        want = ref_complement(A, W)
    except ValueError:
        with pytest.raises(ValueError, match="not a subspace"):
            gf2.complement(A, W)
        return
    got = gf2.complement(A, W)
    assert got == want
    assert got.basis == gf2.row_basis(got.basis)


@given(matrices(max_rows=10), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_subspace_contains_matches_reference(M, seed, member):
    A = Subspace(M.cols, M)
    rng = np.random.default_rng(seed)
    if member:
        coeff = rng.integers(0, 2, size=(1, A.dim), dtype=np.uint8)
        v = (BitMatrix.from_bits(coeff) @ A.basis).row(0)
    else:
        v = BitVector.from_bits(rng.integers(0, 2, size=M.cols, dtype=np.uint8))
    got = A.contains_subspace(Subspace(A.n, BitMatrix.from_bits(v.to_array()[None, :])))
    assert got == ref_subspace_contains(A, v)
    if member:
        assert got


@given(nested_subspaces())
@settings(max_examples=100, deadline=None)
def test_contains_subspace_matches_reference(pair):
    A, W = pair
    want = all(ref_subspace_contains(W, A.basis.row(i)) for i in range(A.dim))
    assert W.contains_subspace(A) == want


@given(nested_subspaces(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_subspace_intersect_matches_reference(pair, seed):
    A, W = pair
    # a random subspace sharing a random part of W besides
    rng = np.random.default_rng(seed)
    part = gf2.random_matrix(int(rng.integers(0, W.dim + 1)), W.dim, rng) @ W.basis
    B = Subspace(W.n, gf2.vstack([part, gf2.random_matrix(int(rng.integers(0, 4)), W.n, rng)]))
    for X, Y in ((A, W), (W, B), (A, B)):
        got = gf2.subspace_intersect(X, Y)
        assert got == ref_subspace_intersect(X, Y)
        assert got.basis == gf2.row_basis(got.basis)


@st.composite
def held_subspaces(draw, n: int):
    """(N, basis): a subspace of GF(2)^n of dimension 0, small, about n/2,
    large or n, held in one of the ways a Subspace can be (its basis, rows
    spanning it, its check, rows whose kernel it is, or ``null_space``'s
    basis and input), and its canonical basis computed apart."""
    d = draw(st.sampled_from([0, 1, 2, n // 2, n - 2, n - 1, n]) | st.integers(0, n))
    d = min(max(d, 0), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = gf2.row_basis(gf2.random_subspace(n, d, rng).basis)
    check = ref_null_space(basis).basis
    extra = int(rng.integers(0, 3))

    def mixed(M: BitMatrix) -> BitMatrix:
        # the same row space in other rows, and some dependent ones
        if not M.rows:
            return M
        mix = gf2.vstack([gf2.random_invertible(M.rows, rng), gf2.random_matrix(extra, M.rows, rng)])
        return mix @ M

    how = draw(st.sampled_from(["basis", "span", "check", "kernel", "null_space"]))
    if how == "basis":
        N = Subspace(n, basis=basis)
    elif how == "span":
        N = Subspace(n, mixed(basis))
    elif how == "check":
        N = Subspace(n, check=check)
    elif how == "kernel":
        N = Subspace(n, kernel_of=mixed(check))
    else:
        N = gf2.null_space(mixed(check))
    return N, basis


@st.composite
def subspace_pairs(draw):
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 100]) | st.integers(1, 100))
    return n, draw(held_subspaces(n)), draw(held_subspaces(n))


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_sum_and_intersect_choosing_sides_match_reference(case):
    # the routes through stacked spanning rows, through annihilating rows
    # restricted to spanning rows, and through the stacked bases when
    # neither is held give the reference's canonical bits; and
    # every check side, held, derived or read off a result, is the
    # canonical matrix_with_null_space: the kernel of the basis, with
    # null(check) = N
    n, (A, a), (B, b) = case
    ref_A, ref_B = Subspace(n, basis=a), Subspace(n, basis=b)
    want = {"sum": ref_subspace_sum(ref_A, ref_B), "meet": ref_subspace_intersect(ref_A, ref_B)}
    got = {"sum": gf2.subspace_sum(A, B), "meet": gf2.subspace_intersect(A, B)}
    for key in ("sum", "meet"):
        assert got[key].dim == want[key].dim
        assert got[key].basis == want[key].basis
        assert got[key] == want[key] and hash(got[key]) == hash(want[key])
    results = [(got[key], want[key].basis) for key in ("sum", "meet")]
    for N, basis in [(A, a), (B, b), *results]:
        H = gf2.matrix_with_null_space(N)
        assert H is N.check
        assert H == ref_null_space(basis).basis
        assert ref_null_space(H).basis == basis


def test_complement_of_full_space_extends_by_unit_vectors():
    A = Subspace(5, BitMatrix.from_bits([[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]]))
    B = gf2.complement(A, Subspace.full(5))
    assert B == ref_complement(A, Subspace.full(5))
    assert B.basis.to_array().tolist() == [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]


# ---------------------------------------------------------------------------
# text format: accepted spellings and rejected bodies
# ---------------------------------------------------------------------------


@given(
    matrices(max_rows=6),
    st.sampled_from(["\r\n", "\n", "\r"]),
    st.sampled_from(["", " ", "\t ", "\u00a0", "\u2003 "]),
)
@settings(max_examples=100, deadline=None)
def test_parse_accepts_crlf_and_surrounding_blanks(M, end, pad):
    body = ref_format_matrix(M).splitlines()
    text = body[0] + end + "".join(pad + row + pad + end for row in body[1:])
    assert parse_matrix_bytes(text.encode()) == M == ref_parse_matrix(text.splitlines())


def _rejection(parse, lines) -> str:
    with pytest.raises(MalformedFileError) as info:
        parse(lines)
    return str(info.value)


def _byte_rejection(lines) -> str:
    """The byte parser's refusal of the file of these lines, LF-ended."""
    return _rejection(parse_matrix_bytes, "".join(line + "\n" for line in lines).encode())


@given(
    matrices(max_rows=6, cols=st.integers(1, 70)).filter(lambda M: M.rows > 0),
    st.data(),
    st.sampled_from(["char", "short", "long", "truncated"]),
)
@settings(max_examples=150, deadline=None)
def test_parse_rejects_bad_body_naming_the_row(M, data, fault):
    lines = ref_format_matrix(M).splitlines()
    i = data.draw(st.integers(0, M.rows - 1))
    row = lines[1 + i]
    if fault == "char":
        j = data.draw(st.integers(0, M.cols - 1))
        bad = data.draw(st.sampled_from(["2", "x", " ", "é", "�", "١"]))
        # a blank at either end is stripped and leaves the row short
        lines[1 + i] = row[:j] + bad + row[j + 1 :]
    elif fault == "short":
        lines[1 + i] = row[:-1]
    elif fault == "long":
        lines[1 + i] = row + "0"
    else:
        lines = lines[: 1 + i]
    got = _byte_rejection(lines)
    # the file line of the bad row, or of the first row missing
    assert got == f"line {i + 2}: " + _rejection(ref_parse_matrix, lines)
    named = f"after {i} of {M.rows} rows" if fault == "truncated" else f"bad matrix row {i}:"
    assert named in got


def test_parse_reports_the_first_bad_row():
    lines = ["4 3", "010", "0x0", "01", "111"]
    assert _byte_rejection(lines).startswith("line 3: bad matrix row 1:")
    lines = ["4 3", "010", "01", "0x0"]
    assert _byte_rejection(lines).startswith("line 3: bad matrix row 1:")
    lines = ["3 3", "010", "011"]
    assert _byte_rejection(lines) == "line 4: matrix body ended after 2 of 3 rows"


@pytest.mark.parametrize(
    "header", ["-1 4", "4 -1", "99999999999999999999999 1", "0 99999999999999999999999"]
)
def test_parse_rejects_out_of_range_header(header):
    assert _byte_rejection([header, "0000"]).startswith("line 1: matrix dimensions")
    assert "out of range" in _byte_rejection([header, "0000"])


def test_parse_bounds_a_huge_header_by_the_body():
    got = _byte_rejection(["99999999 99999999", "01", "10"])
    assert got.startswith("line 2: bad matrix row 0:")
    got = _byte_rejection(["99999999 2", "01", "10"])
    assert got == "line 4: matrix body ended after 2 of 99999999 rows"


def test_parse_consumes_exactly_the_matrix():
    lines = matrix_lines(b"2 2\n01\n10\nnext\n")
    assert lines.matrix().to_array().tolist() == [[0, 1], [1, 0]]
    assert lines.take() == "next"


def test_equality_compares_shape_and_bits():
    v = BitVector.from_bits([1, 0, 1])
    assert v == BitVector.from_bits(np.array([1, 0, 1], dtype=np.uint8))
    assert v != BitVector.from_bits([1, 0, 1, 0])
    assert v != BitVector.from_bits([1, 0, 0])
    assert v != "101"
    M = BitMatrix.from_bits([[1, 0], [0, 1]])
    assert M == BitMatrix.identity(2)
    assert M != BitMatrix.identity(2).take_rows(0, 1)
    assert BitMatrix.zeros(0, 3) != BitMatrix.zeros(0, 4)
    assert BitMatrix.zeros(3, 0) != BitMatrix.zeros(2, 0)
    assert M != "M"


# ---------------------------------------------------------------------------
# vectors: the int against the words it replaced, bit for byte
# ---------------------------------------------------------------------------


def _same(v: BitVector, r: RefBitVector) -> None:
    """v and r are the same vector in every form either can take."""
    assert v.n == r.n == len(v)
    assert v.tobytes() == r.tobytes()
    assert v.words.dtype == r.words.dtype and v.words.tobytes() == r.words.tobytes()
    assert v.to_array().dtype == r.to_array().dtype == np.uint8
    assert np.array_equal(v.to_array(), r.to_array())
    assert v.to01() == r.to01()
    assert (v.weight(), v.is_zero()) == (r.weight(), r.is_zero())
    assert [v.bit(p) for p in range(v.n)] == [r.bit(p) for p in range(r.n)]


@st.composite
def vector_cases(draw):
    """A length at the word edges or up to 300, three values of that many
    bits, a value with bits beyond it, and sizes that split it in parts."""
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 128]) | st.integers(0, 300))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=3, max_size=3))
    wide = draw(st.integers(0, (1 << (n + 130)) - 1))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return n, values, wide, sizes, draw(st.integers(0, 2**32 - 1))


@given(vector_cases())
@settings(max_examples=300, deadline=None)
def test_bit_vector_matches_reference(case):
    n, values, wide, sizes, seed = case
    rng = np.random.default_rng(seed)
    arrays = [np.array([(x >> j) & 1 for j in range(n)], dtype=np.uint8) for x in values]
    vs = [BitVector.from_bits(a) for a in arrays]
    rs = [RefBitVector.from_bits(a) for a in arrays]
    for x, a, v, r in zip(values, arrays, vs, rs):
        _same(v, r)
        assert v.value == x
        assert BitVector.from_bits(a.tolist()) == v == BitVector(n, x)
        assert BitVector.from_bits(a | 2) == v  # only the low bit of each entry counts
    _same(BitVector.zeros(n), RefBitVector.zeros(n))
    for p in {0, n // 2, n - 1} if n else ():
        _same(BitVector.unit(n, p), RefBitVector.unit(n, p))

    # an int wider than n keeps its low n bits, as the words kept their low n
    masked = BitVector(n, wide)
    assert masked.value == wide & ((1 << n) - 1)
    wide_words = np.frombuffer(wide.to_bytes(8 * nwords(n) + 24, "little"), dtype=np.uint64)
    _same(masked, RefBitVector(n, wide_words[: nwords(n)]))

    v, w, u = vs
    r, q, t = rs
    _same(v + w, r + q)
    _same(v + v, r + r)
    assert (v == w) == (r == q)
    if v == w:
        assert hash(v) == hash(w)
    twin = BitVector.from_bits(arrays[0])
    assert twin == v and hash(twin) == hash(v)
    assert v != BitVector(n + 1, v.value)
    with pytest.raises(ValueError):
        v + BitVector.zeros(n + 1)

    _same(gf2.concat([v, w, u]), ref_concat([r, q, t]))
    _same(gf2.concat([]), ref_concat([]))
    for got, want in zip(gf2.split(v, sizes), ref_split(r, sizes), strict=True):
        _same(got, want)
    assert gf2.concat(gf2.split(v, sizes)) == v

    rows = int(rng.integers(0, 70))
    M = BitMatrix.from_bits(rng.integers(0, 2, size=(rows, n), dtype=np.uint8))
    _same(gf2.mat_vec(M, v), ref_mat_vec(M, r))
    for i in {0, rows - 1} if rows else ():
        _same(M.row(i), ref_row(M, i))
    for j in {0, n - 1} if n else ():
        _same(M.column(j), ref_column(M, j))


# ---------------------------------------------------------------------------
# elimination: echelon form, then back-substitution, against Gauss-Jordan
# ---------------------------------------------------------------------------


@st.composite
def eliminations(draw):
    """(packed rows, width, n_pivot_cols): widths at the word edges and up to
    four words; 0-80 rows, or a tall stack of more rows than columns (so
    rank deficient); random, sparse, dense or low-rank rows, zero and
    duplicate rows among them; a run of zero columns that may straddle a
    word edge; and a pivot-column limit from 0 to the width or inside a
    word."""
    cols = draw(st.sampled_from([0, 1, 63, 64, 65, 128, 191, 192, 193, 256]) | st.integers(0, 260))
    tall = draw(st.booleans())
    rows = draw(st.integers(cols + 1, cols + 40)) if tall else draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "low rank"]))
    if kind == "low rank":
        k = int(rng.integers(0, 8))
        bits = (rng.integers(0, 2, (rows, k)) @ rng.integers(0, 2, (k, cols)) & 1).astype(np.uint8)
    else:
        density = draw(st.sampled_from([0.05, 0.5, 0.95]))
        bits = (rng.random((rows, cols)) < density).astype(np.uint8)
    if rows:
        bits[rng.integers(0, rows, draw(st.integers(0, rows)))] = 0
        dst = rng.integers(0, rows, draw(st.integers(0, rows)))
        bits[dst] = bits[rng.integers(0, rows, dst.size)]
    if draw(st.booleans()):
        # zero columns from up to 70 before a word edge to up to 70 after it
        edge = 64 * draw(st.integers(0, cols >> 6))
        bits[:, max(0, edge - draw(st.integers(0, 70))) : edge + draw(st.integers(0, 70))] = 0
    in_word = st.tuples(st.integers(0, cols >> 6), st.integers(1, 63))
    k = draw(st.integers(0, cols) | in_word.map(lambda wb: min(cols, 64 * wb[0] + wb[1])))
    return pack_bits(bits), cols, k


def _check_elimination(data: np.ndarray, k: int) -> np.ndarray:
    """Echelon form, back-substitution and their composition against the
    Gauss-Jordan reference on ``data`` with pivots in the first k columns;
    returns the reference's pivots."""
    want = data.copy()
    want_pivots = ref_rref_in_place(want, k)
    got = data.copy()
    pivots = echelon_in_place(got, k)
    assert pivots.tolist() == want_pivots.tolist()
    # the rows from the rank down are Gauss-Jordan's, bit for bit
    assert np.array_equal(got[len(pivots) :], want[len(pivots) :])
    back_substitute(got, pivots)
    assert np.array_equal(got, want)
    both = data.copy()
    assert rref_in_place(both, k).tolist() == want_pivots.tolist()
    assert np.array_equal(both, want)
    return want_pivots


@given(eliminations())
@settings(max_examples=300, deadline=None)
def test_echelon_and_back_substitution_match_gauss_jordan(case):
    data, cols, k = case
    _check_elimination(data, k)
    M = BitMatrix(data.shape[0], cols, data)
    want = ref_rref_in_place(M.data.copy(), cols).tolist()
    assert gf2.pivot_columns(M) == want
    assert gf2.rank(M) == len(want)


@pytest.mark.parametrize("a", [3, 4, 5, 6])
def test_plan_elimination_matches_gauss_jordan(a):
    # the plans' [A | I], as CodePlan eliminates it; its F rows and the
    # back-substituted top rows are Gauss-Jordan's
    code = hcms.hcms_for_a(a).code
    A = gf2.vstack(code.matrices)
    aug = gf2.hstack([A, BitMatrix.identity(A.rows)])
    pivots = _check_elimination(aug.data, A.cols)
    assert pivots.tolist() == list(range(A.cols))
    assert gf2.pivot_columns(A) == pivots.tolist()
    assert gf2.rank(A) == A.cols
    want = aug.data.copy()
    ref_rref_in_place(want, A.cols)
    plan = codec.CodePlan(code)
    n = code.n
    assert np.array_equal(plan._echelon.data[n:], want[n:])
    assert plan.top == BitMatrix.from_bits(unpack_bits(want[:n], aug.cols)[:, n:])


@pytest.mark.parametrize("k", [1, 37, 63, 64, 100, 127])
def test_bits_at_or_beyond_the_pivot_limit_give_no_pivot(k):
    # every set bit is at or beyond n_pivot_cols: the jump past the empty
    # columns before the limit finds no pivot and changes nothing
    rng = np.random.default_rng(k)
    bits = (rng.random((20, 192)) < 0.5).astype(np.uint8)
    bits[:, :k] = 0
    data = pack_bits(bits)
    got = data.copy()
    assert echelon_in_place(got, k).tolist() == []
    assert np.array_equal(got, data)
    assert _check_elimination(data, k).tolist() == []


@pytest.mark.parametrize("edge", [64, 128])
@pytest.mark.parametrize("k", [None, 0, 1])
def test_jump_onto_a_word_edge_matches_gauss_jordan(edge, k):
    # row 0 pivots at column 3; from row 1 down the rest of the words
    # before ``edge`` are zero, so the jump from column 4 lands on the word
    # edge, where the next pivots are (k None: no limit; 0: the limit is the
    # edge itself, so no pivot beyond it; 1: one column past the edge)
    rng = np.random.default_rng(edge)
    bits = (rng.random((30, 200)) < 0.5).astype(np.uint8)
    bits[0, :4] = [0, 0, 0, 1]
    bits[1:, :edge] = 0
    bits[1:, edge] = 1
    limit = 200 if k is None else edge + k
    pivots = _check_elimination(pack_bits(bits), limit).tolist()
    assert pivots[:2] == ([3] if k == 0 else [3, edge])
