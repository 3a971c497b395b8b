"""Exact dense linear algebra over GF(2).

Values are immutable after construction: every operation returns fresh
objects, so matrices, vectors and subspaces can be shared freely across
threads (a subspace may derive and keep a side it was not made with, the
same bits whichever thread does).  A vector is one Python int, bit j at
bit j.  Matrix rows are packed 64 bits per uint64 word (see
``_kernels``); elimination costs O(rows * cols^2 / 64).  A vector meets a
matrix through its ``words``.

Elimination stops at row echelon form where only pivots, the rank or the
rows below the rank are read (``rank``, ``pivot_columns``,
``echelon_augmented``, ``complement``), and
back-substitutes to RREF only where a reduced form is read
(``rref_augmented``, ``row_basis``, ``null_space``, ``invert``,
``row_basis_transforms``, ``row_basis_and_transforms``).

A subspace has two canonical sides, its basis and its check (the basis of
its orthogonal complement), each a reduced-row-echelon matrix with no zero
rows, which makes subspace equality a bit-exact comparison.  Sums and
intersections go through whichever sides are held and smaller
(:class:`Subspace`).  The zero-dimensional subspace is a 0 x n basis and
is accepted everywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._kernels import (
    U64_1,
    bits_matmul,
    echelon_in_place,
    matmul_packed,
    matvec_packed,
    nwords,
    pack_bits,
    rref_in_place,
    sort_rows,
    unpack_bits,
)
from .errors import SingularMatrixError


def _mask_tail(data: np.ndarray, cols: int) -> None:
    # keep the bits of each row at or beyond `cols` zero
    if not data.size or not cols & 63:
        return
    m = np.uint64((1 << (cols & 63)) - 1)
    if (data[:, -1] & ~m).any():
        data[:, -1] &= m


class BitVector:
    """A length-n vector over GF(2): bit j of the vector is bit j of the
    Python int ``value``, which has no bit at or beyond n."""

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0):
        self.n = n
        self.value = value & ((1 << n) - 1)

    @classmethod
    def zeros(cls, n: int) -> BitVector:
        return cls(n)

    @classmethod
    def from_bits(cls, bits) -> BitVector:
        if isinstance(bits, np.ndarray):
            if bits.ndim != 1:
                raise ValueError("expected a 1-D 0/1 array")
            arr = (bits & 1).astype(np.uint8, copy=False)
        else:
            arr = np.fromiter((int(b) & 1 for b in bits), dtype=np.uint8)
        packed = np.packbits(arr, bitorder="little").tobytes()
        return cls(len(arr), int.from_bytes(packed, "little"))

    @classmethod
    def from_words(cls, n: int, words: np.ndarray) -> BitVector:
        """The vector of ``n`` bits packed little-endian into uint64 words."""
        return cls(n, int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"))

    @classmethod
    def unit(cls, n: int, p: int) -> BitVector:
        if not 0 <= p < n:
            raise IndexError(f"unit position {p} out of range for length {n}")
        return cls(n, 1 << p)

    @property
    def words(self) -> np.ndarray:
        """The bits packed into nwords(n) uint64 words, as ``BitMatrix`` rows are."""
        return np.frombuffer(self.tobytes(), dtype="<u8")

    def bit(self, p: int) -> int:
        return (self.value >> p) & 1

    def weight(self) -> int:
        return self.value.bit_count()

    def is_zero(self) -> bool:
        return not self.value

    def to_array(self) -> np.ndarray:
        packed = np.frombuffer(self.tobytes(), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little")

    def to01(self) -> str:
        # the leading 1 at bit n keeps the zeros above the highest set bit
        return bin(self.value | 1 << self.n)[:2:-1]

    def tobytes(self) -> bytes:
        return self.value.to_bytes(8 * nwords(self.n), "little")

    def __add__(self, other: BitVector) -> BitVector:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.value ^ other.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitVector) and self.n == other.n and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


class BitMatrix:
    """A rows x cols matrix over GF(2) with word-packed rows.

    ``BitMatrix(rows, cols, data)`` adopts ``data`` when it is already a
    C-contiguous uint64 array of shape (rows, nwords(cols)): it clears the
    bits past ``cols`` in place and marks the array read-only, with no
    copy, so the caller hands the array over and must not write to it
    after.  Any other array is copied into one such array first.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: np.ndarray):
        self.rows = rows
        self.cols = cols
        d = np.ascontiguousarray(data, dtype=np.uint64)
        if d.shape != (rows, nwords(cols)):
            raise ValueError(f"bad packed shape {d.shape} for {rows}x{cols}")
        _mask_tail(d, cols)
        d.flags.writeable = False
        self._data = d

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, np.zeros((rows, nwords(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        data = np.zeros((n, 8 * nwords(n)), dtype=np.uint8)
        diag = np.arange(n)
        data[diag, diag >> 3] = 1 << (diag & 7)
        return cls(n, n, data.view(np.uint64))

    @classmethod
    def from_bits(cls, bits) -> BitMatrix:
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D 0/1 array")
        return cls(arr.shape[0], arr.shape[1], pack_bits(arr))

    @property
    def data(self) -> np.ndarray:
        return self._data

    def row(self, i: int) -> BitVector:
        return BitVector.from_words(self.cols, self._data[i])

    def column(self, j: int) -> BitVector:
        return BitVector.from_bits((self._data[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def take_rows(self, start: int, stop: int) -> BitMatrix:
        return BitMatrix(stop - start, self.cols, self._data[start:stop].copy())

    def take_cols(self, start: int, stop: int) -> BitMatrix:
        bits = self.to_array()[:, start:stop]
        return BitMatrix.from_bits(bits)

    def transpose(self) -> BitMatrix:
        return BitMatrix.from_bits(self.to_array().T)

    def to_array(self) -> np.ndarray:
        return unpack_bits(self._data, self.cols)

    def is_zero(self) -> bool:
        return not self._data.any()

    def __add__(self, other: BitMatrix) -> BitMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return BitMatrix(self.rows, self.cols, self._data ^ other._data)

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        if self.cols != other.rows:
            raise ValueError(f"inner dims {self.cols} vs {other.rows}")
        data = matmul_packed(self._data, self.cols, other._data, other.cols)
        return BitMatrix(self.rows, other.cols, data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data.tobytes() == other._data.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data.tobytes()))

    def __repr__(self) -> str:
        body = ",".join(self.row(i).to01() for i in range(min(self.rows, 8)))
        tail = ",..." if self.rows > 8 else ""
        return f"BitMatrix({self.rows}x{self.cols}:[{body}{tail}])"


def vstack(mats: Sequence[BitMatrix]) -> BitMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column counts differ")
    data = np.concatenate([m.data for m in mats], axis=0)
    return BitMatrix(sum(m.rows for m in mats), cols, data)


def hstack(mats: Sequence[BitMatrix]) -> BitMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("nothing to stack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row counts differ")
    data, cols = mats[0].data, mats[0].cols
    for m in mats[1:]:
        data, cols = _concat_words(data, cols, m.data, m.cols), cols + m.cols
    return BitMatrix(rows, cols, data)


def _concat_words(a: np.ndarray, a_cols: int, b: np.ndarray, b_cols: int) -> np.ndarray:
    """Fresh packed rows of [a | b]: b's bits shifted up by a_cols, the
    bits that cross a word boundary carried into the next word."""
    off, sh = divmod(a_cols, 64)
    out = np.zeros((a.shape[0], nwords(a_cols + b_cols)), dtype=np.uint64)
    out[:, : a.shape[1]] = a
    bw = b.shape[1]
    if not sh:
        out[:, off : off + bw] = b
    else:
        out[:, off : off + bw] |= b << np.uint64(sh)
        k = min(bw, out.shape[1] - off - 1)
        out[:, off + 1 : off + 1 + k] |= b[:, :k] >> np.uint64(64 - sh)
    return out


def mat_vec(M: BitMatrix, v: BitVector) -> BitVector:
    if M.cols != v.n:
        raise ValueError(f"dims {M.rows}x{M.cols} vs length {v.n}")
    return BitVector.from_words(M.rows, matvec_packed(M.data, v.words))


def concat(vectors: Sequence[BitVector]) -> BitVector:
    val = off = 0
    for v in vectors:
        val |= v.value << off
        off += v.n
    return BitVector(off, val)


def split(v: BitVector, sizes: Sequence[int]) -> list[BitVector]:
    if sum(sizes) != v.n:
        raise ValueError("sizes do not sum to vector length")
    val = v.value
    out = []
    for s in sizes:
        out.append(BitVector(s, val))
        val >>= s
    return out


# ---------------------------------------------------------------------------
# elimination-based operations
# ---------------------------------------------------------------------------


def pivot_columns(M: BitMatrix) -> list[int]:
    """The pivot columns of the RREF of M, read off its echelon form."""
    return echelon_in_place(M.data.copy(), M.cols).tolist()


def rank(M: BitMatrix) -> int:
    return len(pivot_columns(M))


def echelon_augmented(left: BitMatrix, right: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Row echelon form of [left | right] with pivots restricted to the left
    block; its rows from the rank down are those of rref_augmented."""
    if left.rows != right.rows:
        raise ValueError("row counts differ")
    data = _concat_words(left.data, left.cols, right.data, right.cols)
    pivots = echelon_in_place(data, left.cols)
    return BitMatrix(left.rows, left.cols + right.cols, data), pivots.tolist()


def rref_augmented(left: BitMatrix, right: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """RREF of [left | right] with pivots restricted to the left block."""
    if left.rows != right.rows:
        raise ValueError("row counts differ")
    data = _concat_words(left.data, left.cols, right.data, right.cols)
    pivots = rref_in_place(data, left.cols)
    return BitMatrix(left.rows, left.cols + right.cols, data), pivots.tolist()


def invert(M: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises SingularMatrixError when rank < n."""
    if M.rows != M.cols:
        raise ValueError(f"not square: {M.rows}x{M.cols}")
    n = M.rows
    red, pivots = rref_augmented(M, BitMatrix.identity(n))
    if len(pivots) != n:
        raise SingularMatrixError(f"matrix of rank {len(pivots)} < {n}")
    return red.take_cols(n, 2 * n)


class Subspace:
    """A subspace N of GF(2)^n, held by either of its two canonical sides.

    Each side is a matrix in reduced row echelon form with no zero rows:
    the basis, whose rows span N, and the check, whose rows span N's
    orthogonal complement, so that N = null(check).  Either side fixes N,
    which makes equality bit-exact: two Subspace values compare equal iff
    they are the same subspace.

    A value is made from any of four kinds of rows, each ``n`` wide: rows
    that ``span`` N, its canonical ``basis``, its canonical ``check``, or
    rows whose kernel N is (``kernel_of``; ``null_space`` keeps its input
    beside the side it computes).  A side that is not held is derived on
    first read, by one elimination of the fewest rows at hand, and kept.
    So a subspace of dimension near n is met through its few check rows, a
    small one is summed through its few basis rows, and the large side of
    either is built only if it is read.  ``dim`` may be given when it is
    known and no canonical side is.
    """

    __slots__ = ("n", "_basis", "_check", "_span", "_kernel_of", "_dim")

    def __init__(
        self,
        n: int,
        span: BitMatrix | None = None,
        *,
        basis: BitMatrix | None = None,
        check: BitMatrix | None = None,
        kernel_of: BitMatrix | None = None,
        dim: int | None = None,
    ):
        sides = {"span": span, "basis": basis, "check": check, "kernel_of": kernel_of}
        if all(M is None for M in sides.values()):
            raise ValueError("a subspace needs rows to hold it by")
        for name, M in sides.items():
            if M is not None and M.cols != n:
                raise ValueError(f"{name} width {M.cols} disagrees with ambient dimension {n}")
        self.n = n
        self._basis, self._check, self._span, self._kernel_of = basis, check, span, kernel_of
        if basis is not None or check is not None:
            dim = basis.rows if basis is not None else n - check.rows
        self._dim = dim

    @classmethod
    def zero(cls, n: int) -> Subspace:
        return cls(n, basis=BitMatrix.zeros(0, n), check=BitMatrix.identity(n))

    @classmethod
    def full(cls, n: int) -> Subspace:
        return cls(n, basis=BitMatrix.identity(n), check=BitMatrix.zeros(0, n))

    @property
    def dim(self) -> int:
        if self._dim is None:
            # derive the side that is likely the smaller: few spanning rows
            # make a small basis and many a small check, and the other way
            # round for rows whose kernel N is
            rows = self._span if self._span is not None else self._kernel_of
            few = 2 * rows.rows <= self.n
            _ = self.basis if few == (rows is self._span) else self.check
        return self._dim

    @property
    def basis(self) -> BitMatrix:
        """The canonical basis: RREF rows spanning N."""
        if self._basis is None:
            self._basis = self._derive(spanning=True)
            self._dim = self._basis.rows
        return self._basis

    @property
    def check(self) -> BitMatrix:
        """The canonical check, ``matrix_with_null_space(N)``: RREF rows
        spanning N's orthogonal complement, so that null(check) = N."""
        if self._check is None:
            self._check = self._derive(spanning=False)
            self._dim = self.n - self._check.rows
        return self._check

    def _derive(self, spanning: bool) -> BitMatrix:
        """The canonical side asked for, from the fewest rows held: rows
        that span N give the basis by row reduction and the check as their
        kernel, and rows whose kernel N is the other way round."""
        held = [(M, True) for M in (self._basis, self._span) if M is not None]
        held += [(M, False) for M in (self._check, self._kernel_of) if M is not None]
        M, spans = min(held, key=lambda h: h[0].rows)
        if spans == spanning:
            return row_basis(M)
        return BitMatrix.from_bits(_null_basis(M, M.cols))

    def _spanning(self) -> BitMatrix | None:
        """Rows held that span N, the basis if held; None if there are none."""
        return self._basis if self._basis is not None else self._span

    def _annihilating(self) -> BitMatrix | None:
        """Rows held whose kernel is N, the check if held; None if there
        are none."""
        return self._check if self._check is not None else self._kernel_of

    def contains_subspace(self, other: Subspace) -> bool:
        """Whether other lies in N: N's annihilating rows times other's
        spanning rows is zero, or, when other is held by its check alone,
        N's annihilating rows lie in other's orthogonal complement."""
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        H, rows = self._annihilating(), other._spanning()
        if H is None:
            inside = _in_row_space(self.basis, (other.basis if rows is None else rows).data)
            return bool(inside.all())
        if rows is None:
            return bool(_in_row_space(other.check, H.data).all())
        return not bits_matmul(H.to_array(), rows.to_array().T).any()

    def _key(self) -> BitMatrix:
        """The smaller canonical side, which equality and hashing read."""
        return self.basis if 2 * self.dim <= self.n else self.check

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace) or self.n != other.n or self.dim != other.dim:
            return False
        if self._basis is not None and other._basis is not None:
            return self._basis == other._basis
        if self._check is not None and other._check is not None:
            return self._check == other._check
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.n, self._key()))

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, dim={self.dim})"


def distinct_nonzero_columns(M: BitMatrix) -> bool:
    """Whether the columns of M are nonzero and pairwise distinct: one sort
    of the packed columns."""
    bits = M.to_array()
    if not bits.any(axis=0).all():
        return False
    return M.cols < 2 or bool(sort_rows(np.packbits(bits.T, axis=1))[2].all())


def row_basis(M: BitMatrix) -> BitMatrix:
    """Canonical full-row-rank matrix with the same row space: the nonzero
    rows of the RREF of M."""
    data = M.data.copy()
    pivots = rref_in_place(data, M.cols)
    return BitMatrix(len(pivots), M.cols, data[: len(pivots)].copy())


def row_basis_transforms(
    A: BitMatrix, B: BitMatrix, names: tuple[str, str] = ("A", "B")
) -> tuple[BitMatrix, BitMatrix]:
    """Given a row basis matrix B of A, return (C, D) with A = C B and B = D A.

    C is unique; D is one valid choice (free coefficients set to zero).
    For B of full row rank r, D A = D C B = B iff D C = I_r, so D solves
    that system of r rows, not B = D A of n; bit for bit the same D, since
    A^T = B^T C^T with B^T injective gives C^T and A^T the same pivots.
    A B that is not full row rank needs no rank check: C is zero in the
    column of each row of B that depends on earlier ones, so D C = I_r
    has no solution then either.  A B in RREF needs no elimination for C:
    each pivot column of B is a unit column, so C is A's columns at B's
    pivots, and A = B gives C = D = I.
    Raises ValueError when B is not full row rank or the row spaces differ,
    calling A and B by ``names``.
    """
    if A.cols != B.cols:
        raise ValueError("width mismatch")
    a, b = names
    pivots = _rref_pivots(B)
    if pivots is None:
        C = _express_rows(A, B)
        if C is None:
            raise ValueError(f"row({a}) is not contained in row({b})")
    else:
        C = BitMatrix.from_bits(A.to_array()[:, pivots])
        if C @ B != A:
            raise ValueError(f"row({a}) is not contained in row({b})")
        if A == B:
            return C, C
    D = _express_rows(BitMatrix.identity(B.rows), C)
    if D is None:
        raise ValueError(f"{b} is not full row rank or row({b}) is not contained in row({a})")
    return C, D


def row_basis_and_transforms(A: BitMatrix) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """(row_basis(A), C, D) with (C, D) = row_basis_transforms(A,
    row_basis(A)), from one elimination of [A | I] when A has full row
    rank: its reduced form is then [row_basis(A) | D], as D is the one
    solution of D C = I.  For A with dependent rows D is solved for
    separately."""
    red, pivots = rref_augmented(A, BitMatrix.identity(A.rows))
    r = len(pivots)
    bits = red.to_array()
    B = BitMatrix.from_bits(bits[:r, : A.cols])
    C = BitMatrix.from_bits(A.to_array()[:, pivots])
    if r == A.rows:
        return B, C, BitMatrix.from_bits(bits[:, A.cols :])
    return B, C, _express_rows(BitMatrix.identity(r), C)


def _express_rows(A: BitMatrix, B: BitMatrix) -> BitMatrix | None:
    """Coefficient matrix X with A = X B, or None if some row of A is
    outside row(B).  Solves B^T x = a^T for all rows of A at once."""
    red, pivots = rref_augmented(B.transpose(), A.transpose())
    tail = red.to_array()[:, B.rows :]
    rk = len(pivots)
    if tail[rk:].any():
        return None
    xt = np.zeros((B.rows, A.rows), dtype=np.uint8)
    xt[pivots] = tail[:rk]
    return BitMatrix.from_bits(xt.T)


def null_space(M: BitMatrix) -> Subspace:
    """Kernel {x : M x = 0} as a subspace of GF(2)^cols, held by M (any
    matrix with that kernel meets it, see ``subspace_intersect``) and by
    the smaller of its canonical sides, from one elimination of M: the
    check, row_basis(M), when M has at most cols / 2 rows, else the
    basis."""
    N = Subspace(M.cols, kernel_of=M)
    N.dim  # derives the smaller side
    return N


def null_vector(M: BitMatrix) -> BitVector | None:
    """The first basis vector of :func:`null_space`, built alone; None when
    M x = 0 only for x = 0."""
    bits = _null_basis(M, 1)
    return BitVector.from_bits(bits[0]) if bits.shape[0] else None


def _null_basis(M: BitMatrix, count: int) -> np.ndarray:
    """The first ``count`` vectors of the canonical basis of M's kernel, as
    a 0/1 array with one vector per row.

    M is eliminated once, with its columns reversed, so each pivot column
    p_i is the highest set column of its row i.  The basis vector of a free
    column f has x_f = 1 and, at each p_i, the bit of column f in row i,
    which can be set only when p_i > f.  So its lowest set bit is f, where
    every other basis vector is zero: in order of f, these vectors are
    already the canonical RREF basis.
    """
    n = M.cols
    data = pack_bits(M.to_array()[:, ::-1])
    pivots = rref_in_place(data, n)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    # from the highest reversed free column down, once the columns are
    # reversed back, the vectors come in canonical order
    free = np.flatnonzero(is_free)[::-1][:count]
    bits = np.zeros((free.size, n), dtype=np.uint8)
    bits[np.arange(free.size), free] = 1
    bits[:, pivots] = unpack_bits(data[: len(pivots)], n)[:, free].T
    return bits[:, ::-1]


def matrix_with_null_space(N: Subspace) -> BitMatrix:
    """Deterministic surjective (n - dim N) x n matrix H with null(H) = N:
    N's check, the canonical basis of N's orthogonal complement (the
    kernel of N's basis).  For N = {0} this is the identity."""
    return N.check


def _leading_bits(data: np.ndarray) -> np.ndarray:
    """The lowest set bit of each packed row, none of which is zero."""
    if not data.shape[0]:
        return np.zeros(0, dtype=np.int64)
    first = (data != 0).argmax(axis=1)
    lead = data[np.arange(data.shape[0]), first]
    return (first << 6) + np.bitwise_count((lead & (~lead + U64_1)) - U64_1)


def _rref_pivots(M: BitMatrix) -> np.ndarray | None:
    """The pivot columns of M when M is in RREF with no zero rows, else
    None: each row leads at a later column than the row above, and each
    leading column is a unit column."""
    if not M.data.any(axis=1).all():
        return None
    pivots = _leading_bits(M.data)
    if (np.diff(pivots) <= 0).any():
        return None
    if not (M.to_array()[:, pivots] == np.eye(M.rows, dtype=np.uint8)).all():
        return None
    return pivots


def _in_row_space(basis: BitMatrix, rows: np.ndarray) -> np.ndarray:
    """For each packed row v of ``rows``, whether v lies in the row space of
    the RREF ``basis`` (no zero rows).  Each pivot column of the basis is a
    unit column, so v is in the row space iff v equals the sum of the basis
    rows whose pivot bit v has set."""
    if not basis.rows:
        return ~rows.any(axis=1)
    pivots = _leading_bits(basis.data)
    v = unpack_bits(rows, basis.cols)
    return (bits_matmul(v[:, pivots], basis.to_array()) == v).all(axis=1)


def _orthogonal_part(H: BitMatrix, S: BitMatrix, canonical: bool) -> Subspace:
    """null(H) + row(S), held by the rows of row(H) orthogonal to S: c H for
    each c in the kernel of S H^T, one elimination of that S.rows x H.rows
    product.  With H a canonical check (``canonical``) they are the sum's
    canonical check: c is in RREF, and so is c H, whose row j leads, at a
    unit column, at the pivot of H where row j of c leads."""
    coeff = _null_basis(S @ H.transpose(), H.rows)
    rows = BitMatrix.from_bits(coeff) @ H if coeff.shape[0] else BitMatrix.zeros(0, H.cols)
    return Subspace(H.cols, check=rows) if canonical else Subspace(H.cols, kernel_of=rows)


def _perp(N: Subspace) -> Subspace:
    """N's orthogonal complement, holding N's rows in the other roles: N's
    check is its basis, and rows whose kernel is N span it."""
    return Subspace(
        N.n,
        span=N._kernel_of,
        basis=N._check,
        check=N._basis,
        kernel_of=N._span,
        dim=None if N._dim is None else N.n - N._dim,
    )


def subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    """A + B through the rows held, by the fewest rows to eliminate now and
    when a canonical side of the sum is read: the stacked spanning rows of
    A and B, or one's annihilating rows restricted to the other's spanning
    rows (:func:`_orthogonal_part`), which annihilate the sum.  When
    neither is held, A and B held by annihilating rows alone, the sum is
    spanned by their stacked bases.  The sum's canonical sides are derived
    only when read."""
    if A.n != B.n:
        raise ValueError("ambient dimension mismatch")
    n = A.n
    if A._dim == 0 or B._dim == n:
        return B
    if B._dim == 0 or A._dim == n:
        return A
    SA, SB = A._spanning(), B._spanning()
    if SA is None and SB is None:
        return Subspace(n, vstack([A.basis, B.basis]))
    routes = []  # (rows, make)
    if SA is not None and SB is not None:
        routes.append((SA.rows + SB.rows, lambda: Subspace(n, vstack([SA, SB]))))
    for X, S in ((A, SB), (B, SA)):
        H = X._annihilating()
        if H is not None and S is not None:
            canonical = H is X._check
            rows = max(H.rows, S.rows) + (0 if canonical else H.rows)
            routes.append((rows, lambda H=H, S=S, c=canonical: _orthogonal_part(H, S, c)))
    return min(routes, key=lambda r: r[0])[1]()


def subspace_intersect(A: Subspace, B: Subspace) -> Subspace:
    """A ∩ B, the orthogonal complement of A^⊥ + B^⊥: the sum's routes with
    the roles of the rows swapped, so the kernel of the two stacked
    annihilators or one's spanning rows restricted to the other's
    annihilator, whichever has the fewest rows to eliminate, and the
    kernel of the two stacked checks when both are held by spanning rows
    alone."""
    return _perp(subspace_sum(_perp(A), _perp(B)))


def complement(A: Subspace, within: Subspace) -> Subspace:
    """Deterministic B with A + B = within and A intersect B = {0}.

    B is spanned by the rows of within's basis that extend A's basis
    greedily, in order (for the full space, by standard basis vectors).
    In the full space, for A held by its check (or by no spanning rows),
    these are the unit vectors at the pivot columns of the check: e_i
    extends A and the earlier unit vectors iff column i of the check is no
    sum of earlier columns, which in RREF means a pivot column.  Otherwise
    the greedy rows are read off the pivots of one echelon form: row i of
    within's basis is kept exactly when column k + i is a pivot of [S;
    within.basis]^T, for k rows S spanning A (canonical or not), and A
    lies in within exactly when that matrix has rank within.dim.  Raises
    ValueError when A is not contained in within.
    """
    if A.n != within.n:
        raise ValueError("ambient dimension mismatch")
    n = A.n
    S = A._spanning()
    if within.dim == n and (A._check is not None or S is None):
        kept = _leading_bits(A.check.data)
        bits = np.zeros((kept.size, n), dtype=np.uint8)
        bits[np.arange(kept.size), kept] = 1
        return Subspace(n, basis=BitMatrix.from_bits(bits))
    if S is None:
        S = A.basis
    cols = pack_bits(np.concatenate([S.to_array(), within.basis.to_array()]).T)
    pivots = echelon_in_place(cols, S.rows + within.dim)
    if len(pivots) != within.dim:
        raise ValueError("A is not a subspace of `within`")
    kept = pivots[pivots >= S.rows] - S.rows
    if not kept.size:
        return Subspace.zero(n)
    # rows of an RREF basis, in order, are themselves an RREF basis
    return Subspace(n, basis=BitMatrix(kept.size, n, within.basis.data[kept]))


# ---------------------------------------------------------------------------
# text format: first line "rows cols", then rows lines over {0,1}; files
# are read by ``bundleio``
# ---------------------------------------------------------------------------


_ASCII_0 = ord("0")


def format_matrix(M: BitMatrix) -> str:
    buf = np.empty((M.rows, M.cols + 1), dtype=np.uint8)
    np.add(M.to_array(), _ASCII_0, out=buf[:, : M.cols])
    buf[:, M.cols] = ord("\n")
    return f"{M.rows} {M.cols}\n" + str(buf, "ascii")


# ---------------------------------------------------------------------------
# randomized constructions (seeded; used by tests and sampled verification)
# ---------------------------------------------------------------------------


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> BitMatrix:
    return BitMatrix.from_bits(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def random_invertible(n: int, rng: np.random.Generator) -> BitMatrix:
    while True:
        M = random_matrix(n, n, rng)
        if rank(M) == n:
            return M


def random_subspace(n: int, dim: int, rng: np.random.Generator) -> Subspace:
    if dim > n:
        raise ValueError("dim exceeds ambient dimension")
    while True:
        M = random_matrix(dim, n, rng)
        if rank(M) == dim:
            return Subspace(n, M, dim=dim)


def random_subspace_of(space: Subspace, dim: int, rng: np.random.Generator) -> Subspace:
    """Random dim-dimensional subspace of `space`."""
    if dim > space.dim:
        raise ValueError("dim exceeds dim of the containing space")
    if dim == 0:
        return Subspace.zero(space.n)
    while True:
        coeff = random_matrix(dim, space.dim, rng)
        if rank(coeff) == dim:
            return Subspace(space.n, coeff @ space.basis, dim=dim)
