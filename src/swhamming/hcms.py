"""Hamming-code construction for s > 2 sources.

A sum-zero partition P = [Q_1 ... Q_s] of an (M-n)-bit Hamming matrix,
together with a completion T making R = [Q_1; ...; Q_{s-1}; T] invertible,
yields coding matrices [G_i; Q_i] (G_i any row partition of T) that compress
the s-terminal Hamming sources perfectly.  A bundle is the construction
witness.  It keeps only its code and, in the relaxed form, the chosen E,
Y and D; the code's rows fix every other section, which it derives (see
:class:`Bundle`).  Its code is judged and decoded by the one decoder of
every code (:class:`swhamming.codec.CodePlan`), read off those sections.

The explicit partition for (n, M) = (21, 27) is embedded as data and
re-verified on every construction; all larger block lengths are built by
lifting a verified partition, doubling the Hamming matrix height by two
rows per step.

Where a partition is built or checked (the Hamming matrix, the lift, the
random search, :func:`validate_partition`), each column is handled as its
int64 value with row 0 as the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._kernels import bits_matmul, nwords, pack_bits, unpack_bits
from .errors import (
    BadArgumentError,
    BudgetExceededError,
    HeightNegativeError,
    NotHammingPartitionError,
    RNotInvertibleError,
    SingularMatrixError,
    SyndromeNotDecodableError,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    _leading_bits,
    hstack,
    invert,
    pivot_columns,
    random_invertible,
    rank,
    row_basis,
    row_basis_transforms,
    rref_augmented,
    vstack,
)
from .codec import SwCode, SyndromeTuple, decoder, make_code
from .sources import SourceTuple, perfect_params_for_a

MAX_A = 7


def hamming_matrix(m: int) -> BitMatrix:
    """The m x (2^m - 1) matrix whose columns are all nonzero m-bit vectors,
    in ascending integer value with row 0 as the most significant bit."""
    if m < 1:
        raise ValueError("m must be positive")
    if m > 24:
        raise BudgetExceededError(f"2^{m} - 1 columns is beyond the supported size")
    return _from_values(np.arange(1, 1 << m, dtype=np.int64), m)


def _column_values(M: BitMatrix) -> np.ndarray:
    """Integer value of every column, row 0 as the most significant bit, as
    int64: M has at most 62 rows."""
    weights = np.int64(1) << np.arange(M.rows - 1, -1, -1, dtype=np.int64)
    return weights @ M.to_array()


def _from_values(values: np.ndarray | Sequence[int], rows: int) -> BitMatrix:
    """The rows x len(values) matrix whose columns have the given values,
    the inverse of :func:`_column_values`."""
    shifts = np.arange(rows - 1, -1, -1, dtype=np.int64)[:, None]
    return BitMatrix.from_bits((np.asarray(values, dtype=np.int64) >> shifts) & 1)


def validate_partition(Q: Sequence[BitMatrix]) -> None:
    """Raise NotHammingPartitionError unless [Q_1 ... Q_s] has exactly the
    2^(M-n)-1 distinct nonzero columns (any order) and the blocks sum to zero."""
    if len(Q) < 2:
        raise NotHammingPartitionError("a partition needs at least two blocks")
    mn = Q[0].rows
    n = Q[0].cols
    if any(B.rows != mn or B.cols != n for B in Q):
        raise NotHammingPartitionError("blocks have unequal shapes")
    if len(Q) * n != (1 << mn) - 1:
        raise NotHammingPartitionError(
            f"{len(Q)} blocks of {n} columns cannot partition a {mn}-bit Hamming matrix"
        )
    vals = np.stack([_column_values(B) for B in Q])
    if np.bitwise_xor.reduce(vals, axis=0).any():
        raise NotHammingPartitionError("blocks do not sum to zero")
    if not np.array_equal(np.sort(vals, axis=None), np.arange(1, 1 << mn)):
        raise NotHammingPartitionError("columns are not the distinct nonzero vectors")


@dataclass(frozen=True)
class Bundle:
    """Construction witness: a code whose coding matrices are H_i = [G_i;
    C_i], and what a bundle file chooses beside it.

    Chosen, the fields: the code and, in the relaxed form, E_i with Q_i =
    E_i C_i, D_i with C_i = D_i Q_i, and Y, a row basis of [Q_1; ...;
    Q_(s-1)].  The direct form leaves E, Y and D None: there C_i = Q_i,
    E_i = D_i = I and Y is the stack itself.

    Derived, every other section, each made once on first read: d_i rows
    of C_i (E_i.cols, M - n in the direct form), G_i and C_i the top m_i -
    d_i and bottom d_i rows of H_i (C None in the direct form), T = [G_1;
    ...; G_s], Q_i = E_i C_i, P = [Q_1 ... Q_s] (Q_1 for s = 2, whose
    blocks are equal), R = [Y; T], R^-1 and W.  The shape s, n and M is
    the code's.
    """

    code: SwCode
    E: tuple[BitMatrix, ...] | None = None
    Y: BitMatrix | None = None
    D: tuple[BitMatrix, ...] | None = None

    @property
    def d(self) -> tuple[int, ...]:
        """Rows of the c-part of each coding matrix."""
        if self.E is None:
            return (self.M - self.n,) * self.s
        return tuple(Ei.cols for Ei in self.E)

    @property
    def g_split(self) -> tuple[int, ...]:
        return tuple(mi - di for mi, di in zip(self.code.m, self.d))

    @cached_property
    def G(self) -> tuple[BitMatrix, ...]:
        return tuple(H.take_rows(0, g) for H, g in zip(self.code.matrices, self.g_split))

    @cached_property
    def _bottoms(self) -> tuple[BitMatrix, ...]:
        """The bottom d_i rows of each H_i."""
        return tuple(H.take_rows(g, H.rows) for H, g in zip(self.code.matrices, self.g_split))

    @property
    def C(self) -> tuple[BitMatrix, ...] | None:
        return None if self.E is None else self._bottoms

    @cached_property
    def Q(self) -> tuple[BitMatrix, ...]:
        C = self._bottoms
        return C if self.E is None else tuple(Ei @ Ci for Ei, Ci in zip(self.E, C))

    @cached_property
    def T(self) -> BitMatrix:
        return vstack(self.G)

    @cached_property
    def P(self) -> BitMatrix:
        return hstack(self.Q) if self.s > 2 else self.Q[0]

    @cached_property
    def R(self) -> BitMatrix:
        Y = vstack(self.Q[: self.s - 1]) if self.Y is None else self.Y
        return vstack([Y, self.T])

    @cached_property
    def R_inv(self) -> BitMatrix:
        """R^-1; raises RNotInvertible when R is singular.

        A T with a unit column per row (T in RREF, such as the unit rows
        of every ``gen`` and ``reduce`` bundle) makes R^-1 cheap: with N
        those columns, in row order, and F the other r = Y.rows, R x = z
        reads x_N = z_T + T_F x_F and S x_F = z_Y + Y_N z_T for S = Y_N
        T_F + Y_F.  So the rows of R^-1 at F are V = S^-1 [I | Y_N], one
        elimination of the r x (n + r) matrix [S | I | Y_N], and those at
        N are T_F V + [0 | I].  Any other T inverts R itself, n x 2n."""
        try:
            return _unit_completion_inverse(self.R, self.T.rows) or invert(self.R)
        except SingularMatrixError as exc:
            held = "[Q_1; ...; Q_(s-1)]" if self.Y is None else "Y"
            raise RNotInvertibleError(
                f"{held} does not complete to an invertible matrix with the code's G_i rows"
            ) from exc

    @cached_property
    def W(self) -> BitMatrix:
        """The relaxed form's W with Y = W [C_1; ...; C_(s-1)]: D_Y diag(E_1,
        ..., E_(s-1)) for the D_Y with Y = D_Y [Q_1; ...; Q_(s-1)].  Raises
        ValueError when Y is not a row basis of that stack."""
        mn, s = self.Q[0].rows, self.s
        stack = vstack(self.Q[: s - 1])
        D_Y = row_basis_transforms(stack, self.Y, names=("[Q_1; ...; Q_(s-1)]", "Y"))[1]
        return hstack([D_Y.take_cols(i * mn, (i + 1) * mn) @ self.E[i] for i in range(s - 1)])

    @property
    def s(self) -> int:
        return self.code.s

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def M(self) -> int:
        return sum(self.code.m)

    def locate_column(self, sigma: BitVector) -> int:
        """Index of the column of [Q_1 ... Q_s] equal to sigma; for s = 2,
        whose two blocks are equal, the index in the second block."""
        columns = hstack(self.Q)
        if sigma.n == columns.rows:
            hits = np.flatnonzero((columns.to_array().T == sigma.to_array()).all(axis=1))
            if hits.size:
                return int(hits[-1])
        raise SyndromeNotDecodableError(
            "syndrome component sum is not a column of the partition"
        )


HcmsBundle = Bundle


def _unit_completion_inverse(R: BitMatrix, t: int) -> BitMatrix | None:
    """R^-1 when each of the last t rows of R has a unit column at its
    lowest set bit, as unit rows and an RREF T do (see
    :attr:`Bundle.R_inv`), else None; raises SingularMatrixError when R is
    singular.  Only Y and T's columns at F are unpacked; R^-1 is assembled
    packed."""
    r, n = R.rows - t, R.cols
    T = R.data[r:]
    if not T.any(axis=1).all():
        return None
    N = _leading_bits(T)
    at_N = np.zeros(n, dtype=bool)
    at_N[N] = True
    rows = np.arange(t)
    others = T.copy()
    others[rows, N >> 6] ^= np.uint64(1) << (N & 63).astype(np.uint64)
    if np.count_nonzero(at_N) != t or (others & pack_bits(at_N[None, :])).any():
        return None
    F = np.flatnonzero(~at_N)
    T_F = ((T[:, F >> 6] >> (F & 63).astype(np.uint64)) & np.uint64(1)).astype(np.uint8)
    Y = unpack_bits(R.data[:r], n)
    S = Y[:, F]
    if T_F.any():
        S = S ^ bits_matmul(Y[:, N], T_F)
    right = BitMatrix.from_bits(np.hstack([np.eye(r, dtype=np.uint8), Y[:, N]]))
    red, pivots = rref_augmented(BitMatrix.from_bits(S), right)
    if len(pivots) < r:
        raise SingularMatrixError(f"R on the kernel of T has rank {len(pivots)} < {r}")
    V = red.to_array()[:, r:]
    inv = np.zeros_like(R.data)
    inv[F] = pack_bits(V)
    if T_F.any():
        inv[N] = pack_bits(bits_matmul(T_F, V))
    cols = r + rows.astype(np.uint64)
    inv[N, cols >> np.uint64(6)] ^= np.uint64(1) << (cols & np.uint64(63))
    return BitMatrix(n, n, inv)


def standard_completion(Y: BitMatrix, pivots: Sequence[int] | None = None) -> BitMatrix:
    """Standard-basis rows at the non-pivot columns of Y, given Y's pivot
    columns (the leading bits of a Y in RREF) or finding them.

    When Y pivots on its first Y.rows columns this is exactly [0 | I];
    either way [Y; T] is invertible whenever any completion makes it so."""
    if pivots is None:
        pivots = pivot_columns(Y)
    if len(pivots) < Y.rows:
        raise RNotInvertibleError(
            "[Q_1; ...; Q_(s-1)] is row deficient; no completion can work"
        )
    free = np.setdiff1d(np.arange(Y.cols), pivots)
    data = np.zeros((free.size, nwords(Y.cols)), dtype=np.uint64)
    data[np.arange(free.size), free >> 6] = np.uint64(1) << (free & 63).astype(np.uint64)
    return BitMatrix(free.size, Y.cols, data)


def default_g_split(total: int, s: int) -> tuple[int, ...]:
    """Row split of T that is as equal as possible, earlier terminals larger."""
    base, extra = divmod(total, s)
    return tuple(base + 1 if i < extra else base for i in range(s))


def assemble(
    Q: Sequence[BitMatrix],
    C: Sequence[BitMatrix] | None,
    g_split: Sequence[int] | None,
    T: BitMatrix | None,
    *,
    pivots: Sequence[int] | None = None,
    Y: BitMatrix | None = None,
    E: Sequence[BitMatrix] | None = None,
    D: Sequence[BitMatrix] | None = None,
) -> Bundle:
    """The bundle of validated blocks Q_i, and the one builder of a bundle
    with chosen row bases C_i, completion T or row split (the entry points
    choose only a split): direct (Y the stack, coding matrices [G_i; Q_i])
    when C is None, else relaxed (Y the canonical row basis of the stack,
    coding matrices [G_i; C_i], Q_i = E_i C_i and C_i = D_i Q_i from
    ``row_basis_transforms``; a caller that has Y, or E and D, and has
    checked them passes them).  T defaults to the standard completion of
    Y, from Y's pivot columns when the caller has checked them; the G_i
    are its rows in g_split.  Only the code and the relaxed form's E, Y
    and D are kept: the bundle derives the other sections from them.  The
    code's plan is read off the bundle (:meth:`codec.CodePlan.from_bundle`).

    Raises HeightNegative when the direct stack has more than n rows,
    RNotInvertible when [Y; T] is singular, and BadArgument for a bad split.
    """
    Q = tuple(Q)
    s, n = len(Q), Q[0].cols
    stack = vstack(Q[: s - 1])
    if C is None:
        if stack.rows > n:
            raise HeightNegativeError(
                f"completion height n - (s-1)(M-n) = {n - stack.rows} is negative"
            )
        C, Y, chosen = Q, stack, {}
    else:
        if E is None or D is None:
            E, D = zip(*(row_basis_transforms(Qi, Ci) for Qi, Ci in zip(Q, C)))
        if Y is None:
            Y = row_basis(stack)
        chosen = dict(E=tuple(E), Y=Y, D=tuple(D))
    custom_T = T is not None
    if not custom_T:
        # needs no check: standard_completion raises unless Y has full row
        # rank, and such a Y with its unit-row completion is invertible
        T = standard_completion(Y, pivots)
    if T.rows != n - Y.rows or T.cols != n:
        raise ValueError(f"T must be {n - Y.rows}x{n}, got {T.rows}x{T.cols}")
    if g_split is None:
        g_split = default_g_split(T.rows, s)
    g_split = tuple(int(g) for g in g_split)
    if len(g_split) != s or any(g < 0 for g in g_split) or sum(g_split) != T.rows:
        raise BadArgumentError(f"row split {g_split} does not partition {T.rows} rows")
    offsets = np.cumsum((0, *g_split)).tolist()
    code = make_code(
        [vstack([T.take_rows(a, b), Ci]) for a, b, Ci in zip(offsets, offsets[1:], C)]
    )
    bundle = Bundle(code, **chosen)
    if custom_T:
        bundle.R_inv  # raises RNotInvertible when [Y; T] is singular
    code.attach(bundle)
    return bundle


def hcms_from_parts(Q: Sequence[BitMatrix], g_split: Sequence[int] | None = None) -> Bundle:
    """Validate a partition of s > 2 blocks and assemble the direct code.

    Raises NotHammingPartition when the partition conditions fail, and the
    errors of :func:`assemble`.
    """
    if len(Q) <= 2:
        raise ValueError("construction requires more than two terminals")
    validate_partition(Q)
    return assemble(Q, None, g_split, None)


# ---------------------------------------------------------------------------
# the embedded base partition for n = 21
# ---------------------------------------------------------------------------

_A3_Q1 = """\
100000100001110110000
010000110000100000111
001000011000011101011
000100001100010011110
000010000110101101111
000001000011001001101"""

_A3_Q2 = """\
000101101111010001111
100010110111101111000
010001111011100000101
101000111101011100111
010100111110001011011
001010011111110101110"""

_A3_Q3 = """\
100101001110100111111
110010000111001111111
011001100011111101110
101100110001001111001
010110111000100110100
001011011100111100011"""

_A3_K = """\
000101
100010
010001
101000
010100
001010"""


def _from_lines(text: str) -> BitMatrix:
    return BitMatrix.from_bits([[int(c) for c in row] for row in text.splitlines()])


def a3_partition() -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """The verified base partition for n = 21: sum-zero blocks of a 6-bit
    Hamming matrix with [Q_1; Q_2] pivoting on the first 12 columns.

    The data is embedded as text; every call re-runs the structural
    self-checks so a corrupted transcription fails fast.
    """
    Q1, Q2, Q3 = (_from_lines(t) for t in (_A3_Q1, _A3_Q2, _A3_Q3))
    K = _from_lines(_A3_K)
    validate_partition((Q1, Q2, Q3))
    pivots = pivot_columns(vstack([Q1, Q2]))
    if pivots != list(range(12)):
        raise AssertionError("embedded partition lost the pivot property")
    U = Q1.take_cols(0, 12)
    V = Q2.take_cols(0, 12)
    ZI = hstack([BitMatrix.zeros(6, 6), BitMatrix.identity(6)])
    if V != ZI + (K @ U):
        raise AssertionError("embedded partition fails V = [0|I] + K U")
    return Q1, Q2, Q3


# ---------------------------------------------------------------------------
# lifting a partition from 2k to 2(k+1) rows
# ---------------------------------------------------------------------------

# a tag t appended below a column of value v gives the column 4v + t
_TAG_U, _TAG_V, _TAG_W = 2, 1, 3
_TAGS = (_TAG_U, _TAG_V, _TAG_W, 0)
# tag combos pinned to the four head positions after the zero-tagged block
# (groups 0..3); the last two re-pair columns across blocks, legal because
# each block still uses every tag once per group and position sums stay
# zero, and chosen so the tag block of [A+; B+] is invertible
_HEAD_COMBOS = (
    (_TAG_V, _TAG_W, _TAG_U),
    (_TAG_W, _TAG_U, _TAG_V),
    (_TAG_W, _TAG_V, _TAG_U),
    (_TAG_U, _TAG_W, _TAG_V),
)


def check_lift_precondition(A: BitMatrix, B: BitMatrix, C: BitMatrix) -> int:
    """Validate the induction invariant and return k (half the row count)."""
    validate_partition((A, B, C))
    if A.rows % 2:
        raise ValueError("partition height must be even")
    k = A.rows // 2
    pivots = pivot_columns(vstack([A, B]))
    if pivots != list(range(4 * k)):
        raise ValueError("[A; B] must pivot exactly on the first 4k columns")
    return k


def lift_partition(
    A: BitMatrix, B: BitMatrix, C: BitMatrix
) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """Lift a sum-zero 2k-bit partition to a 2(k+1)-bit one.

    Each original column is copied four times with two-bit tags 0, u, v, w
    appended (cyclically rotated across the three blocks so position sums
    stay zero), plus one lone tagged zero column per block.  Columns are
    then rearranged, independently within each block but keeping position
    sums zero, so the first 4(k+1) columns of [A+; B+] carry the pivots:
    the first 4k groups zero-tagged, then groups 0..3 with an invertible
    4x4 tag block.  Remaining positions follow in ascending A-column order.
    """
    return _lift(check_lift_precondition(A, B, C), A, B, C)


def _lift(
    k: int, A: BitMatrix, B: BitMatrix, C: BitMatrix
) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """:func:`lift_partition` of a partition of height 2k that meets the
    lift's precondition; the lifted partition is checked against it.

    On column values, ascending A-column order is ascending value (the
    values are distinct), and the groups fall into six configurations of
    used head tags, each paired once: groups 0..3 one each, groups
    4..4k-1 (zero tags used) and the rest (none used)."""
    n = A.cols
    vals = np.stack([_column_values(M) for M in (A, B, C)]) << 2
    head = np.hstack([vals[:, : 4 * k], vals[:, :4] + np.array(_HEAD_COMBOS).T])
    zero = (0, 0, 0)
    configs = [(slice(j, j + 1), (zero, combo)) for j, combo in enumerate(_HEAD_COMBOS)]
    configs += [(slice(4, 4 * k), (zero,)), (slice(4 * k, n), ())]
    tail = [np.array([[_TAG_U], [_TAG_V], [_TAG_W]])]
    for groups, used in configs:
        left = [[t for t in _TAGS if t not in [u[b] for u in used]] for b in range(3)]
        tags = np.array(_pair_remaining(left)).T
        tail.append((vals[:, None, groups] + tags[:, :, None]).reshape(3, -1))
    tail = np.hstack(tail)
    lifted = np.hstack([head, tail[:, np.argsort(tail[0])]])
    out = tuple(_from_values(v, 2 * k + 2) for v in lifted)
    check_lift_precondition(*out)
    return out


def _pair_remaining(remaining: list[list[int]]) -> list[tuple[int, int, int]]:
    """First-fit pairing of one configuration's leftover tags into zero-sum
    triples.

    The leftover configurations are fixed by the head arrangement (six
    cases) and first-fit completes all of them; a stranded tag would be a
    bug, not bad input."""
    out = []
    a_tags, b_tags, c_tags = (list(r) for r in remaining)
    while a_tags:
        ta = a_tags.pop(0)
        for tb in b_tags:
            tc = ta ^ tb
            if tc in c_tags:
                out.append((ta, tb, tc))
                b_tags.remove(tb)
                c_tags.remove(tc)
                break
        else:
            raise AssertionError(f"could not pair leftover tags {remaining}")
    return out


def hcms_for_a(a: int, g_split: Sequence[int] | None = None) -> Bundle:
    """Bundle at parameter a >= 3 (n = (2^(2a)-1)/3, M = n + 2a), built from
    the embedded n = 21 partition by repeated lifting, completed with
    T = [0 | I_(n-4a)]."""
    if a < 3:
        raise HeightNegativeError(
            f"no construction exists for a = {a}: n - 2(M - n) < 0"
        )
    if a > MAX_A:
        raise BudgetExceededError(f"a = {a} exceeds the limit {MAX_A}")
    # each partition of the chain is validated, and its stack [Q_1; Q_2]
    # found to pivot on its first 2(M - n) columns, once: where it is made
    part = a3_partition()
    for k in range(3, a):
        part = _lift(k, *part)
    bundle = assemble(part, None, g_split, None, pivots=range(4 * a))
    if (bundle.n, bundle.M) != perfect_params_for_a(a):
        raise AssertionError(f"bundle at a = {a} has other (n, M) than the packing equality")
    return bundle


# ---------------------------------------------------------------------------
# algebraic decoding
# ---------------------------------------------------------------------------


def hcms_decode(bundle: Bundle, y: SyndromeTuple) -> SourceTuple:
    """Invert the encoding on the Hamming-source set for one syndrome
    tuple, through the code's decoder (:func:`codec.decoder`)."""
    return decoder(bundle.code).decode(y)


# ---------------------------------------------------------------------------
# bounded randomized partition search for other terminal counts
# ---------------------------------------------------------------------------


def random_sum_zero_partition(
    s: int, mn: int, rng: np.random.Generator
) -> tuple[BitMatrix, ...] | None:
    """Try, 200 times, to partition the mn-bit Hamming matrix into s
    sum-zero blocks whose first s-1 blocks stack to a full-row-rank matrix.

    For s = 3 each try takes the lines of a random line spread
    (:func:`_random_lines`); greedy placement strands the last values
    there.  Other s place values greedily.  This is a bounded randomized
    search only; returning None proves nothing about existence.
    """
    total = (1 << mn) - 1
    if total % s:
        return None
    n = total // s
    if (s - 1) * mn > n:
        return None
    for _ in range(200):
        groups = _random_lines(mn, rng) if s == 3 else _random_zero_sum_groups(s, mn, rng)
        if groups is None:
            continue
        Q = tuple(_from_values(block, mn) for block in groups)
        stack = vstack(Q[: s - 1])
        if rank(stack) == (s - 1) * mn:
            return Q
    return None


def _random_lines(mn: int, rng: np.random.Generator) -> np.ndarray:
    """All nonzero values of an even number mn of bits as 3 x n blocks, each
    column a line {a, b, a ^ b} of a random line spread, in random order
    and orientation.

    The lines are the classes {v, w v, w^2 v} of a GF(4) scaling w,
    carried by a random invertible linear map, which keeps sums zero.  w
    maps each 2-bit pair (a, b) to (b, a + b), so w^3 = 1 and 1 + w + w^2
    = 0: every class has three values summing to zero."""
    v = np.arange(1, 1 << mn, dtype=np.int64)
    lo = np.int64(int("01" * (mn // 2), 2))

    def scale(x: np.ndarray) -> np.ndarray:
        return ((x & lo) << 1) | ((x >> 1) & lo) ^ (x & lo)

    w1 = scale(v)
    w2 = scale(w1)
    first = (v < w1) & (v < w2)
    lines = np.stack([v[first], w1[first], w2[first]])
    carried = random_invertible(mn, rng) @ _from_values(lines.ravel(), mn)
    lines = _column_values(carried).reshape(3, -1)[:, rng.permutation(lines.shape[1])]
    return rng.permuted(lines, axis=0)


def _random_zero_sum_groups(s: int, mn: int, rng: np.random.Generator):
    """Randomly arrange all nonzero mn-bit values into position tuples of s
    distinct values XOR-ing to zero."""
    pool = set(range(1, 1 << mn))
    n = len(pool) // s
    blocks: list[list[int]] = [[] for _ in range(s)]
    for _ in range(n):
        placed = False
        for _attempt in range(64):
            chosen = list(rng.choice(sorted(pool), size=s - 1, replace=False))
            last = 0
            for v in chosen:
                last ^= int(v)
            if last and last in pool and last not in chosen:
                for b, v in enumerate([*chosen, last]):
                    blocks[b].append(int(v))
                    pool.discard(int(v))
                placed = True
                break
        if not placed:
            return None
    return blocks
