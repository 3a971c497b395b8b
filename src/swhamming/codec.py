"""Syndrome-based encoding plus exact compressibility and perfectness checks.

A code is an s-tuple of coding matrices, and nothing else: its s, n and
m_i are read off them (:class:`SwCode`); terminal i transmits y_i = H_i x_i.
The code compresses the Hamming-source set S iff no two distinct members of
S share a syndrome tuple.  Injectivity is decided algebraically: it fails
iff some nonzero member of the sumset S+S lies componentwise in the null
spaces.  Every S+S member has the form (c + u_1, ..., c + u_s) where the
u-pattern is one of five families (all zero; one u_i of weight 1; one u_i
of weight 2; weight-1 deviations at two distinct terminals, possibly at the
same position), so the whole decision reduces to a stacked elimination
followed by one sort of the s n deviation keys - no enumeration of S.  The
same plan decodes every compressible code (:class:`CodePlan`); a checked
bundle's plan is read off its sections, with no elimination.

The profile search needs no code per profile: with s >= 3 the same
criterion is a question about the null spaces N_i alone (some S+S member
in N_1 x ... x N_s), which :func:`compressible_grid` answers for a whole
grid of profiles at once, each N_i and the unions of its cosets held as
bit masks over GF(2)^n.  The search re-decides a few profiles through
the plan as a run-time cross-check.  Syndrome files are group files, and
:func:`iter_syndromes` is a per-tuple view of their reader (``sources``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._kernels import back_substitute, bits_matmul, nwords, sort_rows, unpack_bits
from .errors import (
    BadArgumentError,
    BudgetExceededError,
    NotCompressibleError,
    NotInImageError,
    ParamsNotPerfectError,
    VerdictMismatchError,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    Subspace,
    concat,
    echelon_augmented,
    format_matrix,
    hstack,
    mat_vec,
    matrix_with_null_space,
    null_vector,
    rank,
    split,
    vstack,
)
from .sources import (
    SourceTuple,
    enumerate_hamming_sources,
    iter_groups,
    is_hamming_member,
    is_perfect_params,
)

if TYPE_CHECKING:
    from .hcms import Bundle

SyndromeTuple = tuple[BitVector, ...]

DEFAULT_SEARCH_BUDGET = 1 << 20
# int64 words that one array of a subspace listing holds at most
# (admissible_null_spaces), whatever the search's budget
LISTING_CHUNK = 1 << 16


@dataclass(frozen=True)
class SwCode:
    """s >= 2 coding matrices H_i of size m_i x n, one n >= 1 for all;
    s, n and m = (m_1, ..., m_s) are read off the matrices.

    ``bundle`` is the ``hcms.Bundle`` that built or carried the code, once
    :func:`hcms.assemble` or :func:`bundleio.build_bundle` has checked it
    and attached it (:meth:`attach`); it is not part of the code's value.
    """

    matrices: tuple[BitMatrix, ...]
    bundle: Bundle | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.matrices) < 2 or self.n < 1 or any(H.cols != self.n for H in self.matrices):
            shapes = [f"{H.rows}x{H.cols}" for H in self.matrices]
            raise ValueError(f"need s >= 2 matrices of one width n >= 1, got {shapes}")

    @property
    def s(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].cols

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(H.rows for H in self.matrices)

    def attach(self, bundle: Bundle) -> None:
        """Record the checked bundle whose sections the plan is read off."""
        object.__setattr__(self, "bundle", bundle)

    @cached_property
    def plan(self) -> CodePlan:
        """The code's plan, made on first use and kept: read off its
        bundle's sections when they certify the code, else the one
        elimination."""
        plan = None if self.bundle is None else CodePlan.from_bundle(self.bundle)
        return CodePlan(self) if plan is None else plan


def make_code(matrices: Sequence[BitMatrix]) -> SwCode:
    """The SwCode of any sequence of coding matrices."""
    return SwCode(tuple(matrices))


def encode(code: SwCode, x: SourceTuple) -> SyndromeTuple:
    """y_i = H_i x_i for each terminal."""
    if len(x) != code.s or any(v.n != code.n for v in x):
        raise ValueError("source tuple does not match code dimensions")
    return tuple(mat_vec(H, v) for H, v in zip(code.matrices, x))


def encode_batch(code: SwCode, parts: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Syndromes of N tuples at once: parts[i] is the (N, n) 0/1 array of
    terminal i's blocks, and row r of result i is H_i applied to row r."""
    if len(parts) != code.s or any(p.shape[1] != code.n for p in parts):
        raise ValueError("source chunk does not match code dimensions")
    return [bits_matmul(p, H.to_array().T) for H, p in zip(code.matrices, parts)]


# ---------------------------------------------------------------------------
# the code's plan: compressibility and decoding
# ---------------------------------------------------------------------------


class CodePlan:
    """The checker, keys and solver of a code, which both decide
    compressibility and decode.

    Stack A = [H_1; ...; H_s] (M x n).  When rank A = n, a plan holds a
    checker F, whose M - n rows span the left null space of A, and ``top``,
    an n x M transform with top A = I; if rank A < n, a common null vector
    collides two members of S.  A member of S is (b + u_1, ..., b + u_s)
    with at most one u_i nonzero, of weight 1 at position p; its syndrome
    is y = A b + d with d column p of H_i at terminal i's rows (zero for no
    deviation).  So the key F y = F d names the deviation alone.

    The code compresses S iff rank A = n and the s n deviation keys are
    nonzero and pairwise distinct, except that for s = 2 deviating either
    terminal at one position p gives one member of S: (b + e_p, b) = (b',
    b' + e_p) for b' = b + e_p.  Those two keys are always equal, since the
    two deviations sum to A e_p and F A = 0, so they are skipped without a
    test.  Then every y whose key is zero or a deviation key is in the
    image of S, since F (y + d) = 0 puts y + d in Im A, and it decodes as
    b = top (y + d).  ``collision`` is the first u-pattern that breaks
    injectivity, in the order the keys are made; one sort of the keys finds
    it, and a decoder looks each tuple's key up among the sorted distinct
    keys (see ``_fill``).  When those fill the key space, 2^(M - n) keys of
    M - n bits, which for a compressible code holds exactly when it is
    perfect, they are the integers 0, 1, ..., 2^(M - n) - 1 in order, so
    the deviation indices in key order are a dense table, indexed by a
    key's value with no search and no miss: every syndrome tuple is in the
    image.  A code that compresses S without being perfect leaves keys
    out, and its keys are searched.  ``key_matrix`` holds the keys as a
    0/1 array, column i n + p the key of deviation (i, p); None when rank
    A < n.  Two plans of one code agree on all of these: their checkers
    are F and X F for an invertible X, which keeps keys zero or equal
    exactly when they were, and top (y + d) is the one b with A b = y + d.

    ``CodePlan(code)`` eliminates: it brings [A | I] to row echelon form
    [U | E] once, so E A = U, and F is the bottom M - n rows of E, the rows
    Gauss-Jordan would give (see ``_kernels.echelon_in_place``).  ``top``
    is a copy of the top n rows of [U | E], back-substituted on first read,
    since only decoders and witnesses read it.

    :meth:`from_bundle` reads the plan off a checked bundle's sections,
    with H_i = [G_i; C_i], Q_i = E_i C_i (C_i = Q_i and E_i = I in the
    direct form), P = [Q_1 ... Q_s] and R = [Y; T] invertible:
    - F = [0 | E_1 | 0 | E_2 | ... | 0 | E_s], zero at the G_i rows, so
      F A = E_1 C_1 + ... + E_s C_s = Q_1 + ... + Q_s = 0 when the blocks
      sum to zero;
    - rank A = n, because R is invertible and each row of R lies in row(A):
      T's rows are the G_i rows, and row(Y) = row([Q_1; ...; Q_(s-1)]) is
      spanned by C_1, ..., C_(s-1);
    - the key of deviation (i, p) is F times column p of H_i, E_i C_i e_p,
      which is column p of Q_i: the keys are the columns of P;
    - so rank F >= rank P = M - n, checked, and the M - n rows of F span
      the left null space of A, whose dimension is M - rank A = M - n;
    - top = R^-1 S, for the selection S with S A = R: T's rows are rows
      of A, and Y = W [C_1; ...; C_(s-1)] (W = I in the direct form).  So
      top A = R^-1 R = I.
    """

    def __init__(self, code: SwCode):
        n = code.n
        A = vstack(code.matrices)
        # [U | E], kept packed: the top n rows are reduced only when a
        # witness or a decoder needs them
        self._echelon, pivots = echelon_augmented(A, BitMatrix.identity(A.rows))
        F = key_matrix = None
        if len(pivots) == n:
            F = unpack_bits(self._echelon.data[n:], self._echelon.cols)[:, n:]
            # key of deviation j = i n + p: F times column p of H_i at
            # terminal i's rows, one product per terminal
            offsets = list(itertools.accumulate(code.m, initial=0))
            blocks = zip(offsets, offsets[1:], code.matrices)
            products = [bits_matmul(F[:, a:b], H.to_array()) for a, b, H in blocks]
            key_matrix = np.concatenate(products, axis=1)
        self._fill(code, F, key_matrix, None)

    @classmethod
    def from_bundle(cls, bundle: Bundle) -> CodePlan | None:
        """The plan of ``bundle.code`` read off the sections of ``bundle``,
        which :func:`hcms.assemble` or :func:`bundleio.build_bundle` has
        checked (see the class docstring); None when they do not certify
        the code: the blocks do not sum to zero, M - n is not the row count
        of P or not its rank, or a key is zero or repeated.  No n-sized
        matrix is eliminated; ``top`` reads ``bundle.R_inv``."""
        code, Q = bundle.code, bundle.Q
        mn, offsets = Q[0].rows, list(itertools.accumulate(code.m, initial=0))
        if mn != offsets[-1] - code.n or not sum(Q[1:], Q[0]).is_zero() or rank(bundle.P) < mn:
            return None
        F = np.zeros((mn, offsets[-1]), dtype=np.uint8)
        for b, Ei in zip(offsets[1:], bundle.E or (BitMatrix.identity(mn),) * code.s):
            F[:, b - Ei.cols : b] = Ei.to_array()
        plan = cls.__new__(cls)
        plan._fill(code, F, hstack(Q).to_array(), bundle)
        return None if plan.collision is not None else plan

    def _fill(
        self,
        code: SwCode,
        F: np.ndarray | None,
        key_matrix: np.ndarray | None,
        bundle: Bundle | None,
    ) -> None:
        """The fields of the plan of ``code`` with checker F (None when rank
        A < n), its keys, and the bundle ``top`` is read off (None: the
        elimination's).  One stable sort of the packed keys gives each key
        j the least index j0 of a key equal to it; the collision is the
        first j, in key order, whose key is zero or has j0 < j, bar the s =
        2 same-position pair.  A compressible plan keeps the sorted
        distinct keys, the zero key first, beside their deviation indices
        j0 (s n for the zero key), which :meth:`_decode_rows` searches or,
        when the keys fill the key space, indexes by key value."""
        s, n = code.s, code.n
        self.code, self.s, self.n, self.m = code, s, n, code.m
        self.full_rank = F is not None
        self._F, self.key_matrix, self._bundle = F, key_matrix, bundle
        self._keys = self._deviations = None
        self.collision: tuple[int, int, int | None, int | None] | None = None
        if F is None:
            return
        if key_matrix.shape[0] == 0:
            # M = n: every key is zero, and zero bits wide
            self.collision = (0, 0, None, None)
            return
        packed = np.packbits(key_matrix.T, axis=1)
        keys, order, start = sort_rows(packed)
        index = np.arange(len(order))
        first = np.empty_like(order)
        first[order] = order[np.maximum.accumulate(np.where(start, index, 0))]
        zero = ~packed.any(axis=1)
        repeat = first != index
        if s == 2:
            # one member of S, not a collision (see the class docstring)
            repeat &= first != index - n
        flagged = np.flatnonzero(zero | repeat)
        if len(flagged):
            j = int(flagged[0])
            i, p = divmod(j, n)
            self.collision = (i, p, None, None) if zero[j] else (*divmod(int(first[j]), n), i, p)
            return
        self._keys = np.concatenate([np.zeros(1, dtype=keys.dtype), keys[start]])
        self._deviations = np.concatenate([[s * n], order[start]])

    @cached_property
    def top(self) -> BitMatrix | None:
        """The n x M transform with top A = I; None when rank A < n."""
        if not self.full_rank:
            return None
        if self._bundle is not None:
            return _top_of_bundle(self._bundle)
        # full rank: the top n rows pivot on columns 0..n-1
        rows = self._echelon.data[: self.n].copy()
        back_substitute(rows, np.arange(self.n))
        return BitMatrix.from_bits(unpack_bits(rows, self._echelon.cols)[:, self.n :])

    @property
    def compressible(self) -> bool:
        return self.full_rank and self.collision is None

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """F^T and top^T as float32, the correction rows (row j = i n + p
        is column p of H_i at terminal i's offset; row s n is zero) and,
        when the sorted distinct keys fill the key space (see the class
        docstring), the place values of the key bits, most significant
        first, else None; made on the first decode."""
        n, offsets = self.n, np.cumsum([0, *self.m])
        corr = np.zeros((self.s * n + 1, offsets[-1]), dtype=np.uint8)
        for i, H in enumerate(self.code.matrices):
            corr[i * n : (i + 1) * n, offsets[i] : offsets[i + 1]] = H.to_array().T
        width = self._F.shape[0]
        dense = len(self._keys) == 1 << width
        return (
            self._F.T.astype(np.float32),
            self.top.to_array().T.astype(np.float32),
            corr,
            1 << np.arange(width - 1, -1, -1, dtype=np.int64) if dense else None,
        )

    def decode_batch(self, parts: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Decode N tuples: parts[i] is the (N, m_i) 0/1 array of terminal
        i's syndromes, result i the (N, n) array of its blocks."""
        if len(parts) != self.s or any(p.shape[1] != mi for p, mi in zip(parts, self.m)):
            raise ValueError("syndrome chunk does not match the code")
        return self._decode_rows(np.concatenate(parts, axis=1))

    def decode(self, y: SyndromeTuple) -> SourceTuple:
        """One tuple, as a batch of one."""
        if len(y) != self.s or any(v.n != mi for v, mi in zip(y, self.m)):
            raise ValueError("syndrome tuple does not match the code")
        x = self._decode_rows(concat(y).to_array()[None, :])
        blocks = BitVector.from_bits(np.concatenate(x, axis=1)[0])
        return tuple(split(blocks, [self.n] * self.s))

    def _decode_rows(self, y: np.ndarray) -> list[np.ndarray]:
        """Decode the rows of y, each a concatenated syndrome tuple."""
        Ft, top_t, corr, place = self._tables
        s, n = self.s, self.n
        bits = bits_matmul(y, Ft)
        if place is not None:
            # the dense table: a key's value is its place among the keys
            at = bits @ place
        else:
            keys = np.packbits(bits, axis=1).view(self._keys.dtype)[:, 0]
            # the greatest sorted key <= each key; the zero key is the least
            at = np.searchsorted(self._keys, keys, side="right") - 1
            missed = self._keys[at] != keys
            if missed.any():
                k = int(np.argmax(missed))
                raise NotInImageError(
                    f"tuple {k} of the chunk: syndrome tuple is not produced by any member of S",
                    index=k,
                )
        cols = self._deviations[at]
        x = np.repeat(bits_matmul(y ^ corr[cols], top_t)[:, None, :], s, axis=1)
        dev = np.nonzero(cols < s * n)[0]
        term, pos = np.divmod(cols[dev], n)
        x[dev, term, pos] ^= 1
        return [x[:, i] for i in range(s)]


def _top_of_bundle(bundle: Bundle) -> BitMatrix:
    """top = R^-1 S (see :class:`CodePlan`): the columns of R^-1 for T at
    the G_i rows of A, and those for Y, times W in the relaxed form, at the
    C_1 ... C_(s-1) rows; zero at the C_s rows.  The columns are scattered,
    not multiplied by S."""
    code, s, g = bundle.code, bundle.s, bundle.g_split
    R_inv = bundle.R_inv.to_array()
    r = code.n - sum(g)
    offsets = list(itertools.accumulate(code.m, initial=0))
    g_rows = [a + k for a, gi in zip(offsets, g) for k in range(gi)]
    c_rows = [k for a, b, gi in zip(offsets, offsets[1:s], g) for k in range(a + gi, b)]
    top = np.zeros((code.n, offsets[-1]), dtype=np.uint8)
    top[:, g_rows] = R_inv[:, r:]
    y_cols = R_inv[:, :r]
    top[:, c_rows] = y_cols if bundle.E is None else bits_matmul(y_cols, bundle.W.to_array())
    return BitMatrix.from_bits(top)


def decoder(code: SwCode) -> CodePlan:
    """The code's decoder: its plan, once that proves the code compressible."""
    plan = code.plan
    if not plan.compressible:
        raise NotCompressibleError("code is not compressible; no decoder exists")
    return plan


def find_collision(code: SwCode) -> tuple[SourceTuple, SourceTuple] | None:
    """Two distinct members of S with equal syndromes, or None: a common
    null vector when rank A < n, else the plan's first colliding u-pattern
    (see :class:`CodePlan`)."""
    plan = code.plan
    if not plan.full_rank:
        x = null_vector(vstack(code.matrices))
        zero = BitVector.zeros(code.n)
        return _validate_pair(code, (x,) * code.s, (zero,) * code.s)
    if plan.collision is None:
        return None
    return _collision_from_pattern(code, plan.top, *plan.collision)


def _particular_solution(
    code: SwCode, Etop: BitMatrix, i: int, p: int, j: int | None, q: int | None
) -> BitVector:
    """Etop times the pattern's syndrome: column p of H_i at terminal i's
    rows, plus column q of H_j at terminal j's when j is given."""
    parts = [BitVector.zeros(mi) for mi in code.m]
    parts[i] = parts[i] + code.matrices[i].column(p)
    if j is not None:
        parts[j] = parts[j] + code.matrices[j].column(q)
    return mat_vec(Etop, concat(parts))


def _collision_from_pattern(
    code: SwCode, Etop: BitMatrix, i0: int, p0: int, i1: int | None, p1: int | None
):
    """Build the colliding S-member pair for a solvable u-pattern."""
    n, s = code.n, code.s
    c = _particular_solution(code, Etop, i0, p0, i1, p1)
    zero = BitVector.zeros(n)
    if i1 is None:
        # single weight-1 deviation at (i0, p0)
        a = tuple(c for _ in range(s))
        b = tuple(BitVector.unit(n, p0) if k == i0 else zero for k in range(s))
    else:
        # u splits as e_p0 at i0 on one side, e_p1 at i1 on the other
        # (i0 == i1 is the weight-2 family, i0 != i1 the two-terminal one)
        a = tuple(c + BitVector.unit(n, p0) if k == i0 else c for k in range(s))
        b = tuple(BitVector.unit(n, p1) if k == i1 else zero for k in range(s))
    return _validate_pair(code, a, b)


def _validate_pair(code: SwCode, a: SourceTuple, b: SourceTuple):
    # counterexamples are self-validating: in S, distinct, equal syndromes
    if not (is_hamming_member(a) and is_hamming_member(b)):
        raise AssertionError("counterexample is not a pair of members of S")
    if a == b:
        raise AssertionError("counterexample is not a pair of distinct members")
    if encode(code, a) != encode(code, b):
        raise AssertionError("counterexample members have different syndromes")
    return a, b


def is_compressible(code: SwCode) -> bool:
    """True iff the encoding map restricted to S is injective: the verdict of
    the code's plan, proved exact in :class:`CodePlan`.  No
    witness is built; :func:`find_collision` builds and checks one."""
    return code.plan.compressible


def brute_force_collision(
    code: SwCode, budget: int = 1 << 16
) -> tuple[SourceTuple, SourceTuple] | None:
    """Oracle: pairwise syndrome comparison over an explicit enumeration of S."""
    seen: dict[bytes, SourceTuple] = {}
    for x in enumerate_hamming_sources(code.s, code.n, budget=budget):
        key = b"".join(y.tobytes() for y in encode(code, x))
        prev = seen.get(key)
        if prev is not None:
            return prev, x
        seen[key] = x
    return None


def is_perfect(code: SwCode) -> bool:
    """The packing equality 2^M = |S| holds and the code compresses S.

    Then every matrix is surjective, so no transmitted bit is redundant:
    injectivity on S makes the image 2^M elements, and it lies inside
    Im H_1 x ... x Im H_s, which has 2^(rank H_1 + ... + rank H_s) <= 2^M
    elements, so every rank H_i = m_i.  The image is then all 2^M syndrome
    tuples."""
    return is_perfect_params(code.s, code.n, sum(code.m)) and is_compressible(code)


# ---------------------------------------------------------------------------
# exhaustive search for perfect null-space profiles (three terminals)
# ---------------------------------------------------------------------------


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def admissible_null_spaces(n: int, d: int) -> list[Subspace]:
    """All d-dimensional subspaces of GF(2)^n whose nonzero vectors all have
    weight >= 3, each held by its canonical basis.  A coding-matrix null
    space containing a weight-1 or weight-2 vector immediately collides two
    members of S, so only these subspaces can appear in a compressing
    profile.

    They are listed in the order of their bases in reduced row echelon
    form: pivot sets in ``itertools.combinations`` order, and each set's
    free bits (row by row, each row's columns in increasing order) in
    ``itertools.product`` order.  The candidates are decided a chunk at a
    time (:func:`_rref_bases`, at most ``LISTING_CHUNK`` words per array):
    their spans grow one basis row at a time (:func:`_spans`), and a
    candidate is dropped at the first row that puts a vector of weight < 3
    in its span.

    No d-subspace qualifies when 2^d (n + 1) > 2^n, which is then answered
    without listing: its nonzero vectors all having weight >= 3 makes it a
    code of minimum distance 3, since two members u != v differ in u + v,
    itself a nonzero member.  So the radius-1 balls around its 2^d members,
    n + 1 vectors each, are disjoint, and 2^d (n + 1) <= 2^n.  A listing
    of at least 2^63 candidates, which no array can index, is
    BUDGET_EXCEEDED; any other reaches only n <= 63, since 1 <= d < n then
    (d = n fails the bound) and there are at least 2^n - 1 candidates, so
    each basis row is one non-negative int64.
    """
    if d == 0:
        return [Subspace.zero(n)]
    if (n + 1) << d > 1 << n:
        return []
    if d * (n - d) >= 63 or gaussian_binomial(n, d) >> 63:
        raise BudgetExceededError(
            f"listing the {d}-dimensional subspaces of GF(2)^{n}, at least 2^63 of them, "
            "needs indices wider than 63 bits"
        )
    out: list[Subspace] = []
    # per basis, the widest arrays are its free bits, at most d (n - d),
    # and its span, 2^d members
    size = max(1, LISTING_CHUNK // max(d * (n - d), 1 << d))
    for rows in _rref_bases(n, d, size):
        keep, _ = _spans(rows, min_weight=3)
        # the rows are already the canonical basis, since row i leads at
        # pivots[i] and no other row has that bit set
        words = rows[keep].view(np.uint64).reshape(len(keep), d, 1)
        out += [Subspace(n, basis=BitMatrix(d, n, w)) for w in words]
    return out


def _rref_bases(n: int, d: int, size: int):
    """The d x n matrices in reduced row echelon form with no zero row, in
    the order of :func:`admissible_null_spaces`, as (size, d) int64 arrays
    (the last one shorter), bit j of an entry coordinate j of the row.  An
    assignment of the f free bits of a pivot set is the index of its
    ``itertools.product`` tuple, whose first entry is the index's most
    significant bit; it sets bit j of row i for each free entry (i, j) it
    holds a 1 at."""
    pending, held = [], 0
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivset]
        weight = np.zeros((len(free), d), dtype=np.int64)
        for k, (i, j) in enumerate(free):
            weight[k, i] = 1 << j
        base = np.array([1 << p for p in pivots], dtype=np.int64)
        shifts = np.arange(len(free) - 1, -1, -1)
        start, total = 0, 1 << len(free)
        while start < total:
            stop = min(total, start + size - held)
            index = np.arange(start, stop, dtype=np.int64)
            pending.append(base | ((index[:, None] >> shifts) & 1) @ weight)
            held += stop - start
            start = stop
            if held == size:
                yield np.concatenate(pending)
                pending, held = [], 0
    if pending:
        yield np.concatenate(pending)


def _spans(rows: np.ndarray, min_weight: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The members of the span of each row of ``rows``, a (C, d) int64
    array of d vectors per row (bit j of an entry coordinate j), as a
    (len(keep), 2^d) array, member k the sum of the vectors at the set bits
    of k, beside ``keep``, the indices of the rows whose nonzero members
    all have weight >= ``min_weight``.  A span grows one vector at a time,
    and a row is dropped as soon as a member of lower weight appears."""
    keep = np.arange(len(rows))
    span = np.zeros((len(rows), 1), dtype=np.int64)
    for i in range(rows.shape[1]):
        grown = span ^ rows[keep, i, None]
        if min_weight:
            heavy = (np.bitwise_count(grown) >= min_weight).all(axis=1)
            keep, span, grown = keep[heavy], span[heavy], grown[heavy]
        span = np.concatenate([span, grown], axis=1)
    return keep, span


def coset_masks(spaces: Sequence[Subspace], n: int) -> np.ndarray:
    """Three sets per subspace N_k of GF(2)^n, as bit masks: masks[0, k] is
    N_k, masks[1, k] the union of its cosets N_k + u over the u of weight 1,
    masks[2, k] over the u of weight 1 or 2.  Bit w % 64 of word w // 64 is
    set iff w is in the set; the shape is (3, len(spaces), nwords(2^n)), one
    word per mask for n <= 6."""
    rows = np.zeros((len(spaces), max((N.dim for N in spaces), default=0)), dtype=np.int64)
    for k, N in enumerate(spaces):
        rows[k, : N.dim] = N.basis.data[:, 0]
    # a smaller basis is padded with zero rows, which repeat its members
    members = _spans(rows)[1][:, :, None]
    ones = [1 << p for p in range(n)]
    twos = [a | b for a, b in itertools.combinations(ones, 2)]
    k = np.arange(len(spaces)).reshape(-1, 1, 1)
    dense = np.zeros((3, len(spaces), 64 * nwords(1 << n)), dtype=bool)
    for kind, offsets in enumerate([[0], ones, ones + twos]):
        dense[kind, k, members ^ np.array(offsets, dtype=np.int64)] = True
    return np.packbits(dense, axis=-1, bitorder="little").view("<u8")


def _families(s: int):
    """The kinds of mask (:func:`coset_masks`) each family of nonzero
    u-differences of two members of S intersects: one or two bits at one
    terminal, one bit at each of two terminals."""
    for i in range(s):
        yield tuple(2 if t == i else 0 for t in range(s))
    for i, j in itertools.combinations(range(s), 2):
        yield tuple(1 if t in (i, j) else 0 for t in range(s))


def compressible_grid(masks: Sequence[np.ndarray]) -> np.ndarray:
    """Whether each profile (N_1, ..., N_s), s >= 3, compresses S, for N_i
    the subspaces behind ``masks[i]`` (:func:`coset_masks`): a boolean
    array indexed by their positions, in C order the order of
    ``itertools.product``.

    A member of S+S is (c + u_1, ..., c + u_s) for any c and a u-difference
    pattern: all zero, one u_i of weight 1 or 2, or two u_i of weight 1;
    with s >= 3 some u_i is zero, so it is zero only for the zero pattern
    and c = 0.  The code with null spaces N_i collides two members of S iff
    such a nonzero member lies in N_1 x ... x N_s: iff the N_i meet in a
    nonzero c, or for some nonzero pattern the cosets N_i + u_i share a c.
    Intersection distributes over union, so the patterns of one family
    share a c iff the unions of their cosets do: N_i + {weight 1 or 2}
    against the other N_t, and for each pair i < j, N_i + {weight 1} and
    N_j + {weight 1} against the other N_t.  That is s + C(s, 2) + 1
    intersections (7 at s = 3, for the 120 patterns at n = 5), each one
    AND of masks broadcast over the whole grid; the hits are ORed.
    """
    s = len(masks)
    if s < 3:
        raise BadArgumentError(f"the coset test is exact for s >= 3, got s = {s}")
    # terminal i's masks along axis i of the grid, after the kind axis
    views = [
        m.reshape((3,) + (1,) * i + (m.shape[1],) + (1,) * (s - 1 - i) + (m.shape[2],))
        for i, m in enumerate(masks)
    ]

    def meet(kinds):
        return reduce(np.bitwise_and, [view[kind] for view, kind in zip(views, kinds)])

    hits = meet((0,) * s)
    hits[..., 0] &= ~np.uint64(1)  # c = 0 is in every N_i
    for kinds in _families(s):
        hits |= meet(kinds)
    return ~hits.any(axis=-1)


@dataclass
class SearchResult:
    """Outcome of a perfect-profile search at fixed (n, M)."""

    n: int
    M: int
    assignments_considered: int = 0
    assignments_admissible: list[tuple[int, ...]] = field(default_factory=list)
    candidate_counts: dict[int, int] = field(default_factory=dict)
    triples_tested: int = 0
    profiles: list[tuple[Subspace, ...]] = field(default_factory=list)


def search_perfect_null_spaces(
    n: int,
    M: int,
    *,
    s: int = 3,
    budget: int = DEFAULT_SEARCH_BUDGET,
    jobs: int = 1,
) -> SearchResult:
    """Enumerate all admissible null-space triples for a perfect (3, n, M)
    code and keep the ones whose induced codes compress S.

    Null-space dimensions follow from the full-rank requirement, d_i =
    n - m_i, over all row splits m_1 + m_2 + m_3 = M.  Candidate subspaces
    are pruned by the weight-1/weight-2 exclusion before any code is
    tested: :func:`admissible_null_spaces` decides the candidates of a
    dimension in whole-array passes, and answers a dimension the Hamming
    bound rules out (2^d (n + 1) > 2^n) with no listing.  The count of
    d-subspaces is checked against ``budget`` before that, so a refusal
    does not depend on the bound.  Compressibility depends only on the
    null spaces, so the
    triples of a row split are decided together by the coset test
    (:func:`compressible_grid`).  The plan's exact test,
    :func:`is_compressible`, re-decides the first triple of every row split
    and every profile found; a disagreement is VERDICT_MISMATCH.  The
    candidates' coset masks and one intersection over the largest grid
    count, in words, against ``budget`` too.  ``jobs`` is accepted and
    ignored: every search that finishes within a budget runs in one
    process.
    """
    if s != 3:
        raise BadArgumentError(f"profile search is implemented for s = 3, got s = {s}")
    if not is_perfect_params(3, n, M):
        raise ParamsNotPerfectError(f"2^{n}(3*{n}+1) != 2^{M}: no perfect code can exist")
    result = SearchResult(n=n, M=M)

    cands: dict[int, list[Subspace]] = {}
    assignments = []
    for m1 in range(1, n + 1):
        for m2 in range(1, n + 1):
            m3 = M - m1 - m2
            if not 1 <= m3 <= n:
                continue
            result.assignments_considered += 1
            dims = (n - m1, n - m2, n - m3)
            for d in dims:
                if d not in cands:
                    # listing walks all d-subspaces, at least 2^(d (n - d)) of
                    # them; they are counted exactly (a number of about d n
                    # bits) only when that bound is not far beyond the budget
                    floor = d * (n - d)
                    far = floor >= max(budget, 0).bit_length() + 64
                    count = None if far else gaussian_binomial(n, d)
                    if far or count > budget:
                        raise BudgetExceededError(
                            f"listing the {count or f'at least 2^{floor}'} {d}-dimensional "
                            f"subspaces of GF(2)^{n} exceeds budget {budget}"
                        )
                    cands[d] = admissible_null_spaces(n, d)
                    result.candidate_counts[d] = len(cands[d])
            if all(cands[d] for d in dims):
                assignments.append(dims)
                result.assignments_admissible.append((m1, m2, m3))

    grids = [math.prod(len(cands[d]) for d in dims) for dims in assignments]
    if sum(grids) > budget:
        raise BudgetExceededError(f"{sum(grids)} admissible triples exceed budget {budget}")
    used = {d for dims in assignments for d in dims}
    words = nwords(1 << n) * (3 * sum(len(cands[d]) for d in used) + max(grids, default=0))
    if words > budget:
        raise BudgetExceededError(f"coset masks of {words} words exceed budget {budget}")

    masks = {d: coset_masks(cands[d], n) for d in used}
    for dims in assignments:
        ok = compressible_grid([masks[d] for d in dims])
        result.triples_tested += ok.size
        for flat in np.union1d([0], np.flatnonzero(ok)):
            index = np.unravel_index(flat, ok.shape)
            triple = tuple(cands[d][int(k)] for d, k in zip(dims, index))
            # looked up as a module global on every call, so a caller can
            # wrap it to time or count the cross-checks
            if is_compressible(make_code([matrix_with_null_space(N) for N in triple])) != ok[index]:
                raise VerdictMismatchError(
                    f"null dims {dims}, triple {tuple(map(int, index))}: the coset test "
                    f"says {bool(ok[index])}, the plan the opposite"
                )
            if ok[index]:
                result.profiles.append(triple)
    return result


# ---------------------------------------------------------------------------
# plain code files: "s n", "m_1 ... m_s", then the s matrices (read by
# ``bundleio``)
# ---------------------------------------------------------------------------


def format_code(code: SwCode) -> str:
    head = f"{code.s} {code.n}\n" + " ".join(str(mi) for mi in code.m) + "\n"
    return head + "".join(format_matrix(H) for H in code.matrices)


def iter_syndromes(lines, m: Sequence[int]):
    """Syndrome tuples of m_i bits at line i of a group, read by
    :func:`sources.iter_groups`."""
    return iter_groups(lines, m)
