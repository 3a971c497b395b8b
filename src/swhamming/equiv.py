"""Null-space equivalence machinery.

Whether a code compresses the Hamming sources depends only on the tuple of
its null spaces (its profile): the sumset criterion in :mod:`codec`
references nothing else.  Shifting a common subspace K between terminals'
null spaces preserves compressibility and perfectness, which induces the
equivalence relation under which every perfect code reduces to the
row-basis relaxed construction.  The class of a perfect code is its
sum-zero Hamming partition P, read off the plan that proves the code
perfect: two perfect codes are equivalent exactly when their P are equal,
and the reduction builds the canonical relaxed bundle of P alone (see
:func:`reduce_with_report`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import bits_matmul
from .codec import SwCode, is_perfect, make_code
from .errors import DecompositionInvalidError, NotPerfectError
from .gf2 import (
    BitMatrix,
    Subspace,
    _leading_bits,
    complement,
    distinct_nonzero_columns,
    matrix_with_null_space,
    null_space,
    row_basis,
    row_basis_and_transforms,
    subspace_intersect,
    subspace_sum,
    vstack,
)
from .ghcms import degenerate_two_source
from .hcms import Bundle, _column_values, assemble
from .sources import hamming_source_size

__all__ = [
    "NullProfile",
    "profile",
    "matrix_with_null_space",
    "shift_null_space",
    "two_source_reduce",
    "residual_intersections",
    "normalize_profile",
    "lift_to_two_source",
    "reduce_to_ghcms",
    "reduce_with_report",
    "ReduceReport",
    "code_from_profile",
]

NullProfile = tuple[Subspace, ...]


def profile(code: SwCode) -> NullProfile:
    """The s-tuple of null spaces, which decides compressibility."""
    return tuple(null_space(H) for H in code.matrices)


def code_from_profile(spaces: NullProfile) -> SwCode:
    """Surjective matrices realizing the given null spaces."""
    return make_code([matrix_with_null_space(N) for N in spaces])


def shift_null_space(
    code: SwCode,
    K: Subspace,
    from_r: int,
    to_d: int,
    residual: Subspace | None = None,
) -> SwCode:
    """Move the common subspace K out of terminal to_d's null space and into
    terminal from_r's.

    Requires K inside every null space except from_r's, and K disjoint from
    from_r's.  The part of null(H_to_d) left behind defaults to the
    canonical complement of K; pass ``residual`` to pick it explicitly
    (the exact inverse of a previous shift passes the original null space).
    Compressibility and perfectness are preserved; all output matrices are
    surjective.
    """
    s = code.s
    if not (0 <= from_r < s and 0 <= to_d < s):
        raise IndexError("terminal index out of range")
    prof = list(profile(code))
    for i in range(s):
        if i == from_r:
            if subspace_intersect(K, prof[i]).dim != 0:
                raise DecompositionInvalidError(
                    f"K meets null space {i} nontrivially; K + N_{i} is not direct"
                )
        elif not prof[i].contains_subspace(K):
            raise DecompositionInvalidError(f"K is not contained in null space {i}")

    if from_r != to_d:
        if residual is None:
            residual = complement(K, prof[to_d])
        else:
            if subspace_intersect(K, residual).dim != 0 or subspace_sum(
                K, residual
            ) != prof[to_d]:
                raise DecompositionInvalidError(
                    "residual does not complement K inside null space "
                    f"{to_d}"
                )
        prof[from_r] = subspace_sum(prof[from_r], K)
        prof[to_d] = residual
    return code_from_profile(tuple(prof))


def two_source_reduce(code: SwCode) -> tuple[BitMatrix, BitMatrix]:
    """Normal form of a perfect 2-source code: shift the whole null space of
    terminal 1 into terminal 2, leaving an invertible matrix (the identity)
    and a full-rank matrix whose columns are nonzero and pairwise distinct,
    i.e. a column permutation of the Hamming matrix with 2^m = n + 1."""
    if code.s != 2:
        raise ValueError("reduction applies to 2-source codes")
    if not is_perfect(code):
        raise NotPerfectError("input code is not a perfect compression")
    return BitMatrix.identity(code.n), _pair_partition(code)[0]


def _pair_partition(code: SwCode) -> tuple[BitMatrix, BitMatrix]:
    """The Hamming partition P of a perfect code, and of every code
    equivalent to it (see :func:`reduce_with_report`), with the X that
    gives P = X K: P is the canonical row basis of the plan's key matrix
    K = F J, J = diag(H_1, ..., H_s), or of K's first n columns for s = 2,
    and X comes from the same elimination.  Its null space is N_1 + N_2
    for a pair (K's blocks are equal, as they sum to F A = 0), and null X
    + null J for the pair (X, J) that :func:`lift_to_two_source` folds a
    code into: w is orthogonal to null X = {(v, ..., v)} iff its blocks
    sum to zero, w is in row J iff w = c J, and c J's blocks sum to c A,
    zero iff c is in row F.  It has M - n rows and nonzero, distinct
    columns."""
    plan = code.plan
    if not plan.compressible:
        raise NotPerfectError("code does not compress S; it has no Hamming partition")
    K = plan.key_matrix
    P, _, X = row_basis_and_transforms(BitMatrix.from_bits(K[:, : code.n] if code.s == 2 else K))
    rows = sum(code.m) - code.n
    if P.rows != rows:
        raise DecompositionInvalidError(f"partition has {P.rows} rows, not M - n = {rows}")
    if not distinct_nonzero_columns(P):
        raise DecompositionInvalidError("partition columns must be nonzero and distinct")
    return P, X


def residual_intersections(prof: NullProfile) -> list[Subspace]:
    """R_i = the intersection of every null space of the profile except the
    i-th, for i < s.  These are the parts normalization moves into terminal
    i."""
    return [
        functools.reduce(subspace_intersect, prof[:i] + prof[i + 1 :])
        for i in range(len(prof) - 1)
    ]


def normalize_profile(code: SwCode) -> SwCode:
    """Equivalent perfect code in which, for every i < s, the null spaces of
    all terminals except i intersect in {0}.

    Moves each residual intersection R_i from the last terminal's null
    space into terminal i's; the last terminal keeps a complement of their
    direct sum.
    """
    if not is_perfect(code):
        raise NotPerfectError("input code is not a perfect compression")
    prof = profile(code)
    residuals = residual_intersections(prof)
    s = len(prof)
    D = functools.reduce(subspace_sum, residuals, Subspace.zero(prof[0].n))
    if not prof[s - 1].contains_subspace(D):
        raise DecompositionInvalidError("residuals must lie in the last null space")
    kept = complement(D, prof[s - 1])
    # kept has dim N_(s-1) - dim D, so this reads dim D = the sum of dim R_i
    if prof[s - 1].dim - kept.dim != sum(R.dim for R in residuals):
        raise DecompositionInvalidError("residuals must sum directly")
    new_prof = []
    for i in range(s - 1):
        merged = subspace_sum(prof[i], residuals[i])
        if merged.dim != prof[i].dim + residuals[i].dim:
            raise DecompositionInvalidError(f"residual {i} meets null space {i}")
        new_prof.append(merged)
    new_prof = (*new_prof, kept)
    if any(R.dim for R in residual_intersections(new_prof)):
        raise DecompositionInvalidError(
            "normalization must leave all-but-one intersections trivial"
        )
    return code_from_profile(new_prof)


def lift_to_two_source(code: SwCode) -> SwCode:
    """Fold a perfect (s, n, M) code, s > 2, into a perfect
    (2, sn, M + (s-1)n) code: one terminal sends consecutive block
    differences, the other the blockwise syndromes."""
    if code.s < 3:
        raise ValueError("folding is defined for s > 2 (a 2-source code already is one)")
    if not is_perfect(code):
        raise NotPerfectError("input code is not a perfect compression")
    s, n = code.s, code.n
    X = np.zeros(((s - 1) * n, s * n), dtype=np.uint8)
    eye = np.eye(n, dtype=np.uint8)
    for k in range(s - 1):
        X[k * n : (k + 1) * n, k * n : (k + 1) * n] = eye
        X[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = eye
    Mtot = sum(code.m)
    J = np.zeros((Mtot, s * n), dtype=np.uint8)
    ro = 0
    for i, H in enumerate(code.matrices):
        J[ro : ro + H.rows, i * n : (i + 1) * n] = H.to_array()
        ro += H.rows
    out = make_code([BitMatrix.from_bits(X), BitMatrix.from_bits(J)])
    if not is_perfect(out):
        raise DecompositionInvalidError("the folded pair must be perfect")
    return out


@dataclass
class ReduceReport:
    """Trace of the universality reduction for human-readable reports."""

    input_profile_dims: tuple[int, ...]
    # dim R_i, R_i the intersection of the input's null spaces but the
    # i-th, for i < s (m_i - rank Q_i for s > 2, see reduce_with_report)
    residual_dims: tuple[int, ...]
    # the output's null dims: for s > 2 those of normalize_profile's code;
    # for s = 2 their mirror, since terminal 1 takes the whole completion
    # ((0, 4), not (4, 0), at n = 7)
    normalized_profile_dims: tuple[int, ...]
    # n - rank Y, the dim of the intersection of the output's first s - 1
    # null spaces; None for s = 2
    tail_intersection_dim: int | None
    hamming_permutation: tuple[int, ...]
    output_rates: tuple[int, ...]
    perfect: bool


def reduce_to_ghcms(code: SwCode) -> Bundle:
    """Constructive universality: the canonical relaxed bundle of the
    input's Hamming partition P, equivalent to the input.  For s > 2 it is
    ``ghcms_build(Q, (0, ..., 0, n - rank Y))``, with the normalized
    input's first s - 1 null spaces; for s = 2 the degenerate two-source
    bundle of P, whose null dims mirror :func:`normalize_profile`'s."""
    bundle, _ = reduce_with_report(code)
    return bundle


def reduce_with_report(code: SwCode) -> tuple[Bundle, ReduceReport]:
    """The bundle of :func:`reduce_to_ghcms` and the trace of its making.

    For s > 2 it is built from the blocks Q_i of the partition P off the
    input's plan: C_i, E_i and D_i from ``row_basis_and_transforms(Q_i)``,
    Y the row basis of the first s - 1, and Y's standard completion T on
    terminal s.  Why it is equivalent to the input, for the input's null
    spaces N_i, V = {(v, ..., v)} + N_1 x ... x N_s and Z_i = null(Q_i):
    - row(P) is V's annihilator.  P annihilates V, as its blocks sum to
      zero and Q_i = X F_i H_i (both checked; P = X K for the plan's keys
      K_i = F_i H_i) vanishes on N_i.  P has M - n independent rows, and
      dim V = n + (s n - M), as a perfect code's N_i meet only in 0.
    - So v is in Z_i iff v at terminal i is in V, that is (u, ..., u) +
      (n_1, ..., n_s) with n_j = u for all j != i.  So Z_i is the direct
      sum of N_i and R_i, the intersection of the N_j with j != i, and
      dim R_i = m_i - rank Q_i.
    - Shifting each R_i, i < s, out of N_s into N_i (legal: R_i lies in
      every N_j with j != i and meets N_i in 0) keeps V and makes N_i =
      Z_i.  N_s is then a complement of the tail t = null(Y), the
      intersection of Z_1, ..., Z_(s-1), inside Z_s = N_s + R_s.
    - Lemma: two complements A and B of t inside Z_s are linked by two
      :func:`shift_null_space` moves.  Moving t out of N_1 into N_s
      (legal: t lies in Z_1, ..., Z_(s-1) and meets A in 0) gives N_s =
      Z_s; moving it back with ``residual=B`` restores N_1, and N_s = B.
    - The output's null spaces are Z_i for i < s and the intersection of
      Z_s and null(T), which meets t in 0 ([Y; T] is invertible) and has
      dimension at least dim Z_s - dim t: such a B.
    So a perfect code is equivalent to the bundle of its P, and, as shifts
    keep V, two perfect codes are equivalent exactly when their P are
    equal.  For s = 2 the output is ``degenerate_two_source(P)``.
    """
    s, n = code.s, code.n
    if not is_perfect(code):
        raise NotPerfectError("input code is not a perfect compression")
    P, X = _pair_partition(code)
    if s == 2:
        bundle, residual_dims, tail_dim = degenerate_two_source(P), (n - code.m[1],), None
    else:
        bundle, residual_dims, tail_dim = _canonical_bundle(code, P, X)
    if (1 << bundle.M) != hamming_source_size(s, n):
        raise DecompositionInvalidError("the reduced bundle must be perfect")
    # a perfect code's coding matrices are surjective: null dims n - m_i
    return bundle, ReduceReport(
        input_profile_dims=tuple(n - mi for mi in code.m),
        residual_dims=residual_dims,
        normalized_profile_dims=tuple(n - mi for mi in bundle.code.m),
        tail_intersection_dim=tail_dim,
        hamming_permutation=tuple(int(v) for v in np.argsort(_column_values(P))),
        output_rates=bundle.code.m,
        perfect=True,
    )


def _canonical_bundle(
    code: SwCode, P: BitMatrix, X: BitMatrix
) -> tuple[Bundle, tuple[int, ...], int]:
    """The canonical relaxed bundle of a perfect code's partition P = X K,
    s > 2, and the dims of the input's residuals and of the tail."""
    s, n = code.s, code.n
    Q = tuple(P.take_cols(i * n, (i + 1) * n) for i in range(s))
    # with the checks of _pair_partition, a zero sum makes P a partition
    if not sum(Q[1:], Q[0]).is_zero():
        raise DecompositionInvalidError("partition blocks do not sum to zero")
    XF = bits_matmul(X.to_array(), code.plan._F)
    offsets = list(itertools.accumulate(code.m, initial=0))
    blocks = zip(offsets, offsets[1:], code.matrices)
    keys = np.hstack([bits_matmul(XF[:, a:b], H.to_array()) for a, b, H in blocks])
    wrong = np.flatnonzero((keys != P.to_array()).any(axis=0))
    if wrong.size:
        raise DecompositionInvalidError(f"block {wrong[0] // n} must inherit null space")
    C, E, D = zip(*(row_basis_and_transforms(Qi) for Qi in Q))
    Y = row_basis(vstack(C[: s - 1]))
    split = (0,) * (s - 1) + (n - Y.rows,)
    bundle = assemble(Q, C, split, None, pivots=_leading_bits(Y.data), Y=Y, E=E, D=D)
    return bundle, tuple(mi - Ci.rows for mi, Ci in zip(code.m, C[: s - 1])), split[-1]
