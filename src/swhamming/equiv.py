"""Null-space equivalence machinery.

Whether a code compresses the Hamming sources depends only on the tuple of
its null spaces (its profile): the sumset criterion in :mod:`codec`
references nothing else.  Shifting a common subspace K between terminals'
null spaces preserves compressibility and perfectness, which induces the
equivalence relation under which every perfect code reduces to the
row-basis relaxed construction: read the sum-zero partition off the plan
that proves the code perfect (every equivalent code has the same one),
normalize the profile, and reassemble.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codec import SwCode, is_perfect, make_code
from .errors import DecompositionInvalidError, NotPerfectError
from .gf2 import (
    BitMatrix,
    Subspace,
    complement,
    distinct_nonzero_columns,
    matrix_with_null_space,
    null_space,
    row_basis,
    row_basis_and_transforms,
    row_basis_transforms,
    subspace_intersect,
    subspace_sum,
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
    """The s-tuple of null spaces; the invariant of the equivalence class."""
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
    return BitMatrix.identity(code.n), _pair_partition(code)


def _pair_partition(code: SwCode) -> BitMatrix:
    """The Hamming partition of a perfect code, and of every code
    equivalent to it (see :func:`reduce_with_report`): the canonical row
    basis of its plan's key matrix K = F J, J = diag(H_1, ..., H_s), or of
    K's first n columns for s = 2.  Its null space is N_1 + N_2 for a pair
    (K's blocks are equal, as they sum to F A = 0), and null X + null J
    for the pair (X, J) that :func:`lift_to_two_source` folds a code into:
    w is orthogonal to null X = {(v, ..., v)} iff its blocks sum to zero,
    w is in row J iff w = c J, and c J's blocks sum to c A, zero iff c is
    in row F.  It has M - n rows and nonzero, distinct columns."""
    plan = code.plan
    if not plan.compressible:
        raise NotPerfectError("code does not compress S; it has no Hamming partition")
    K = plan.key_matrix
    P = row_basis(BitMatrix.from_bits(K[:, : code.n] if code.s == 2 else K))
    rows = sum(code.m) - code.n
    if P.rows != rows:
        raise DecompositionInvalidError(f"partition has {P.rows} rows, not M - n = {rows}")
    if not distinct_nonzero_columns(P):
        raise DecompositionInvalidError("partition columns must be nonzero and distinct")
    return P


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
    return code_from_profile(_normalized(prof, residual_intersections(prof)))


def _normalized(prof: NullProfile, residuals: list[Subspace]) -> NullProfile:
    """The profile of :func:`normalize_profile`, from the input's profile
    and its residual intersections."""
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
    return new_prof


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
    residual_dims: tuple[int, ...]
    # the null dims of the output's code: for s > 2 those of
    # normalize_profile's code; for s = 2 their mirror, since terminal 1
    # takes the whole completion ((0, 4), not (4, 0), at n = 7)
    normalized_profile_dims: tuple[int, ...]
    tail_intersection_dim: int | None
    hamming_permutation: tuple[int, ...]
    output_rates: tuple[int, ...]
    perfect: bool


def reduce_to_ghcms(code: SwCode) -> Bundle:
    """Constructive universality: an equivalent relaxed bundle.  For s > 2
    its code has the normalized input's null profile, terminal by terminal;
    for s = 2 it is the degenerate two-source bundle of the input's
    partition, whose first coding matrix is invertible, so its null dims
    are the mirror of :func:`normalize_profile`'s."""
    bundle, _ = reduce_with_report(code)
    return bundle


def reduce_with_report(code: SwCode) -> tuple[Bundle, ReduceReport]:
    """The bundle of :func:`reduce_to_ghcms` and the trace of its making.

    The Hamming partition P is read off the input's plan, as normalization
    keeps it.  Its row space is the complement of V = {(v, ..., v)} + N_1 x
    ... x N_s.  Each R_i moved into terminal i lies in every other null
    space, so r at terminal i is (r, ..., r) plus r at each other terminal,
    in V.  So the normalized sum lies in V, and is V: both codes are
    perfect with the same M, so both sums have dimension s n - (M - n)."""
    s, n = code.s, code.n
    if not is_perfect(code):
        raise NotPerfectError("input code is not a perfect compression")
    P = _pair_partition(code)
    if s == 2:
        bundle, residual_dims, tail_dim = degenerate_two_source(P), (n - code.m[1],), None
    else:
        bundle, residual_dims, tail_dim = _reassemble(code, P)
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


def _reassemble(code: SwCode, P: BitMatrix) -> tuple[Bundle, tuple[int, ...], int]:
    """The relaxed bundle with partition P and the normalized profile of a
    perfect code, s > 2, and the dims of its residuals and of the tail."""
    s, n = code.s, code.n
    prof = profile(code)
    # the complement in N_(s-1) reads its basis; read first, it also meets
    # each other null space's check in the residuals, with canonical results
    prof[s - 1].basis
    residuals = residual_intersections(prof)
    norm_prof = _normalized(prof, residuals)
    tail = functools.reduce(subspace_intersect, norm_prof[: s - 1])
    # the tail's check is the canonical row basis Y of the stack of the
    # normalized checks, and so of [Q_1; ...; Q_(s-1)] once their null
    # spaces are checked below
    Y = tail.check
    # with the checks of _pair_partition, a zero sum makes P a partition
    Q = tuple(P.take_cols(i * n, (i + 1) * n) for i in range(s))
    if not sum(Q[1:], Q[0]).is_zero():
        raise DecompositionInvalidError("partition blocks do not sum to zero")
    # null(Q_j) = N'_j iff Q_j has the row space of N'_j's check, which is
    # then C_j, with E_j and D_j its transforms
    C, E, D = [], [], []
    for j in range(s - 1):
        C.append(norm_prof[j].check)
        try:
            Ej, Dj = row_basis_transforms(Q[j], C[j])
        except ValueError:
            raise DecompositionInvalidError(f"block {j} must inherit null space") from None
        E.append(Ej)
        D.append(Dj)
    for X, x in zip((C, E, D), row_basis_and_transforms(Q[s - 1])):
        X.append(x)
    # so the stack [Q_1; ...; Q_(s-1)] has null space the tail intersection.
    # The tail meets N_(s-1) in {0}, inside the all-but-one intersection
    # that normalization left trivial, so null(Q_(s-1)) = null(C_(s-1)) is
    # N_(s-1) + tail iff it holds both and has their dimensions' sum
    last = Subspace(n, check=C[s - 1])
    if not (
        last.contains_subspace(norm_prof[s - 1])
        and last.contains_subspace(tail)
        and last.dim == norm_prof[s - 1].dim + tail.dim
    ):
        raise DecompositionInvalidError(f"block {s - 1} must have null space N_{s - 1} + tail")

    A = complement(last, Subspace.full(n))
    T = matrix_with_null_space(subspace_sum(norm_prof[s - 1], A))
    g_split = (0,) * (s - 1) + (T.rows,)
    bundle = assemble(Q, C, g_split, T, Y=Y, E=E, D=D)

    # every coding matrix of a relaxed bundle has full row rank: [G_i; C_i]
    # with C_i a row basis, row(C_i) in row(Y) as the blocks sum to zero,
    # and the G_i rows of T, independent of row(Y) as R = [Y; T] is
    # invertible.  So null(H_i) = N'_i iff H_i annihilates N'_i and has
    # n - dim N'_i rows.
    for H, N in zip(bundle.code.matrices, norm_prof):
        if H.rows != n - N.dim or not Subspace(n, kernel_of=H).contains_subspace(N):
            raise DecompositionInvalidError("output profile must equal the normalized input's")
    return bundle, tuple(R.dim for R in residuals), tail.dim
