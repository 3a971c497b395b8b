"""Generalized construction: row-basis relaxation of the completion step.

Replacing each partition block Q_i by a row basis matrix C_i, and the
stacked [Q_1; ...; Q_{s-1}] by a row basis Y completed to an invertible
[Y; T], yields coding matrices [G_i; C_i] that still compress the Hamming
sources; syndromes determine Q_i x_i through the stored transforms.  This
covers cases where the direct construction's completion height would be
negative, such as three length-1 sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .codec import SwCode, SyndromeTuple, make_code
from .errors import BadArgumentError
from .gf2 import (
    BitMatrix,
    BitVector,
    hstack,
    invert,
    row_basis,
    row_basis_transforms,
    rref,
    vstack,
)
from .hcms import DecodePlan, default_g_split, validate_partition
from .sources import SourceTuple, is_perfect_params


@dataclass(frozen=True)
class GhcmsBundle:
    """Construction witness for the row-basis relaxed code.

    E_i and D_i satisfy Q_i = E_i C_i and C_i = D_i Q_i; E_Y and D_Y play
    the same roles between the stacked [Q_1; ...; Q_(s-1)] and Y.  For
    s = 2 only the degenerate form with Q_1 = Q_2 exists (see
    equiv.reduce_to_ghcms); then P is that common block rather than a
    stacked Hamming matrix.
    """

    s: int
    n: int
    M: int
    P: BitMatrix
    Q: tuple[BitMatrix, ...]
    C: tuple[BitMatrix, ...]
    Y: BitMatrix
    T: BitMatrix
    G: tuple[BitMatrix, ...]
    R: BitMatrix
    R_inv: BitMatrix
    E: tuple[BitMatrix, ...]
    D: tuple[BitMatrix, ...]
    E_Y: BitMatrix
    D_Y: BitMatrix
    code: SwCode
    perfect: bool

    @property
    def g_split(self) -> tuple[int, ...]:
        return tuple(Gi.rows for Gi in self.G)

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(Ci.rows for Ci in self.C)

    @cached_property
    def plan(self) -> DecodePlan:
        """The decoder, built on first use and kept with the bundle."""
        return DecodePlan(
            self.code, self.g_split, hstack(self.Q), self.R_inv, E=self.E, D_Y=self.D_Y
        )

    def locate_column(self, sigma: BitVector) -> int:
        """Index of the column of [Q_1 ... Q_s] equal to sigma."""
        return self.plan.locate(sigma)


def standard_completion(Y: BitMatrix) -> BitMatrix:
    """Rows e_c at the non-pivot columns of Y; [Y; T] is then invertible."""
    _, pivots = rref(Y)
    if len(pivots) != Y.rows:
        raise ValueError("Y must be full row rank")
    n = Y.cols
    non_pivots = [c for c in range(n) if c not in set(pivots)]
    bits = np.zeros((len(non_pivots), n), dtype=np.uint8)
    for i, c in enumerate(non_pivots):
        bits[i, c] = 1
    return BitMatrix.from_bits(bits)


def ghcms_build(
    Q: Sequence[BitMatrix],
    C_choices: Sequence[BitMatrix] | None = None,
    g_split: Sequence[int] | None = None,
    T: BitMatrix | None = None,
) -> GhcmsBundle:
    """Assemble and validate the relaxed bundle from a sum-zero partition.

    C_i default to the canonical row bases (nonzero rows of rref(Q_i)); Y
    is the canonical row basis of the (s-1)-stack; T defaults to the
    standard-basis completion.  The perfect flag records whether the total
    rate meets the packing equality.
    """
    Q = tuple(Q)
    s = len(Q)
    validate_partition(Q)
    return _assemble(Q, C_choices, g_split, T)


def _assemble(
    Q: tuple[BitMatrix, ...],
    C_choices: Sequence[BitMatrix] | None,
    g_split: Sequence[int] | None,
    T: BitMatrix | None,
) -> GhcmsBundle:
    s = len(Q)
    n = Q[0].cols
    if C_choices is None:
        C = tuple(row_basis(Qi) for Qi in Q)
    else:
        C = tuple(C_choices)
    transforms = [row_basis_transforms(Qi, Ci) for Qi, Ci in zip(Q, C)]
    E = tuple(t[0] for t in transforms)
    D = tuple(t[1] for t in transforms)

    stack = vstack(Q[: s - 1])
    Y = row_basis(stack)
    E_Y, D_Y = row_basis_transforms(stack, Y)
    if T is None:
        T = standard_completion(Y)
    if T.rows != n - Y.rows or T.cols != n:
        raise ValueError(f"T must be {n - Y.rows}x{n}, got {T.rows}x{T.cols}")
    R = vstack([Y, T])
    R_inv = invert(R)

    if g_split is None:
        g_split = default_g_split(T.rows, s)
    g_split = tuple(int(g) for g in g_split)
    if len(g_split) != s or any(g < 0 for g in g_split) or sum(g_split) != T.rows:
        raise BadArgumentError(f"row split {g_split} does not partition {T.rows} rows")
    G = []
    off = 0
    for g in g_split:
        G.append(T.take_rows(off, off + g))
        off += g
    mats = tuple(vstack([Gi, Ci]) for Gi, Ci in zip(G, C))
    code = make_code(mats)
    M = sum(code.m)
    P = hstack(Q) if s > 2 else Q[0]
    return GhcmsBundle(
        s=s,
        n=n,
        M=M,
        P=P,
        Q=Q,
        C=C,
        Y=Y,
        T=T,
        G=tuple(G),
        R=R,
        R_inv=R_inv,
        E=E,
        D=D,
        E_Y=E_Y,
        D_Y=D_Y,
        code=code,
        perfect=is_perfect_params(s, n, M),
    )


def degenerate_two_source(
    H: BitMatrix, g_split: Sequence[int] | None = None
) -> GhcmsBundle:
    """The s = 2 normal form: both partition blocks equal a column-distinct
    surjective H, so the blocks sum to zero without any stacked Hamming
    matrix existing.  Terminal 1 absorbs the whole completion by default,
    making its coding matrix invertible."""
    cols = {H.column_bytes(j) for j in range(H.cols)}
    if len(cols) != H.cols or bytes(H.rows) in cols:
        raise ValueError("columns must be nonzero and pairwise distinct")
    if row_basis(H).rows != H.rows:
        raise ValueError("H must be full row rank")
    if g_split is None:
        g_split = (H.cols - H.rows, 0)
    return _assemble((H, H), None, g_split, None)


def ghcms_decode(bundle: GhcmsBundle, y: SyndromeTuple) -> SourceTuple:
    """Algebraic decode of one syndrome tuple through the stored row-basis
    transforms, by the bundle's :class:`DecodePlan`."""
    return bundle.plan.decode(y)
