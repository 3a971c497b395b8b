"""Generalized construction: row-basis relaxation of the completion step.

Replacing each partition block Q_i by a row basis matrix C_i, and the
stacked [Q_1; ...; Q_{s-1}] by a row basis Y completed to an invertible
[Y; T], yields coding matrices [G_i; C_i] that still compress the Hamming
sources; syndromes determine Q_i x_i through the stored transforms.  This
covers cases where the direct construction's completion height would be
negative, such as three length-1 sources.

The bundle type and its assembly are those of :mod:`swhamming.hcms`, and
the decoder is every code's (:func:`swhamming.codec.decoder`); this module
holds the relaxed form's entry points.  A chosen C_i or T goes to
:func:`swhamming.hcms.assemble`.
"""

from __future__ import annotations

from typing import Sequence

from .gf2 import BitMatrix, distinct_nonzero_columns, row_basis_and_transforms
from .hcms import Bundle, assemble, hcms_decode, validate_partition

GhcmsBundle = Bundle
ghcms_decode = hcms_decode


def ghcms_build(Q: Sequence[BitMatrix], g_split: Sequence[int] | None = None) -> Bundle:
    """Validate a sum-zero partition and assemble its relaxed bundle: C_i
    the canonical row bases of the Q_i, Y that of the (s-1)-stack, and T
    its standard completion, split by g_split."""
    Q = tuple(Q)
    validate_partition(Q)
    C, E, D = zip(*(row_basis_and_transforms(Qi) for Qi in Q))
    return assemble(Q, C, g_split, None, E=E, D=D)


def degenerate_two_source(H: BitMatrix) -> Bundle:
    """The s = 2 normal form: both partition blocks equal a column-distinct
    surjective H, so the blocks sum to zero without any stacked Hamming
    matrix existing.  Terminal 1 absorbs the whole completion, making its
    coding matrix invertible."""
    if not distinct_nonzero_columns(H):
        raise ValueError("columns must be nonzero and pairwise distinct")
    C, E, D = row_basis_and_transforms(H)
    if C.rows != H.rows:
        raise ValueError("H must be full row rank")
    return assemble((H, H), (C, C), (H.cols - H.rows, 0), None, E=(E, E), D=(D, D))
