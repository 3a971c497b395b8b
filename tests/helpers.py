"""Small helpers the tests share: the decomposition of a member of S, the
byte parser of code and bundle files applied to one matrix, and the
shifted perfect codes that ``reduce`` is benchmarked on, a relaxed
bundle whose transforms are not identities, a CLI run that keeps only
its exit status and stderr, and the members of the span of a few ints,
the reference for ``codec``'s array spans."""

from __future__ import annotations

import contextlib
import io
from typing import Sequence

import numpy as np

from swhamming import bundleio, cli, equiv, gf2, hcms
from swhamming.codec import SwCode
from swhamming.gf2 import BitMatrix, BitVector
from swhamming.sources import is_hamming_member


def decompose(x: Sequence[BitVector]) -> tuple[BitVector, int | None, int | None]:
    """Split a member of S into (common block b, deviating terminal, position).

    All-equal tuples return (b, None, None).  For s = 2 the deviation is
    attributed to terminal 1 (0-based) by convention.
    """
    if not is_hamming_member(x):
        raise ValueError("tuple is not a Hamming source")
    s = len(x)
    diff = 0
    for v in x[1:]:
        diff |= x[0].value ^ v.value
    if not diff:
        return x[0], None, None
    p = diff.bit_length() - 1
    if s == 2:
        term = 1
    else:
        ones = sum(v.bit(p) for v in x)
        minority = 1 if ones == 1 else 0
        term = next(i for i, v in enumerate(x) if v.bit(p) == minority)
    b = x[0] if term != 0 else x[1]
    return b, term, p


def matrix_lines(data: bytes):
    """The lines of ``data`` as the byte parser of code and bundle files
    reads them, with its cursor at the first line."""
    return bundleio._Lines(bytearray(b"\n") + data)


def parse_matrix_bytes(data: bytes) -> BitMatrix:
    """The matrix at the start of ``data``, read by the byte parser of code
    and bundle files."""
    return matrix_lines(data).matrix()


def shifted(code: SwCode, rng: np.random.Generator) -> SwCode:
    """An equivalent perfect code, made as the benchmark's certify inputs
    are: a random half of the null space common to terminals 1..s-1 moved
    out of the last terminal's null space into terminal 0's."""
    prof = equiv.profile(code)
    common = prof[1]
    for N in prof[2:]:
        common = gf2.subspace_intersect(common, N)
    K = gf2.random_subspace_of(common, common.dim // 2, rng)
    return equiv.shift_null_space(code, K, 0, code.s - 1)


def relaxed_a3(rng: np.random.Generator):
    """The relaxed bundle of the a = 3 partition with row bases C_i = U_i
    Q_i for random invertible U_i, so that E_i = U_i^-1 and D_i = U_i are
    not identities."""
    Q = hcms.a3_partition()
    return hcms.assemble(Q, tuple(gf2.random_invertible(6, rng) @ Qi for Qi in Q), None, None)


def run_quiet(argv) -> tuple[int, str]:
    """The exit status and stderr of ``swhamming argv``, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def span_values(rows: list[int]) -> list[int]:
    """The members of the span of ``rows`` (bit j of an int is coordinate
    j), member k the sum of the rows at the set bits of k."""
    span = [0]
    for r in rows:
        span += [v ^ r for v in span]
    return span
