"""Bundle files: the plain code format plus labelled matrix sections.

A plain code file is ``s n``, then ``m_1 ... m_s``, then the s coding
matrices in the shared text format.  Construction bundles append labelled
sections (a bare label line, then a matrix): ``P``, ``Q_i``, ``T``,
``G_i``, ``R`` for the direct construction, plus ``C_i``, ``Y``, ``D_i``,
``E_i`` for the relaxed one.  Loading is structural; semantic checks
(partition validity, perfectness) belong to ``verify``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .codec import SwCode, format_code, parse_code
from .errors import MalformedFileError, RNotInvertibleError
from .gf2 import (
    BitMatrix,
    format_matrix,
    invert,
    parse_matrix,
    row_basis_transforms,
    vstack,
)
from .ghcms import GhcmsBundle
from .hcms import HcmsBundle
from .sources import is_perfect_params
from .errors import SingularMatrixError

_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass
class ParsedFile:
    kind: str  # "code" | "hcms" | "ghcms"
    code: SwCode
    sections: dict[str, BitMatrix]


def _sections(bundle: HcmsBundle | GhcmsBundle):
    """(label, matrix) of each section, in file order."""
    yield "P", bundle.P
    yield from ((f"Q_{i}", Qi) for i, Qi in enumerate(bundle.Q, 1))
    yield "T", bundle.T
    yield from ((f"G_{i}", Gi) for i, Gi in enumerate(bundle.G, 1))
    yield "R", bundle.R
    if isinstance(bundle, GhcmsBundle):
        yield from ((f"C_{i}", Ci) for i, Ci in enumerate(bundle.C, 1))
        yield "Y", bundle.Y
        yield from ((f"D_{i}", Di) for i, Di in enumerate(bundle.D, 1))
        yield from ((f"E_{i}", Ei) for i, Ei in enumerate(bundle.E, 1))


def _bundle_text(bundle: HcmsBundle | GhcmsBundle):
    """The bundle file in pieces: the plain code, then a label line and a
    matrix per section."""
    yield format_code(bundle.code)
    for label, M in _sections(bundle):
        yield label + "\n"
        yield format_matrix(M)


def write_bundle(path: str | Path, bundle: HcmsBundle | GhcmsBundle) -> None:
    # piece by piece, so at most one matrix's text is held at a time
    with open(path, "w") as fh:
        fh.writelines(_bundle_text(bundle))


def write_code_file(path: str | Path, code: SwCode) -> None:
    Path(path).write_text(format_code(code))


def parse_file(text: str) -> ParsedFile:
    lines = iter(text.splitlines())
    del text  # the lines hold the file's text from here on
    code = parse_code(lines)
    sections: dict[str, BitMatrix] = {}
    for line in lines:
        label = line.strip()
        if not label:
            continue
        if not _LABEL_RE.match(label):
            raise MalformedFileError(f"expected a section label, got {label!r}")
        if label in sections:
            raise MalformedFileError(f"duplicate section {label!r}")
        sections[label] = parse_matrix(lines)
    if not sections:
        kind = "code"
    elif "C_1" in sections:
        kind = "ghcms"
    else:
        kind = "hcms"
    return ParsedFile(kind=kind, code=code, sections=sections)


def read_file(path: str | Path) -> ParsedFile:
    # a byte that is not UTF-8 becomes U+FFFD, which no matrix row, header or
    # label accepts, so it is reported as MALFORMED_FILE
    return parse_file(Path(path).read_text(errors="replace"))


def _section(parsed: ParsedFile, name: str) -> BitMatrix:
    try:
        return parsed.sections[name]
    except KeyError:
        raise MalformedFileError(f"missing section {name!r}")


def build_hcms(parsed: ParsedFile) -> HcmsBundle:
    code = parsed.code
    s, n = code.s, code.n
    Q = tuple(_section(parsed, f"Q_{i}") for i in range(1, s + 1))
    P = _section(parsed, "P")
    T = _section(parsed, "T")
    G = tuple(_section(parsed, f"G_{i}") for i in range(1, s + 1))
    R = _section(parsed, "R")
    mn = Q[0].rows
    if P.rows != mn or P.cols != s * n or R.rows != n or R.cols != n:
        raise MalformedFileError("section dimensions are inconsistent")
    try:
        R_inv = invert(R)
    except SingularMatrixError as exc:
        raise RNotInvertibleError("stored R is singular") from exc
    return HcmsBundle(
        s=s, n=n, M=n + mn, P=P, Q=Q, T=T, G=G, R=R, R_inv=R_inv,
        code=code,
    )


def build_ghcms(parsed: ParsedFile) -> GhcmsBundle:
    code = parsed.code
    s, n = code.s, code.n
    Q = tuple(_section(parsed, f"Q_{i}") for i in range(1, s + 1))
    P = _section(parsed, "P")
    T = _section(parsed, "T")
    G = tuple(_section(parsed, f"G_{i}") for i in range(1, s + 1))
    R = _section(parsed, "R")
    C = tuple(_section(parsed, f"C_{i}") for i in range(1, s + 1))
    Y = _section(parsed, "Y")
    D = tuple(_section(parsed, f"D_{i}") for i in range(1, s + 1))
    E = tuple(_section(parsed, f"E_{i}") for i in range(1, s + 1))
    try:
        R_inv = invert(R)
    except SingularMatrixError as exc:
        raise RNotInvertibleError("stored R is singular") from exc
    stack = vstack(Q[: s - 1])
    try:
        E_Y, D_Y = row_basis_transforms(stack, Y)
    except ValueError as exc:
        raise MalformedFileError(f"Y section is not a row basis of the stack: {exc}")
    M = sum(code.m)
    return GhcmsBundle(
        s=s, n=n, M=M, P=P, Q=Q, C=C, Y=Y, T=T, G=G, R=R, R_inv=R_inv,
        E=E, D=D, E_Y=E_Y, D_Y=D_Y, code=code,
        perfect=is_perfect_params(s, n, M),
    )


def load_bundle(path: str | Path) -> HcmsBundle | GhcmsBundle:
    parsed = read_file(path)
    if parsed.kind == "hcms":
        return build_hcms(parsed)
    if parsed.kind == "ghcms":
        return build_ghcms(parsed)
    raise MalformedFileError("file has no construction sections; use the table decoder")
