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


def format_hcms_bundle(bundle: HcmsBundle) -> str:
    parts = [format_code(bundle.code)]
    parts.append("P\n" + format_matrix(bundle.P))
    for i, Qi in enumerate(bundle.Q, 1):
        parts.append(f"Q_{i}\n" + format_matrix(Qi))
    parts.append("T\n" + format_matrix(bundle.T))
    for i, Gi in enumerate(bundle.G, 1):
        parts.append(f"G_{i}\n" + format_matrix(Gi))
    parts.append("R\n" + format_matrix(bundle.R))
    return "".join(parts)


def format_ghcms_bundle(bundle: GhcmsBundle) -> str:
    parts = [format_code(bundle.code)]
    parts.append("P\n" + format_matrix(bundle.P))
    for i, Qi in enumerate(bundle.Q, 1):
        parts.append(f"Q_{i}\n" + format_matrix(Qi))
    parts.append("T\n" + format_matrix(bundle.T))
    for i, Gi in enumerate(bundle.G, 1):
        parts.append(f"G_{i}\n" + format_matrix(Gi))
    parts.append("R\n" + format_matrix(bundle.R))
    for i, Ci in enumerate(bundle.C, 1):
        parts.append(f"C_{i}\n" + format_matrix(Ci))
    parts.append("Y\n" + format_matrix(bundle.Y))
    for i, Di in enumerate(bundle.D, 1):
        parts.append(f"D_{i}\n" + format_matrix(Di))
    for i, Ei in enumerate(bundle.E, 1):
        parts.append(f"E_{i}\n" + format_matrix(Ei))
    return "".join(parts)


def write_bundle(path: str | Path, bundle: HcmsBundle | GhcmsBundle) -> None:
    if isinstance(bundle, GhcmsBundle):
        text = format_ghcms_bundle(bundle)
    else:
        text = format_hcms_bundle(bundle)
    Path(path).write_text(text)


def write_code_file(path: str | Path, code: SwCode) -> None:
    Path(path).write_text(format_code(code))


def parse_file(text: str) -> ParsedFile:
    lines = text.splitlines()
    code = parse_code(iter(lines))
    consumed = 2 + sum(H.rows + 1 for H in code.matrices)
    sections: dict[str, BitMatrix] = {}
    i = consumed
    while i < len(lines):
        label = lines[i].strip()
        if not label:
            i += 1
            continue
        if not _LABEL_RE.match(label):
            raise MalformedFileError(f"expected a section label, got {label!r}")
        if label in sections:
            raise MalformedFileError(f"duplicate section {label!r}")
        M = parse_matrix(iter(lines[i + 1 :]))
        sections[label] = M
        i += 2 + M.rows
    if not sections:
        kind = "code"
    elif "C_1" in sections:
        kind = "ghcms"
    else:
        kind = "hcms"
    return ParsedFile(kind=kind, code=code, sections=sections)


def read_file(path: str | Path) -> ParsedFile:
    return parse_file(Path(path).read_text())


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
