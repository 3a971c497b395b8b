"""Bundle files: the plain code format plus labelled matrix sections.

A plain code file is ``s n``, then ``m_1 ... m_s``, then the s coding
matrices in the shared text format.  A bundle file appends labelled
sections (a bare label line, then a matrix): ``P``, ``Q_i``, ``T``,
``G_i``, ``R``, and for a relaxed bundle (``C`` set) also ``C_i``, ``Y``,
``D_i``, ``E_i``.  Whether those sections are written depends only on
whether the bundle has them, never on their values.

:func:`build_bundle` loads either form into one :class:`Bundle`, relaxed
when the file has ``C_1``, and checks the sections against each other:
their shapes first, then P = [Q_1 ... Q_s] (Q_1 for s = 2), R = [Y; T]
(Y the stack [Q_1; ...; Q_(s-1)] in the direct form), T = [G_1; ...;
G_s], each coding matrix = [G_i; C_i] (C_i = Q_i in the direct form), and
in the relaxed form E_i C_i = Q_i and D_i Q_i = C_i.  A failed check is
MALFORMED_FILE naming the section.  Last, R must be invertible
(R_NOT_INVERTIBLE otherwise).  The checked bundle is attached to its code,
whose plan is then read off the sections when they certify the code
(:meth:`codec.CodePlan.from_bundle`).  Properties of the construction
itself (partition validity, perfectness) belong to ``verify``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .codec import SwCode, format_code, parse_code
from .errors import MalformedFileError
from .gf2 import (
    BitMatrix,
    format_matrix,
    hstack,
    parse_matrix,
    vstack,
)
from .hcms import Bundle

_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass
class ParsedFile:
    kind: str  # "code" | "hcms" | "ghcms"
    code: SwCode
    sections: dict[str, BitMatrix]


def _sections(bundle: Bundle):
    """(label, matrix) of each section, in file order."""
    yield "P", bundle.P
    yield from ((f"Q_{i}", Qi) for i, Qi in enumerate(bundle.Q, 1))
    yield "T", bundle.T
    yield from ((f"G_{i}", Gi) for i, Gi in enumerate(bundle.G, 1))
    yield "R", bundle.R
    if bundle.C is not None:
        yield from ((f"C_{i}", Ci) for i, Ci in enumerate(bundle.C, 1))
        yield "Y", bundle.Y
        yield from ((f"D_{i}", Di) for i, Di in enumerate(bundle.D, 1))
        yield from ((f"E_{i}", Ei) for i, Ei in enumerate(bundle.E, 1))


def _bundle_text(bundle: Bundle):
    """The bundle file in pieces: the plain code, then a label line and a
    matrix per section."""
    yield format_code(bundle.code)
    for label, M in _sections(bundle):
        yield label + "\n"
        yield format_matrix(M)


def write_bundle(path: str | Path, bundle: Bundle) -> None:
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
        try:
            sections[label] = parse_matrix(lines)
        except MalformedFileError as exc:
            raise MalformedFileError(f"section {label}: {exc}") from None
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


def _expect(label: str, M: BitMatrix, rows: int, cols: int) -> None:
    if (M.rows, M.cols) != (rows, cols):
        raise MalformedFileError(
            f"section {label} is {M.rows}x{M.cols}, expected {rows}x{cols}"
        )


def build_bundle(parsed: ParsedFile) -> Bundle:
    """The bundle of a parsed file, relaxed when it has a ``C_1`` section,
    after checking that its sections agree (see the module docstring)."""
    code = parsed.code
    s, n = code.s, code.n

    def each(name: str) -> tuple[BitMatrix, ...]:
        return tuple(_section(parsed, f"{name}_{i}") for i in range(1, s + 1))

    Q, G = each("Q"), each("G")
    P, T, R = (_section(parsed, name) for name in ("P", "T", "R"))
    relaxed = parsed.kind == "ghcms"
    if relaxed:
        C, D, E = each("C"), each("D"), each("E")
        Y = _section(parsed, "Y")
    else:
        C = Q

    # shapes first, so that the stacks and products below are defined
    mn = Q[0].rows
    if mn == 0:
        raise MalformedFileError("section Q_1 has no rows")
    for i, Qi in enumerate(Q, 1):
        _expect(f"Q_{i}", Qi, mn, n)
    _expect("P", P, mn, s * n if s > 2 else n)
    _expect("R", R, n, n)
    if relaxed:
        _expect("Y", Y, Y.rows, n)
        for i, (Ci, Di, Ei) in enumerate(zip(C, D, E), 1):
            _expect(f"C_{i}", Ci, Ci.rows, n)
            _expect(f"D_{i}", Di, Ci.rows, mn)
            _expect(f"E_{i}", Ei, mn, Ci.rows)
    _expect("T", T, n - (Y.rows if relaxed else (s - 1) * mn), n)
    for i, (Gi, Ci, H) in enumerate(zip(G, C, code.matrices), 1):
        _expect(f"G_{i}", Gi, H.rows - Ci.rows, n)

    stack = vstack(Q[: s - 1])
    if P != (hstack(Q) if s > 2 else Q[0]):
        raise MalformedFileError("section P is not [Q_1 ... Q_s]")
    if R != vstack([Y if relaxed else stack, T]):
        raise MalformedFileError("section R is not [Y; T]")
    if vstack(G) != T:
        raise MalformedFileError("sections G_1 ... G_s do not split T")
    for i, (Gi, Ci, H) in enumerate(zip(G, C, code.matrices), 1):
        if H != vstack([Gi, Ci]):
            raise MalformedFileError(f"coding matrix {i} is not [G_{i}; C_{i}]")
    relaxed_fields = {}
    if relaxed:
        for i, (Qi, Ci, Di, Ei) in enumerate(zip(Q, C, D, E), 1):
            if Ei @ Ci != Qi:
                raise MalformedFileError(f"section E_{i}: E_{i} C_{i} is not Q_{i}")
            if Di @ Qi != Ci:
                raise MalformedFileError(f"section D_{i}: D_{i} Q_{i} is not C_{i}")
        relaxed_fields = dict(C=C, Y=Y, E=E, D=D)
    bundle = Bundle(
        s=s, n=n, M=sum(code.m), P=P, Q=Q, T=T, G=G, R=R, code=code, **relaxed_fields
    )
    if relaxed:
        try:
            bundle.W  # kept for the plan's top
        except ValueError as exc:
            raise MalformedFileError(f"Y section is not a row basis of the stack: {exc}")
    bundle.R_inv  # raises RNotInvertible when the stored R is singular
    code.attach(bundle)
    return bundle


build_hcms = build_bundle


def load_bundle(path: str | Path) -> Bundle:
    parsed = read_file(path)
    if parsed.kind == "code":
        raise MalformedFileError("file has no construction sections: it is a plain code file")
    return build_bundle(parsed)
