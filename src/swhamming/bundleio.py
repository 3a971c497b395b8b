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

Both forms are read as bytes (:func:`read_file`).
Lines end in LF, CRLF or a lone CR, as in group files; the other
characters that ``str.splitlines`` breaks at (``\\v``, ``\\f``,
``\\x1c``-``\\x1e``, U+0085, U+2028, U+2029) are whitespace here.  Header
and label lines are few: each is decoded as UTF-8 (a bad byte becomes
U+FFFD, which no header or label accepts) and read by the ``str`` rules
of ``split``, ``int`` and ``strip``.  A matrix is a ``rows cols`` header
line, then ``rows`` lines each of exactly ``cols`` ASCII ``0``/``1``
once the whitespace that ``str.strip`` removes is stripped; its body is
checked and packed with whole-array operations over the one line scan
of :func:`sources.scan_lines`, and nothing is allocated for it before
every row has passed.  A matrix is at most ``MAX_COLS`` columns wide and
a code's n at most ``MAX_N``, whatever the rows.  A refusal is
MALFORMED_FILE naming the file line (``line 12: section R: bad matrix row
4: '0110...' (85 characters)``).
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import nwords
from .codec import DEFAULT_SEARCH_BUDGET, SwCode, format_code
from .errors import MalformedFileError
from .gf2 import BitMatrix, format_matrix, hstack, vstack
from .hcms import Bundle
from .sources import scan_lines

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


#: the widest matrix a file may declare, 2^20 columns (the default of
#: HCMS_BUDGET), and the largest n, whose n x n GF(2) matrices (the null
#: space ``verify`` builds for the witness of a rank-deficient code) hold at
#: most 2^20 words; both are checked before anything is allocated for them
MAX_COLS = DEFAULT_SEARCH_BUDGET
MAX_N = math.isqrt(64 * MAX_COLS)

#: characters of a bad row that an error message shows
_ECHO_CHARS = 16


def _echo(row: str) -> str:
    """A bad row as an error message shows it: its first _ECHO_CHARS
    characters, then its length."""
    shown = row if len(row) <= _ECHO_CHARS else row[:_ECHO_CHARS] + "..."
    return f"{shown!r} ({len(row)} characters)"


class _Lines:
    """The lines of a file, scanned once, and a cursor over them.

    ``data`` is a line end and then the file's bytes; a line end is
    appended when the file does not end with one.
    """

    def __init__(self, data: bytearray):
        if not data.endswith((b"\n", b"\r")):
            data.append(ord("\n"))
        self.data = data
        pos, ends, gap, score, bits = scan_lines(np.frombuffer(data, dtype=np.uint8))
        self.count = score.size
        self.at = 0  # the next line
        # line k is data[edge[k] + 1 : edge[k + 1]]
        self.edge = pos[ends].tolist()
        # a blank line has width 0, one run of bits between whitespace its
        # number of bits, any other line -1
        self.width = np.where(score <= 1, bits, -1)
        # where the run of bits of each line of one run starts
        runs = gap.nonzero()[0]
        self.start = np.zeros(self.count, dtype=np.intp)
        self.start[ends.searchsorted(runs, side="right") - 1] = pos[runs] + 1

    def line(self, k: int) -> str:
        """Line k, decoded."""
        return self.data[self.edge[k] + 1 : self.edge[k + 1]].decode(errors="replace")

    def take(self) -> str:
        """The next line, decoded; EOFError past the last line."""
        if self.at == self.count:
            raise EOFError
        self.at += 1
        return self.line(self.at - 1)

    def error(self, k: int, message: str) -> MalformedFileError:
        return MalformedFileError(f"line {k + 1}: {message}")

    def matrix(self, where: str = "") -> BitMatrix:
        """The matrix at the cursor, a "rows cols" header line and ``rows``
        body lines; ``where`` starts the message of a refusal."""
        k = self.at
        try:
            header = self.take().split()
            rows, cols = int(header[0]), int(header[1])
        except (EOFError, IndexError, ValueError):
            raise self.error(k, f"{where}expected 'rows cols' header") from None
        if not (0 <= rows <= sys.maxsize and 0 <= cols <= sys.maxsize):
            raise self.error(k, f"{where}matrix dimensions {rows} x {cols} out of range")
        first = self.at
        got = min(rows, self.count - first)
        self.at += got
        bad = (self.width[first : first + got] != cols).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            row = _echo(self.line(first + i).strip())
            raise self.error(first + i, f"{where}bad matrix row {i}: {row}")
        if got < rows:
            raise self.error(first + got, f"{where}matrix body ended after {got} of {rows} rows")
        # a row bounds the width by the file's length; zero rows do not
        if cols > MAX_COLS:
            raise self.error(k, f"{where}matrix dimensions {rows} x {cols} out of range")
        if not rows or not cols:
            return BitMatrix.zeros(rows, cols)
        # each row is one run of ``cols`` bits: gather the runs, keep the
        # low bit of each byte, and pack
        windows = np.ndarray((len(self.data) - cols + 1, cols), np.uint8, self.data, strides=(1, 1))
        bits = windows[self.start[first : first + rows]]
        bits &= 1
        packed = np.packbits(bits, axis=1, bitorder="little")
        words = np.zeros((rows, 8 * nwords(cols)), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        return BitMatrix(rows, cols, words.view(np.uint64))


def _parse_code(lines: _Lines) -> SwCode:
    """The plain code at the start of a file."""
    k = 0  # the line read
    try:
        s, n = (int(t) for t in lines.take().split())
        k = 1
        m = tuple(int(t) for t in lines.take().split())
    except (EOFError, ValueError):
        raise lines.error(k, "expected 's n' and 'm_1 ... m_s' header lines") from None
    if s < 2 or n < 1:
        raise lines.error(0, f"code header 's n' is '{s} {n}': need s >= 2 and n >= 1")
    if len(m) != s:
        raise lines.error(1, f"expected {s} syndrome lengths, got {len(m)}")
    if n > MAX_N:
        raise lines.error(0, f"code header 's n' is '{s} {n}': need n <= {MAX_N}")
    mats = []
    for mi in m:
        k = lines.at
        H = lines.matrix()
        if H.rows != mi or H.cols != n:
            raise lines.error(k, f"matrix {H.rows}x{H.cols} disagrees with header ({mi}x{n})")
        mats.append(H)
    return SwCode(tuple(mats))


def _parse(data: bytearray) -> ParsedFile:
    """Parse a line end followed by the bytes of a code or bundle file."""
    lines = _Lines(data)
    code = _parse_code(lines)
    sections: dict[str, BitMatrix] = {}
    while lines.at < lines.count:
        k = lines.at
        label = lines.take().strip()
        if not label:
            continue
        if not _LABEL_RE.match(label):
            raise lines.error(k, f"expected a section label, got {label!r}")
        if label in sections:
            raise lines.error(k, f"duplicate section {label!r}")
        sections[label] = lines.matrix(f"section {label}: ")
    if not sections:
        kind = "code"
    elif "C_1" in sections:
        kind = "ghcms"
    else:
        kind = "hcms"
    return ParsedFile(kind=kind, code=code, sections=sections)


def read_file(path: str | Path) -> ParsedFile:
    with open(path, "rb") as fh:
        # read straight into the buffer after its leading line end; a
        # stream that is not a regular file is read by the last read
        data = bytearray(1 + os.fstat(fh.fileno()).st_size)
        data[0] = ord("\n")
        with memoryview(data)[1:] as view:
            got = fh.readinto(view)
        del data[1 + got :]
        data += fh.read()
    return _parse(data)


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
    bundle = Bundle(P=P, Q=Q, T=T, G=G, R=R, code=code, **relaxed_fields)
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
