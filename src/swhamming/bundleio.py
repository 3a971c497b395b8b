"""Bundle files: the plain code format, marked, plus labelled matrix sections.

A plain code file is ``s n``, then ``m_1 ... m_s``, then the s coding
matrices in the shared text format.  Labelled sections follow it, each a
bare label line and then a matrix.  Of the sections a bundle has, it
chooses only E_i, Y and D_i, in the relaxed form; the code fixes the
others (``P``, ``Q_i``, ``T``, ``G_i``, ``R``, and in the relaxed form
``C_i``), which :class:`Bundle` derives.  So :func:`write_bundle` writes a
first line ``bundle direct`` or ``bundle relaxed``, the plain code, and,
in the relaxed form, ``Y``, ``D_i`` and ``E_i``.  The marker tells a
direct bundle, which chooses nothing, from a plain code file: ``verify``
reads a bundle's plan off its sections and judges a plain code by
elimination.

The reader also takes full files without a marker, which carry every
section: such a file is relaxed when it has any of E_i, D_i or Y, and
must have every section of its form.  A marked file has its form from
the marker.  It is refused (MALFORMED_FILE, naming the file line) when
the marker's form word is neither ``direct`` nor ``relaxed``, when a
``bundle direct`` file has a Y, E_i or D_i section, and when a ``bundle
relaxed`` file lacks one of Y, D_i and E_i.  It may carry derived
sections too, which are then checked as in a full file.

:func:`build_bundle` loads either form into one :class:`Bundle`.  It
checks the shapes of the chosen sections (E_i with d_i <= m_i columns and
as many rows as E_1, D_i d_i x that, Y making R n x n) or, in the direct
form, that 1 <= M - n <= m_i.  It then compares each derived section the
file has with the one the bundle derives: first G_i and C_i (Q_i in the
direct form), read off coding matrix i, whose mismatch is ``coding matrix
i is not [G_i; C_i]``; then, in the relaxed form, Q_i = E_i C_i, whose
mismatch names E_i; then the rest in file order, each mismatch naming the
equation it breaks.  Last come D_i Q_i = C_i, Y a row basis of the stack
(both MALFORMED_FILE) and R invertible (R_NOT_INVERTIBLE otherwise), and
then that the file has no section its form lacks (MALFORMED_FILE,
``section 'Zed' is not part of a direct bundle``).  The checked bundle is
attached to its code, whose plan is then read off the sections when they
certify the code (:meth:`codec.CodePlan.from_bundle`).  Properties of the
construction itself (partition validity, perfectness) belong to
``verify``.

Every file is read as bytes (:func:`read_file`).
Lines end in LF, CRLF or a lone CR, as in group files; the other
characters that ``str.splitlines`` breaks at (``\\v``, ``\\f``,
``\\x1c``-``\\x1e``, U+0085, U+2028, U+2029) are whitespace here.  Marker,
header and label lines are few: each is decoded as UTF-8 (a bad byte
becomes U+FFFD, which none of them accepts) and read by the ``str``
rules of ``split``, ``int`` and ``strip``.  A matrix is a ``rows cols`` header
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
from .gf2 import BitMatrix, format_matrix
from .hcms import Bundle
from .sources import scan_lines

_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass
class ParsedFile:
    kind: str  # "code" | "hcms" | "ghcms"
    code: SwCode
    sections: dict[str, BitMatrix]
    # the file starts with a form marker: it needs only its chosen sections
    marked: bool = False


#: a marker's form word -> the kind of its file
_FORMS = {"direct": "hcms", "relaxed": "ghcms"}


def _labels(s: int, relaxed: bool) -> tuple[list[str], list[str]]:
    """The labels of the sections a bundle's code fixes and of those it
    chooses, each in file order; a full file has the first, then the
    second."""
    def indexed(name):
        return [f"{name}_{i}" for i in range(1, s + 1)]

    fixed = ["P", *indexed("Q"), "T", *indexed("G"), "R"]
    if not relaxed:
        return fixed, []
    return fixed + indexed("C"), ["Y", *indexed("D"), *indexed("E")]


def _matrix(bundle: Bundle, label: str) -> BitMatrix:
    """The section ``label`` of ``bundle``: the field or derived section
    of that name, indexed from 1 after an underscore."""
    name, _, i = label.partition("_")
    M = getattr(bundle, name)
    return M[int(i) - 1] if i else M


def write_bundle(path: str | Path, bundle: Bundle) -> None:
    """The marker of the bundle's form, its code, then a label line and a
    matrix per chosen section."""
    relaxed = bundle.E is not None
    with open(path, "w") as fh:
        fh.write(f"bundle {'relaxed' if relaxed else 'direct'}\n")
        fh.write(format_code(bundle.code))
        for label in _labels(bundle.s, relaxed)[1]:
            fh.write(label + "\n")
            fh.write(format_matrix(_matrix(bundle, label)))


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


def _marker(lines: _Lines) -> str | None:
    """The form that a bundle file's first line names, the cursor then
    past it; None when the file starts with its code."""
    words = lines.line(0).split() if lines.count else []
    if not words or words[0] != "bundle":
        return None
    lines.at = 1
    if len(words) != 2 or words[1] not in _FORMS:
        got = _echo(lines.line(0).strip())
        raise lines.error(0, f"expected 'bundle direct' or 'bundle relaxed', got {got}")
    return words[1]


def _parse_code(lines: _Lines) -> SwCode:
    """The plain code at the cursor."""
    top = k = lines.at  # the line read
    try:
        s, n = (int(t) for t in lines.take().split())
        k = top + 1
        m = tuple(int(t) for t in lines.take().split())
    except (EOFError, ValueError):
        raise lines.error(k, "expected 's n' and 'm_1 ... m_s' header lines") from None
    if s < 2 or n < 1:
        raise lines.error(top, f"code header 's n' is '{s} {n}': need s >= 2 and n >= 1")
    if len(m) != s:
        raise lines.error(top + 1, f"expected {s} syndrome lengths, got {len(m)}")
    if n > MAX_N:
        raise lines.error(top, f"code header 's n' is '{s} {n}': need n <= {MAX_N}")
    mats = []
    for mi in m:
        k = lines.at
        H = lines.matrix()
        if H.rows != mi or H.cols != n:
            raise lines.error(k, f"matrix {H.rows}x{H.cols} disagrees with header ({mi}x{n})")
        mats.append(H)
    return SwCode(tuple(mats))


def _is_chosen(label: str) -> bool:
    return label == "Y" or label[:2] in ("E_", "D_")


def _parse(data: bytearray) -> ParsedFile:
    """Parse a line end followed by the bytes of a code or bundle file."""
    lines = _Lines(data)
    form = _marker(lines)
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
        if form == "direct" and _is_chosen(label):
            raise lines.error(k, f"section {label!r} is not part of a direct bundle")
        sections[label] = lines.matrix(f"section {label}: ")
    if form is None:
        relaxed = any(_is_chosen(label) for label in sections)
        kind = "ghcms" if relaxed else "hcms" if sections else "code"
        return ParsedFile(kind=kind, code=code, sections=sections)
    if form == "relaxed":
        for label in _labels(code.s, True)[1]:
            if label not in sections:
                raise lines.error(0, f"missing section {label!r} of a relaxed bundle")
    return ParsedFile(kind=_FORMS[form], code=code, sections=sections, marked=True)


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


#: the refusal when a section differs from the one the bundle derives, by
#: label without its index; "G" for every section read off a coding matrix
_MISMATCH = {
    "G": "coding matrix {i} is not [G_{i}; C_{i}]",
    "P": "section P is not [Q_1 ... Q_s]",
    "Q": "section E_{i}: E_{i} C_{i} is not Q_{i}",
    "T": "sections G_1 ... G_s do not split T",
    "R": "section R is not [Y; T]",
}


def build_bundle(parsed: ParsedFile) -> Bundle:
    """The bundle of a parsed bundle file, in the form its marker names or,
    unmarked, relaxed when it has an ``E_i``, ``D_i`` or ``Y`` section, once
    the sections it has are those the bundle derives (see the module
    docstring)."""
    code = parsed.code
    s, n, m = code.s, code.n, code.m
    chosen = {}
    if parsed.kind == "ghcms":
        E, D = (tuple(_section(parsed, f"{name}_{i}") for i in range(1, s + 1)) for name in "ED")
        Y = _section(parsed, "Y")
        # shapes first, so that the sections derived from these are defined
        for i, (Ei, Di, mi) in enumerate(zip(E, D, m), 1):
            _expect(f"E_{i}", Ei, E[0].rows, min(Ei.cols, mi))
            _expect(f"D_{i}", Di, Ei.cols, E[0].rows)
        _expect("Y", Y, n - sum(m) + sum(Ei.cols for Ei in E), n)
        chosen = dict(E=E, Y=Y, D=D)
    elif not 0 < sum(m) - n <= min(m):
        raise MalformedFileError(f"M - n is {sum(m) - n}: the direct form needs 1 <= M - n <= m_i")
    bundle = Bundle(code, **chosen)
    # the sections read straight off the coding matrices first, so that a
    # damaged coding matrix is named as such, not as a section it feeds,
    # then Q_i = E_i C_i, so that a damaged E_i is named, not P; a marked
    # file is compared only on the sections it has
    off_code = ("G", "C" if chosen else "Q")
    fixed, picked = _labels(s, bool(chosen))
    for label in sorted(fixed, key=lambda label: (label[0] not in off_code, label[0] != "Q")):
        if parsed.marked and label not in parsed.sections:
            continue
        if _section(parsed, label) != _matrix(bundle, label):
            name = "G" if label[0] in off_code else label[0]
            raise MalformedFileError(_MISMATCH[name].format(i=label[2:]))
    if chosen:
        for i, (Qi, Ci, Di) in enumerate(zip(bundle.Q, bundle.C, D), 1):
            if Di @ Qi != Ci:
                raise MalformedFileError(f"section D_{i}: D_{i} Q_{i} is not C_{i}")
        try:
            bundle.W  # kept for the plan's top
        except ValueError as exc:
            raise MalformedFileError(f"Y section is not a row basis of the stack: {exc}")
    bundle.R_inv  # raises RNotInvertible when [Y; T] is singular
    known = {*fixed, *picked}
    for label in parsed.sections:
        if label not in known:
            form = "relaxed" if chosen else "direct"
            raise MalformedFileError(f"section {label!r} is not part of a {form} bundle")
    code.attach(bundle)
    return bundle


build_hcms = build_bundle
