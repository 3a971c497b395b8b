"""The Hamming-source correlation model and its exact counting arithmetic.

An s-terminal Hamming source of length n is a tuple of s blocks that agree
at every time instance except possibly one, where exactly one terminal
deviates.  The set S of all such tuples has size (s'n + 1) * 2^n with
s' = s for s > 2 and s' = 1 for s = 2 (for two terminals the deviating
side is not identifiable, so deviations are counted once).

Group files, the input of ``encode`` and ``decode``, hold one group of s
lines per tuple, line i exactly widths[i] characters over {0,1}.  Lines
end in LF, CRLF or a lone CR, the last line end optional.  Either end of
a line may carry any whitespace that ``str.strip`` removes from the file
read as UTF-8, non-ASCII spaces such as U+00A0 included; a line of only
whitespace is blank, and runs of blank lines separate groups.  Any other
byte, a blank inside a line, a wrong width or a wrong number of lines is
a :class:`MalformedFileError` naming the line.  :func:`iter_bit_chunks`
reads such a file in blocks of one chunk's bytes in the layout the CLI
writes and parses each block with whole-array operations; on an error it
has yielded exactly the chunks wholly before the chunk of the first
malformed group, as a per-chunk check would.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._kernels import pack_bits
from .errors import BadArgumentError, BudgetExceededError, MalformedFileError
from .gf2 import BitVector, _int_to_vec

SourceTuple = tuple[BitVector, ...]

DEFAULT_ENUM_BUDGET = 1 << 26


def env_budget(default: int) -> int:
    """Budget override from HCMS_BUDGET, else the given default."""
    raw = os.environ.get("HCMS_BUDGET", "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        raise BadArgumentError(f"HCMS_BUDGET must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SourceParams:
    """Code-side parameters: terminal count, block length, syndrome lengths."""

    s: int
    n: int
    m: tuple[int, ...]

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("at least two terminals required")
        if self.n < 1:
            raise ValueError("block length must be positive")
        if len(self.m) != self.s:
            raise ValueError("one syndrome length per terminal required")
        if any(mi < 0 for mi in self.m):
            raise ValueError("syndrome lengths must be nonnegative")

    @property
    def M(self) -> int:
        return sum(self.m)

    def rates(self) -> tuple[float, ...]:
        return tuple(mi / self.n for mi in self.m)


def effective_s(s: int) -> int:
    """s' in the size formula: s for s > 2, 1 for s = 2."""
    return s if s > 2 else 1


def hamming_source_size(s: int, n: int) -> int:
    """|S| = (s'n + 1) * 2^n.  Python integers make overflow impossible."""
    if s < 2 or n < 1:
        raise BadArgumentError(f"need s >= 2 and n >= 1, got s = {s}, n = {n}")
    return (effective_s(s) * n + 1) << n


def is_hamming_member(x: Sequence[BitVector]) -> bool:
    """Membership test for S: at most one discrepant instance, and there a
    single terminal deviating from all others."""
    s = len(x)
    if s < 2:
        return False
    n = x[0].n
    if any(v.n != n for v in x):
        return False
    base = x[0].words
    diff = np.zeros_like(base)
    for v in x[1:]:
        diff |= base ^ v.words
    w = int(np.bitwise_count(diff).sum())
    if w == 0:
        return True
    if w > 1:
        return False
    # exactly one discrepant column: count terminals carrying each bit value
    p = _single_bit_position(diff)
    ones = sum(v.bit(p) for v in x)
    return ones == 1 or ones == s - 1


def _single_bit_position(words: np.ndarray) -> int:
    for k, wd in enumerate(words):
        if wd:
            return (k << 6) + int(wd & (~wd + np.uint64(1))).bit_length() - 1
    raise ValueError("no bit set")


def decompose(x: Sequence[BitVector]) -> tuple[BitVector, int | None, int | None]:
    """Split a member of S into (common block b, deviating terminal, position).

    All-equal tuples return (b, None, None).  For s = 2 the deviation is
    attributed to terminal 1 (0-based) by convention.
    """
    if not is_hamming_member(x):
        raise ValueError("tuple is not a Hamming source")
    s = len(x)
    base = x[0].words
    diff = np.zeros_like(base)
    for v in x[1:]:
        diff |= base ^ v.words
    if not diff.any():
        return x[0], None, None
    p = _single_bit_position(diff)
    if s == 2:
        term = 1
    else:
        ones = sum(v.bit(p) for v in x)
        minority = 1 if ones == 1 else 0
        term = next(i for i, v in enumerate(x) if v.bit(p) == minority)
    b = x[0] if term != 0 else x[1]
    return b, term, p


def member_at(s: int, n: int, index: int) -> SourceTuple:
    """The index-th member of S in enumeration order: the 2^n all-equal
    tuples first (b in ascending integer order, bit j of b at position j),
    then for each b, per terminal, per position, the single-deviation tuples.

    For s = 2 deviations are applied at terminal 1 only, matching s' = 1.
    """
    size = hamming_source_size(s, n)
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for |S| = {size}")
    if index < (1 << n):
        b = _int_to_vec(index, n)
        return tuple(b for _ in range(s))
    j = index - (1 << n)
    sp = effective_s(s)
    b_val, rem = divmod(j, sp * n)
    t, p = divmod(rem, n)
    if s == 2:
        t = 1
    b = _int_to_vec(b_val, n)
    e = BitVector.unit(n, p)
    return tuple(b + e if i == t else b for i in range(s))


def enumerate_hamming_sources(
    s: int, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[SourceTuple]:
    """Yield every member of S exactly once, in the member_at order."""
    size = hamming_source_size(s, n)
    if size > budget:
        raise BudgetExceededError(f"|S| = {size} exceeds enumeration budget {budget}")
    for index in range(size):
        yield member_at(s, n, index)


def random_member(s: int, n: int, rng: np.random.Generator) -> SourceTuple:
    """Uniform member of S: a uniform common block plus a uniform choice
    among the s'n + 1 deviation patterns (factorized so huge |S| is fine)."""
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    b = BitVector(n, pack_bits(bits[None, :])[0])
    pattern = int(rng.integers(effective_s(s) * n + 1))
    if pattern == 0:
        return tuple(b for _ in range(s))
    t, p = divmod(pattern - 1, n)
    if s == 2:
        t = 1
    e = BitVector.unit(n, p)
    return tuple(b + e if i == t else b for i in range(s))


# ---------------------------------------------------------------------------
# perfect-parameter arithmetic for three terminals
# ---------------------------------------------------------------------------


def is_perfect_params(s: int, n: int, M: int) -> bool:
    """Exact test of the packing equality 2^n (s'n + 1) = 2^M, which forms no
    power of two: s'n + 1 must be 2^(M - n)."""
    if s < 2 or n < 1:
        raise BadArgumentError(f"need s >= 2 and n >= 1, got s = {s}, n = {n}")
    q = effective_s(s) * n + 1
    return q & (q - 1) == 0 and M - n == q.bit_length() - 1


def perfect_params_for_a(a: int) -> tuple[int, int]:
    """The only (n, M) solving the s = 3 packing equality, parameterized by
    a = (M - n) / 2: n = (2^(2a) - 1) / 3 and M = n + 2a.  M is always
    divisible by 3; this is checked."""
    if a < 1:
        raise BadArgumentError(f"a must be positive, got {a}")
    q, r = divmod((1 << (2 * a)) - 1, 3)
    if r != 0:
        raise AssertionError("2^(2a) - 1 must be divisible by 3")
    n = q
    M = n + 2 * a
    if M % 3 != 0:
        raise AssertionError("M(a) must be divisible by 3")
    return n, M


#: Feasible (c, u, v, w) rows as functions of (n, M), under u >= v >= w.
_CUVW_ROWS = (
    (3, -2, -2, -2),
    (2, -1, -1, -2),
    (1, 0, -1, -1),
    (0, 0, 0, 0),
)


def feasible_cuvw(n: int, M: int) -> list[tuple[int, int, int, int]]:
    """Feasible null-space dimension splits (c, u, v, w) for s = 3, where c
    is the dimension of the freely reallocatable common part:
    3n - 2M <= c <= 3n - 2M + 3 and M - n - 2 <= u, v, w <= M - n,
    filtered to nonnegative entries."""
    base_c = 3 * n - 2 * M
    base_a = M - n
    rows = []
    for dc, du, dv, dw in _CUVW_ROWS:
        row = (base_c + dc, base_a + du, base_a + dv, base_a + dw)
        if all(v >= 0 for v in row):
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# tuple text format: s lines of n chars per tuple, blank line between tuples
# ---------------------------------------------------------------------------


def format_tuples(tuples: Sequence[SourceTuple]) -> str:
    groups = ["\n".join(v.to01() for v in t) for t in tuples]
    return "\n\n".join(groups) + "\n"


def iter_bit_groups(lines: Iterator[str] | Sequence[str]) -> Iterator[list[str]]:
    """Blank-line separated groups of 0/1 lines, streamed."""
    group: list[str] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            if group:
                yield group
                group = []
            continue
        if set(line) - {"0", "1"}:
            raise MalformedFileError(f"line is not over {{0,1}}: {line!r}")
        group.append(line)
    if group:
        yield group


def iter_tuples(lines) -> Iterator[SourceTuple]:
    """Parse source tuples one group at a time."""
    for group in iter_bit_groups(lines):
        if len({len(ln) for ln in group}) != 1:
            raise MalformedFileError("tuple lines have unequal lengths")
        yield tuple(BitVector.from_bits(int(c) for c in ln) for ln in group)


def parse_tuples(text: str) -> list[SourceTuple]:
    return list(iter_tuples(text.splitlines()))


# ---------------------------------------------------------------------------
# chunked group files: the same text format, CHUNK_TUPLES groups at a time
# ---------------------------------------------------------------------------

#: Groups per chunk in the streaming CLI commands; it bounds their memory.
CHUNK_TUPLES = 256

#: A byte's part of its line's score (see ``_parse_block``): 0 for the
#: ASCII characters that ``str.strip`` removes (CR and LF end lines; an LF
#: right after a CR is part of that line end), 2 for any other byte.
_NOT_SPACE = np.full(256, 2, dtype=np.int8)
_NOT_SPACE[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = 0
#: The non-ASCII characters that ``str.strip`` removes, whose UTF-8 bytes
#: score 0 as well: two-byte ones, then three-byte ones.
_WIDE_SPACE = (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_SPACE2 = np.array([int.from_bytes(chr(c).encode(), "big") for c in _WIDE_SPACE if c < 0x800])
_SPACE3 = np.array([int.from_bytes(chr(c).encode(), "big") for c in _WIDE_SPACE if c >= 0x800])


def iter_bit_chunks(fh, widths: Sequence[int]) -> Iterator[list[np.ndarray]]:
    """Parse a group file, opened in binary, into chunks of up to
    CHUNK_TUPLES groups of len(widths) lines (the format is in the module
    docstring).

    A chunk is one (N, widths[i]) uint8 0/1 array per line position, N =
    CHUNK_TUPLES for every chunk but the last.  The file is read in blocks
    of one chunk's bytes in the layout that :func:`format_chunk` writes.
    On a malformed group the chunks wholly before its chunk are yielded,
    then :class:`MalformedFileError` is raised.
    """
    chunk = CHUNK_TUPLES
    size = chunk * (sum(widths) + len(widths) + 1)
    tail = b"\n"  # the bytes not yet parsed, from the line end before them
    line_no = 0  # lines before ``tail``
    rows: list[np.ndarray] = []  # (groups, s, max width) bits not yet yielded
    held = 0
    while True:
        # a tail longer than a block (one very long line or group) is read
        # at twice its length, so the bytes copied stay linear in the file
        block = fh.read(max(size, len(tail)))
        final = not block
        bits, tail, lines, error = _parse_block(tail, block or b"\n", widths, final, line_no)
        line_no += lines
        if bits.shape[0]:
            rows.append(bits)
            held += bits.shape[0]
        if held >= chunk or (final and held):
            ready = np.concatenate(rows) if len(rows) > 1 else rows[0]
            stop = held if final and error is None else held - held % chunk
            for k in range(0, stop, chunk):
                yield [ready[k : k + chunk, i, :w] for i, w in enumerate(widths)]
            rows, held = [ready[stop:]], held - stop
        if error is not None:
            raise error
        if final:
            return


def _parse_block(tail: bytes, block: bytes, widths: Sequence[int], final: bool, line_no: int):
    """Parse the whole lines of ``tail + block``; ``tail`` starts with a
    line end.

    Returns the bits of the leading run of well-formed closed groups, as a
    (groups, s, max(widths)) 0/1 array whose row i of a group holds its
    line i in the first widths[i] columns; the bytes left unparsed, from
    the line end before them; the number of lines parsed; and the error of
    the first malformed group, or None.  A group still open at the end of
    the block is left unparsed unless ``final``, or unless a line of it
    already shows it malformed.
    """
    s, wide = len(widths), max(widths)
    size = len(tail) + len(block)
    # padded so that a window of ``wide`` bytes fits at every start
    data = b"".join((tail, block, bytes(wide)))
    text = np.frombuffer(data, dtype=np.uint8, count=size)
    pos = ((text & 0xFE) != 0x30).nonzero()[0]  # all but b"0" and b"1"
    val = text[pos]
    prev = text[pos - 1]
    prev[0] = 0  # pos[0] == 0 is a line end
    # a CR ends a line, and so does an LF unless it follows a CR
    ends = ((val == 13) | (val == 10) & (prev != 13)).nonzero()[0]
    # line k runs from line end k to line end k + 1; its score is 1 per
    # run of bits plus 2 per byte that is neither a bit nor whitespace, so
    # a blank line scores 0 and a well-formed one 1
    gap = pos[1:] - pos[:-1] > 1  # a run of bits follows pos[k]
    score = _NOT_SPACE[val]
    _clear_wide_space(score, pos, val)
    score[1:] += gap
    score = score.cumsum()[ends]
    score = score[1:] - score[:-1]
    bits = pos[ends] - ends
    bits = bits[1:] - bits[:-1]
    lines = score.size
    filled = score.nonzero()[0]
    count = filled.size
    at = np.arange(count) % s  # line of its group, while no group is malformed
    last = at == s - 1
    good = (score[filled] == 1) & (bits[filled] == np.array(widths)[at])
    # the lines of a group are adjacent, and a blank line follows its last
    good[:-1] &= (filled[1:] - filled[:-1] > 1) == last[:-1]
    open_group = not final and count and filled[-1] == lines - 1
    if count and not open_group:
        good[-1] &= last[-1]
    first_bad = int(good.argmin()) if count else 0
    error = None
    if count and not good[first_bad]:
        done = first_bad - at[first_bad]
        k, i = filled[first_bad], at[first_bad]
        error = _group_error(data, pos, ends, k, i, widths, score, bits, line_no)
    elif open_group:
        done = count - 1 - at[-1]
    else:
        done = count
    cut = filled[done] if done < count else lines
    starts = pos[gap.nonzero()[0][:done]] + 1
    windows = np.ndarray((size, wide), np.uint8, data, strides=(1, 1))
    out = windows[starts.reshape(-1, s)]
    out &= 1
    stop = pos[ends[cut]]
    return out, data[stop:size], cut, error


def _clear_wide_space(score: np.ndarray, pos: np.ndarray, val: np.ndarray) -> None:
    """Set to 0 the score of the bytes at ``pos`` that belong to two- and
    three-byte UTF-8 whitespace characters.  A lead byte is never a
    continuation byte, so such a sequence decodes to its character
    wherever it occurs."""
    lead = (val >= 0xC2).nonzero()[0]
    if not lead.size:
        return
    pos = np.append(pos, [-4, -4])
    val = np.append(val, [0, 0]).astype(np.int64)
    one = pos[lead + 1] == pos[lead] + 1
    two = one & (pos[lead + 2] == pos[lead] + 2)
    code2 = np.where(one, val[lead] << 8 | val[lead + 1], -1)
    code3 = np.where(two, code2 << 8 | val[lead + 2], -1)
    at2 = lead[np.isin(code2, _SPACE2)]
    at3 = lead[np.isin(code3, _SPACE3)]
    score[np.concatenate((at2, at2 + 1, at3, at3 + 1, at3 + 2))] = 0


def _group_error(data, pos, ends, k, i, widths, score, bits, line_no) -> MalformedFileError:
    """The error of line k of a block, the first bad line of the first
    malformed group, in which it is line i."""
    s = len(widths)
    if score[k] != 1:
        what = "is not over {0,1}"
    elif bits[k] != widths[i]:
        what = f"is not {widths[i]} bits, as line {i} of a group"
    elif i == s - 1:
        what = f"is line {s} of a group of more than {s} lines"
    else:
        what = f"ends a group of {i + 1} lines, expected {s}"
    line = data[pos[ends[k]] + 1 : pos[ends[k + 1]]].decode(errors="replace").strip()
    return MalformedFileError(f"line {line_no + k + 1} {what}: {line!r}")


def format_chunk(parts: Sequence[np.ndarray]) -> bytes:
    """Text of the groups in a chunk (one (N, width) 0/1 array per line
    position), each group preceded by the newline that separates it from
    the previous group."""
    count = parts[0].shape[0]
    newline = np.full((count, 1), ord("\n"), dtype=np.uint8)
    cols = [newline]
    for p in parts:
        cols += [p + np.uint8(ord("0")), newline]
    return np.concatenate(cols, axis=1).tobytes()
