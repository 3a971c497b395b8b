"""The Hamming-source correlation model and its exact counting arithmetic.

An s-terminal Hamming source of length n is a tuple of s blocks that agree
at every time instance except possibly one, where exactly one terminal
deviates.  The set S of all such tuples has size (s'n + 1) * 2^n with
s' = s for s > 2 and s' = 1 for s = 2 (for two terminals the deviating
side is not identifiable, so deviations are counted once).
:func:`random_members` samples S as arrays; :func:`random_member` is its
draw of one.

Group files, the input of ``encode`` and ``decode``, hold one group of s
lines per tuple, line i exactly widths[i] characters over {0,1}.  Lines
end in LF, CRLF or a lone CR, the last line end optional.  Either end of
a line may carry any whitespace that ``str.strip`` removes from the file
read as UTF-8, non-ASCII spaces such as U+00A0 included; a line of only
whitespace is blank, and runs of blank lines separate groups.  Any other
byte, a blank inside a line, a wrong width or a wrong number of lines is
a :class:`MalformedFileError` naming the line.  :func:`iter_bit_chunks`
reads such a file in chunks of a given number of groups, in blocks of one
chunk's bytes in the layout the CLI writes, and parses each block with
whole-array operations; on an error it has yielded exactly the chunks
wholly before the chunk of the first malformed group, as a per-chunk
check would; :func:`format_chunk` writes them.  ``encode`` and ``decode``
size their chunks with :func:`chunk_tuples`, by a budget of
:data:`CHUNK_BITS` bits over a tuple's source or syndrome width, whichever
is wider, so a chunk of short tuples still holds enough of them to pay for
the fixed numpy calls of each step.
:func:`iter_groups`, :func:`iter_tuples` and :func:`format_tuples` are
per-tuple views of these two, with no rules of their own.  The line
scanner, :func:`scan_lines`, also reads code and bundle files (``bundleio``).
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadArgumentError, BudgetExceededError, MalformedFileError
from .gf2 import BitVector

SourceTuple = tuple[BitVector, ...]

DEFAULT_ENUM_BUDGET = 1 << 26


def env_budget(default: int) -> int:
    """Budget override from HCMS_BUDGET, else the given default."""
    raw = os.environ.get("HCMS_BUDGET", "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        raise BadArgumentError(f"HCMS_BUDGET must be an integer, got {raw!r}") from None


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
    # the instances at which some block differs from the first, as bits
    diff = 0
    for v in x[1:]:
        diff |= x[0].value ^ v.value
    if not diff:
        return True
    if diff & (diff - 1):
        return False
    # exactly one discrepant column: count terminals carrying each bit value
    p = diff.bit_length() - 1
    ones = sum(v.bit(p) for v in x)
    return ones == 1 or ones == s - 1


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
        b = BitVector(n, index)
        return tuple(b for _ in range(s))
    j = index - (1 << n)
    sp = effective_s(s)
    b_val, rem = divmod(j, sp * n)
    t, p = divmod(rem, n)
    if s == 2:
        t = 1
    b = BitVector(n, b_val)
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


def random_members(s: int, n: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``count`` uniform members of S as one (count, n) 0/1 array per
    terminal: ``count`` uniform common blocks, then one of the s'n + 1
    deviation patterns per member (factorized so huge |S| is fine).
    Pattern 1 + t n + p flips bit p of terminal t, of terminal 1 for s = 2."""
    x = np.tile(rng.integers(0, 2, size=(count, n), dtype=np.uint8), s)
    pattern = rng.integers(effective_s(s) * n + 1, size=count)
    dev = pattern.nonzero()[0]
    # bit p of terminal t is column t n + p of the s blocks side by side
    x[dev, pattern[dev] - 1 + n * (s == 2)] ^= 1
    return [x[:, i * n : (i + 1) * n] for i in range(s)]


def random_member(s: int, n: int, rng: np.random.Generator) -> SourceTuple:
    """One uniform member of S: :func:`random_members` with count = 1."""
    return tuple(BitVector.from_bits(part[0]) for part in random_members(s, n, 1, rng))


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
# group files, a chunk of groups at a time, and per-tuple views of them
# ---------------------------------------------------------------------------

#: Bits of a tuple's wider side per chunk in the streaming CLI commands;
#: it bounds their memory.  2^18 bits are 1028 tuples at s n = 3 x 85 and
#: 256 at 3 x 341.
CHUNK_BITS = 1 << 18


def chunk_tuples(*widths: int) -> int:
    """Tuples per chunk for tuples whose sides are ``widths`` bits wide:
    :data:`CHUNK_BITS` over the widest, at least one.  ``encode`` and
    ``decode`` both pass a code's source width s n and syndrome width M,
    since each holds a chunk of both sides, and so read chunks of the same
    size; a perfect code has M < s n, so its source width decides."""
    return max(1, CHUNK_BITS // max(widths))


#: A byte's part of its line's score (see :func:`scan_lines`): 0 for the
#: ASCII characters that ``str.strip`` removes (CR and LF end lines; an LF
#: right after a CR is part of that line end), 2 for any other byte.
_NOT_SPACE = np.full(256, 2, dtype=np.int8)
_NOT_SPACE[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = 0
#: The non-ASCII characters that ``str.strip`` removes, whose UTF-8 bytes
#: score 0 as well: two-byte ones, then three-byte ones.
_WIDE_SPACE = (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
_SPACE2 = np.array([int.from_bytes(chr(c).encode(), "big") for c in _WIDE_SPACE if c < 0x800])
_SPACE3 = np.array([int.from_bytes(chr(c).encode(), "big") for c in _WIDE_SPACE if c >= 0x800])


def iter_bit_chunks(fh, widths: Sequence[int], chunk: int) -> Iterator[list[np.ndarray]]:
    """Parse a group file, opened in binary, into chunks of up to ``chunk``
    groups of len(widths) lines (the format is in the module docstring).

    A chunk is one (N, widths[i]) uint8 0/1 array per line position, N =
    ``chunk`` for every chunk but the last.  The file is read in blocks of
    one chunk's bytes in the layout that :func:`format_chunk` writes.  On a
    malformed group the chunks wholly before its chunk are yielded, then
    :class:`MalformedFileError` is raised.
    """
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
    pos, ends, gap, score, bits = scan_lines(np.frombuffer(data, dtype=np.uint8, count=size))
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


def format_tuples(tuples: Sequence[SourceTuple]) -> str:
    """The group file of ``tuples``, as :func:`format_chunk` writes it
    without its first line end; each line position has its own width."""
    if not tuples:
        return "\n"
    parts = [np.stack([v.to_array() for v in column]) for column in zip(*tuples)]
    return format_chunk(parts)[1:].decode()


def iter_groups(lines: Iterable[str], widths: Sequence[int]) -> Iterator[tuple[BitVector, ...]]:
    """The groups of a group file given as its lines without their line
    ends (as ``str.splitlines`` gives them), as tuples of BitVector:
    :func:`iter_bit_chunks` over the joined lines, with its refusals."""
    fh = io.BytesIO("\n".join(lines).encode())
    for parts in iter_bit_chunks(fh, widths, chunk_tuples(sum(widths))):
        yield from zip(*([BitVector.from_bits(row) for row in part] for part in parts))


def iter_tuples(lines: Iterable[str]) -> Iterator[SourceTuple]:
    """:func:`iter_groups` with the shape read off the first group: its
    line count s and the n bits of its first line, for every group."""
    lines = list(lines)
    data = np.frombuffer(("\n" + "\n".join(lines) + "\n").encode(), dtype=np.uint8)
    _, _, _, score, bits = scan_lines(data)
    filled = score.nonzero()[0]
    if filled.size:
        s = int((np.diff(filled, append=filled[-1] + 2) > 1).argmax()) + 1
        yield from iter_groups(lines, [int(bits[filled[0]])] * s)


# ---------------------------------------------------------------------------
# the one 0/1 line scanner: group files here, code and bundle files in bundleio
# ---------------------------------------------------------------------------


def scan_lines(text: np.ndarray):
    """Scan the lines of ``text``, a uint8 array of a file's bytes that
    starts with a line end, with whole-array operations.

    Line ends are LF, CRLF and a lone CR; line k runs from line end k to
    line end k + 1, so the bytes after the last line end belong to no line.
    Returns ``(pos, ends, gap, score, bits)``:
    - ``pos``, the positions of the bytes that are not ``0``/``1``;
    - ``ends``, the indices into ``pos`` of the line ends;
    - ``gap``, true at k when a run of bits follows ``pos[k]``;
    - ``score``, per line, 1 per run of bits plus 2 per byte that is
      neither a bit nor whitespace that ``str.strip`` removes (the UTF-8
      bytes of non-ASCII spaces included), so that a blank line scores 0
      and a line of one run of bits between whitespace scores 1;
    - ``bits``, per line, its number of ``0``/``1`` bytes.
    """
    pos = _not_bits(text)
    val = text[pos]
    prev = text[pos - 1]
    prev[0] = 0  # pos[0] == 0 is a line end
    # a CR ends a line, and so does an LF unless it follows a CR
    ends = ((val == 13) | (val == 10) & (prev != 13)).nonzero()[0]
    gap = pos[1:] - pos[:-1] > 1
    score = _NOT_SPACE[val]
    _clear_wide_space(score, pos, val)
    score[1:] += gap
    score = score.cumsum()[ends]
    score = score[1:] - score[:-1]
    bits = pos[ends] - ends
    bits = bits[1:] - bits[:-1]
    return pos, ends, gap, score, bits


#: bytes that :func:`_not_bits` tests in one step, so that its temporaries
#: are this size and not the file's: on a 7.3 MB file this is faster and
#: keeps two file-sized arrays out of peak memory
_SCAN_BLOCK = 1 << 18


def _not_bits(text: np.ndarray) -> np.ndarray:
    """The positions of the bytes of ``text`` that are not ``0``/``1``."""
    blocks = range(0, text.size, _SCAN_BLOCK)
    found = [((text[k : k + _SCAN_BLOCK] & 0xFE) != 0x30).nonzero()[0] + k for k in blocks]
    return np.concatenate(found)


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
