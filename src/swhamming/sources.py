"""The Hamming-source correlation model and its exact counting arithmetic.

An s-terminal Hamming source of length n is a tuple of s blocks that agree
at every time instance except possibly one, where exactly one terminal
deviates.  The set S of all such tuples has size (s'n + 1) * 2^n with
s' = s for s > 2 and s' = 1 for s = 2 (for two terminals the deviating
side is not identifiable, so deviations are counted once).
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


def iter_bit_chunks(lines, widths: Sequence[int]) -> Iterator[list[np.ndarray]]:
    """Parse a group file into chunks of up to CHUNK_TUPLES groups.

    Each group must have one line per entry of ``widths``, line i holding
    exactly widths[i] characters over {0,1}; lines are stripped and runs
    of blank lines separate groups, as in :func:`iter_bit_groups`.  A
    chunk is one (N, widths[i]) uint8 0/1 array per line position.
    """
    s = len(widths)
    full = CHUNK_TUPLES * s
    buf: list[str] = []  # lines of complete groups
    open_lines = 0  # lines of the group being read
    for raw in lines:
        line = raw.strip()
        if line:
            buf.append(line)
            open_lines += 1
            continue
        if open_lines:
            _check_group_size(open_lines, s)
            open_lines = 0
            if len(buf) == full:
                yield _chunk_arrays(buf, widths)
                buf = []
    if open_lines:
        _check_group_size(open_lines, s)
    if buf:
        yield _chunk_arrays(buf, widths)


def _check_group_size(count: int, s: int) -> None:
    if count != s:
        raise MalformedFileError(f"group of {count} lines, expected {s}")


def _chunk_arrays(buf: list[str], widths: Sequence[int]) -> list[np.ndarray]:
    s = len(widths)
    parts = []
    for i, w in enumerate(widths):
        rows = buf[i::s]
        if set(map(len, rows)) != {w}:
            bad = next(r for r in rows if len(r) != w)
            raise MalformedFileError(f"line {i} of a group is not {w} bits: {bad!r}")
        # a non-ASCII character becomes '?' and fails the 0/1 check below
        arr = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
        arr = (arr - ord("0")).reshape(len(rows), w)
        bad_rows = np.nonzero((arr > 1).any(axis=1))[0]
        if bad_rows.size:
            raise MalformedFileError(f"line is not over {{0,1}}: {rows[bad_rows[0]]!r}")
        parts.append(arr)
    return parts


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
