"""Word-packed GF(2) kernels in numpy.

Matrices are stored row-major as ``uint64`` words, 64 bits per word,
bit ``j`` of a row living at ``data[j >> 6] >> (j & 63) & 1``.  Bits at
or beyond the logical column count must be zero.  Row reduction runs in
two phases: :func:`echelon_in_place` (forward elimination), then
:func:`back_substitute` only where a reduced form is read.  Both cost a
handful of numpy calls per pivot, on views that skip the words left of
the pivot's, and both give Gauss-Jordan's pivots and rows bit for bit.
``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import numpy as np

U64_1 = np.uint64(1)
_BIT = tuple(np.uint64(1 << i) for i in range(64))  # bit i of a word
_FOLD_SHIFTS = (32, 16, 8, 4, 2, 1)


def nwords(cols: int) -> int:
    """Number of uint64 words needed for ``cols`` bits."""
    return (cols + 63) >> 6


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) uint8 0/1 array into (rows, nwords(cols)) uint64."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    rows, cols = bits.shape
    words = nwords(cols)
    if rows == 0 or words == 0:
        return np.zeros((rows, words), dtype=np.uint64)
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :cols] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack_bits(data: np.ndarray, cols: int) -> np.ndarray:
    """Unpack (rows, words) uint64 back into a (rows, cols) uint8 0/1 array."""
    rows = data.shape[0]
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    flat = np.unpackbits(
        np.ascontiguousarray(data).view(np.uint8), axis=1, bitorder="little"
    )
    return flat[:, :cols]


def bits_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product of unpacked 0/1 arrays: (rows x k) times (k x cols),
    returned as uint8 0/1.

    The product runs in float32, whose integer sums stay exact while
    k < 2^24, so the low bit of each sum is the GF(2) value.
    """
    if a.shape[1] >= 1 << 24:
        raise ValueError(f"inner dimension {a.shape[1]} is beyond exact float32 sums")
    prod = a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False)
    return (prod.astype(np.int32) & 1).astype(np.uint8)


def sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable sort of the rows of a 2-D uint8 array, at least one byte
    wide (numpy has no zero-width void items), each viewed as one
    ``np.void`` item.  numpy compares, sorts and searches these byte by
    byte, so big-endian packed bit rows order as the integers they spell.
    Returns the items in order, the permutation ``order`` that sorts them,
    and ``start``, True where an item differs from the one before it.  Each
    run of equal items begins at a True, where, the sort being stable,
    ``order`` holds the least index of the run's rows."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    items = rows.view(np.dtype((np.void, rows.shape[1])))[:, 0]
    order = np.argsort(items, kind="stable")
    items = items[order]
    start = np.ones(len(items), dtype=bool)
    start[1:] = items[1:] != items[:-1]
    return items, order, start


def get_backend() -> str:
    """Name of the kernel implementation, for benchmark environment records."""
    return "numpy"


def echelon_in_place(data: np.ndarray, n_pivot_cols: int) -> np.ndarray:
    """Reduce ``data`` to row echelon form in place, searching pivots in the
    first ``n_pivot_cols`` bit columns only.  Returns the pivot column
    indices; row i of the result leads at pivot i, and the rows from
    ``len(pivots)`` down are zero in the pivot columns.

    At column c (word w) with r pivots found, the rows from r down are zero
    in every column before c, so each step works on the view
    ``data[r:, w:]`` and never reads the words before w.  A column with no
    bit from row r down costs one OR of its word column, which jumps to the
    next column with a bit or to the next word.  Each pivot row is XORed
    only into the rows below it: Gauss-Jordan's extra XORs go only into
    rows above the pivot, which are never read again as pivots or as
    sources for the rows below.  So the pivot choices, the swaps and every
    row from ``len(pivots)`` down equal Gauss-Jordan's bit for bit, and
    :func:`back_substitute` then gives its whole result.
    """
    rows, end = data.shape[0], min(n_pivot_cols, data.shape[1] << 6)
    pivots, r, c = [], 0, 0
    while c < end and r < rows:
        w = c >> 6
        block = data[r:, w:]
        hits = (block[:, 0] & _BIT[c & 63]).nonzero()[0]
        if not hits.size:
            # bits before c are zero from row r down: jump to the lowest set one
            word = int(np.bitwise_or.reduce(block[:, 0]))
            c = (w << 6) + (word & -word).bit_length() - 1 if word else (w + 1) << 6
            continue
        h = hits[0]
        if h:
            # row r lacks the bit, so the rows in hits[1:] keep their places
            lead = block[0].copy()
            block[0], block[h] = block[h], lead
        if hits.size > 1:
            block[hits[1:]] ^= block[0]
        pivots.append(c)
        r += 1
        c += 1
    return np.array(pivots, dtype=np.int64)


def back_substitute(data: np.ndarray, pivots: np.ndarray) -> None:
    """Turn the echelon form from :func:`echelon_in_place` into RREF in
    place: clear each pivot column above its row, last pivot first, so
    each pivot row is final when it is XORed upwards.  Pivot row r leads
    at column c of word w, so it is zero before w and each step works on
    the view ``data[:r + 1, w:]``.  Only rows above ``len(pivots)``
    change, and the result is Gauss-Jordan's bit for bit."""
    cols = pivots.tolist()
    for r in range(len(cols) - 1, 0, -1):
        c = cols[r]
        block = data[: r + 1, c >> 6 :]
        hits = (block[:r, 0] & _BIT[c & 63]).nonzero()[0]
        if hits.size:
            block[hits] ^= block[r]


def rref_in_place(data: np.ndarray, n_pivot_cols: int) -> np.ndarray:
    """Reduce ``data`` to RREF in place, searching pivots in the first
    ``n_pivot_cols`` bit columns only.  Returns the pivot column indices."""
    pivots = echelon_in_place(data, n_pivot_cols)
    back_substitute(data, pivots)
    return pivots


def matmul_packed(a_data: np.ndarray, a_cols: int, b_data: np.ndarray, b_cols: int) -> np.ndarray:
    """GF(2) product of packed A (rows x a_cols) and packed B (a_cols x b_cols)."""
    return pack_bits(bits_matmul(unpack_bits(a_data, a_cols), unpack_bits(b_data, b_cols)))


def matvec_packed(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """GF(2) matrix-vector product; result packed over ``rows`` bits.

    Each row's AND with ``x`` is XOR-reduced across words, then folded to
    its parity bit within the word."""
    rows = data.shape[0]
    if rows == 0 or data.shape[1] == 0:
        return np.zeros(nwords(rows), dtype=np.uint64)
    t = np.bitwise_xor.reduce(data & x[None, :], axis=1)
    for sh in _FOLD_SHIFTS:
        t ^= t >> np.uint64(sh)
    return pack_bits((t & U64_1).astype(np.uint8)[None, :])[0]
