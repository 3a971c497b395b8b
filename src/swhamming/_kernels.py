"""Word-packed GF(2) kernels with a numba fast path and a pure-numpy fallback.

Matrices are stored row-major as ``uint64`` words, 64 bits per word,
bit ``j`` of a row living at ``data[j >> 6] >> (j & 63) & 1``.  Bits at
or beyond the logical column count must be zero.

The backend is chosen at import time from the ``HCMS_BACKEND`` environment
variable (``numba``, ``numpy``, or ``auto``; default ``auto`` prefers numba
when importable) and can be switched at runtime with :func:`set_backend`.
The two implementations are bit-for-bit interchangeable; the benchmark in
``benchmarks/bench_kernels.py`` compares them.
"""

from __future__ import annotations

import os

import numpy as np

U64_1 = np.uint64(1)
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


# ---------------------------------------------------------------------------
# pure-numpy backend
# ---------------------------------------------------------------------------


def _rref_np(data: np.ndarray, n_pivot_cols: int, pivots: np.ndarray) -> int:
    rows, words = data.shape
    r = 0
    npiv = 0
    for c in range(n_pivot_cols):
        if r >= rows:
            break
        w = c >> 6
        sh = np.uint64(c & 63)
        nz = np.nonzero((data[r:, w] >> sh) & U64_1)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        mask = ((data[:, w] >> sh) & U64_1).astype(bool)
        mask[r] = False
        if mask.any():
            data[mask, w:] ^= data[r, w:]
        pivots[npiv] = c
        npiv += 1
        r += 1
    return npiv


def _matmul_np(a_data: np.ndarray, a_cols: int, b_data: np.ndarray, out: np.ndarray) -> None:
    for j in range(a_cols):
        mask = ((a_data[:, j >> 6] >> np.uint64(j & 63)) & U64_1).astype(bool)
        if mask.any():
            out[mask] ^= b_data[j]


def _matvec_np(data: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    rows, words = data.shape
    if rows == 0 or words == 0:
        return
    t = np.bitwise_xor.reduce(data & x[None, :], axis=1)
    for sh in _FOLD_SHIFTS:
        t ^= t >> np.uint64(sh)
    bits = (t & U64_1).astype(np.uint8)
    packed = pack_bits(bits[None, :])[0]
    out |= packed


_NUMPY_IMPL = {"rref": _rref_np, "matmul": _matmul_np, "matvec": _matvec_np}

# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

try:
    from numba import njit

    _HAVE_NUMBA = True

    @njit(cache=True)
    def _rref_nb(data, n_pivot_cols, pivots):  # pragma: no cover - exercised via dispatch
        rows, words = data.shape
        r = 0
        npiv = 0
        for c in range(n_pivot_cols):
            if r >= rows:
                break
            w = c >> 6
            m = U64_1 << np.uint64(c & 63)
            piv = -1
            for i in range(r, rows):
                if data[i, w] & m:
                    piv = i
                    break
            if piv < 0:
                continue
            if piv != r:
                # rows at or below r are zero before word w
                for k in range(w, words):
                    tmp = data[r, k]
                    data[r, k] = data[piv, k]
                    data[piv, k] = tmp
            for i in range(rows):
                if i != r and (data[i, w] & m):
                    for k in range(w, words):
                        data[i, k] ^= data[r, k]
            pivots[npiv] = c
            npiv += 1
            r += 1
        return npiv

    @njit(cache=True)
    def _matmul_nb(a_data, a_cols, b_data, out):  # pragma: no cover
        ra = a_data.shape[0]
        wb = b_data.shape[1]
        for i in range(ra):
            for j in range(a_cols):
                if (a_data[i, j >> 6] >> np.uint64(j & 63)) & U64_1:
                    for k in range(wb):
                        out[i, k] ^= b_data[j, k]

    @njit(cache=True)
    def _matvec_nb(data, x, out):  # pragma: no cover
        rows, words = data.shape
        for i in range(rows):
            t = np.uint64(0)
            for k in range(words):
                t ^= data[i, k] & x[k]
            t ^= t >> np.uint64(32)
            t ^= t >> np.uint64(16)
            t ^= t >> np.uint64(8)
            t ^= t >> np.uint64(4)
            t ^= t >> np.uint64(2)
            t ^= t >> np.uint64(1)
            if t & U64_1:
                out[i >> 6] |= U64_1 << np.uint64(i & 63)

    _NUMBA_IMPL = {"rref": _rref_nb, "matmul": _matmul_nb, "matvec": _matvec_nb}

except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False
    _NUMBA_IMPL = None


_BACKENDS = {"numpy": _NUMPY_IMPL}
if _HAVE_NUMBA:
    _BACKENDS["numba"] = _NUMBA_IMPL

_active_name = "numpy"
_active = _NUMPY_IMPL


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend() -> str:
    return _active_name


def set_backend(name: str) -> None:
    """Select the kernel backend (``numba`` or ``numpy``)."""
    global _active_name, _active
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    _active_name = name
    _active = _BACKENDS[name]


def _init_backend() -> None:
    env = os.environ.get("HCMS_BACKEND", "auto").strip().lower()
    if env in ("", "auto"):
        set_backend("numba" if _HAVE_NUMBA else "numpy")
    else:
        set_backend(env)


# ---------------------------------------------------------------------------
# dispatching entry points
# ---------------------------------------------------------------------------


def rref_in_place(data: np.ndarray, n_pivot_cols: int) -> np.ndarray:
    """Reduce ``data`` to RREF in place, searching pivots in the first
    ``n_pivot_cols`` bit columns only.  Returns the pivot column indices."""
    rows = data.shape[0]
    pivots = np.empty(min(rows, n_pivot_cols), dtype=np.int64)
    if rows == 0 or n_pivot_cols == 0 or data.shape[1] == 0:
        return pivots[:0]
    npiv = _active["rref"](data, n_pivot_cols, pivots)
    return pivots[:npiv]


def matmul_packed(a_data: np.ndarray, a_cols: int, b_data: np.ndarray) -> np.ndarray:
    """GF(2) product of packed A (rows x a_cols) and packed B (a_cols rows)."""
    out = np.zeros((a_data.shape[0], b_data.shape[1]), dtype=np.uint64)
    if a_data.shape[0] and a_cols and b_data.shape[1]:
        _active["matmul"](a_data, a_cols, b_data, out)
    return out


def matvec_packed(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """GF(2) matrix-vector product; result packed over ``rows`` bits."""
    rows = data.shape[0]
    out = np.zeros(nwords(rows), dtype=np.uint64)
    if rows and data.shape[1]:
        _active["matvec"](data, x, out)
    return out


def warmup() -> None:
    """Force JIT compilation of the active backend on tiny inputs."""
    d = pack_bits(np.array([[1, 0], [1, 1]], dtype=np.uint8))
    rref_in_place(d.copy(), 2)
    matmul_packed(d, 2, d)
    matvec_packed(d, d[0].copy())


_init_backend()
