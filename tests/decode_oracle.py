"""Reference decoders that the tests compare ``codec.decoder`` against:
the exhaustive syndrome table, which enumerates S and so is for small
codes, and the per-key scan of a plan's deviation keys into a dict."""

from __future__ import annotations

import numpy as np

from swhamming import codec
from swhamming._kernels import bits_matmul
from swhamming.errors import BudgetExceededError, NotCompressibleError, NotInImageError
from swhamming.sources import enumerate_hamming_sources, hamming_source_size

DEFAULT_TABLE_BUDGET = 1 << 24


def _key(y: codec.SyndromeTuple) -> bytes:
    return b"".join(v.tobytes() for v in y)


class DecodeTable:
    """Syndrome table of a compressible code.

    Under the Hamming-source prior, the most probable explanation of a
    syndrome tuple is any member of S producing it; compressibility makes
    that member unique.
    """

    def __init__(self, code: codec.SwCode, budget: int = DEFAULT_TABLE_BUDGET):
        size = hamming_source_size(code.s, code.n)
        if size > budget:
            raise BudgetExceededError(f"|S| = {size} exceeds decode-table budget {budget}")
        self.code = code
        table = {}
        for x in enumerate_hamming_sources(code.s, code.n, budget=budget):
            key = _key(codec.encode(code, x))
            if key in table:
                raise NotCompressibleError("code is not compressible; table is ambiguous")
            table[key] = x
        self._table = table

    def decode(self, y: codec.SyndromeTuple):
        if len(y) != self.code.s or any(v.n != mi for v, mi in zip(y, self.code.m)):
            raise ValueError("syndrome tuple does not match code dimensions")
        try:
            return self._table[_key(y)]
        except KeyError:
            raise NotInImageError("syndrome tuple is not produced by any member of S")


def reference_keys(key_matrix, s: int, n: int):
    """The collision and the key -> deviation dict of a plan's keys, found
    one key at a time: each key packed to bytes and met against a dict of
    the keys before it, up to the first collision (the zero key maps to s
    n once the scan ends without one)."""
    deviation: dict[bytes, int] = {}
    keys = np.packbits(key_matrix.T, axis=1)
    zero_key = bytes(keys.shape[1])
    for j, row in enumerate(keys):
        i, p = divmod(j, n)
        key = row.tobytes()
        if key == zero_key:
            return (i, p, None, None), deviation
        j0 = deviation.setdefault(key, j)
        if j0 == j:
            continue
        i0, p0 = divmod(j0, n)
        if s == 2 and i0 != i and p0 == p:
            # one member of S, not a collision
            continue
        return (i0, p0, i, p), deviation
    deviation[zero_key] = s * n
    return None, deviation


def reference_decode(plan: codec.CodePlan, deviation: dict[bytes, int], parts):
    """Decode a chunk as ``plan.decode_batch`` does, its keys looked up in
    ``deviation`` (see :func:`reference_keys`) with one ``dict.get`` per
    tuple."""
    y = np.concatenate(parts, axis=1)
    Ft, top_t, corr, _ = plan._tables
    s, n = plan.s, plan.n
    keys = np.packbits(bits_matmul(y, Ft), axis=1)
    raw, width = keys.tobytes(), keys.shape[1]
    cols = np.array(
        [deviation.get(raw[k : k + width], -1) for k in range(0, len(raw), width)],
        dtype=np.int64,
    )
    if (cols < 0).any():
        raise NotInImageError(
            f"tuple {int(np.argmax(cols < 0))} of the chunk: syndrome tuple is not "
            "produced by any member of S"
        )
    x = np.repeat(bits_matmul(y ^ corr[cols], top_t)[:, None, :], s, axis=1)
    dev = np.nonzero(cols < s * n)[0]
    term, pos = np.divmod(cols[dev], n)
    x[dev, term, pos] ^= 1
    return [x[:, i] for i in range(s)]
