"""Exhaustive syndrome table: the reference decoder that the tests compare
``codec.decoder`` against.  It enumerates S, so it is for small codes."""

from __future__ import annotations

from swhamming import codec
from swhamming.errors import BudgetExceededError, NotCompressibleError, NotInImageError
from swhamming.sources import enumerate_hamming_sources, hamming_source_size

DEFAULT_TABLE_BUDGET = 1 << 24


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
            key = codec.syndrome_key(codec.encode(code, x))
            if key in table:
                raise NotCompressibleError("code is not compressible; table is ambiguous")
            table[key] = x
        self._table = table

    def decode(self, y: codec.SyndromeTuple):
        if len(y) != self.code.s or any(v.n != mi for v, mi in zip(y, self.code.m)):
            raise ValueError("syndrome tuple does not match code dimensions")
        try:
            return self._table[codec.syndrome_key(y)]
        except KeyError:
            raise NotInImageError("syndrome tuple is not produced by any member of S")
