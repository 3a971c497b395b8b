"""A fixed kernel that times the host, not the program.

The benchmark's host is a small VM whose speed drifts: for tens of seconds
at a time every command runs up to 1.6-1.9x slower, whatever the code,
and a run of under a minute can sit wholly inside such a stretch, so no
statistic of raw pass times is steady from one run to the next.  The
kernel below never calls the program and never changes, so its time moves
only with the host.  Dividing each pass's command times by the kernel's
time beside it gives times in units of the kernel, which a change to the
program moves and the host's drift does not.

The kernel does the two kinds of work the program does: row reduction of
a packed GF(2) matrix with numpy word operations, and a loop of Python
integer operations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROWS, WORDS = 256, 8  # a 256 x 512 bit matrix
PY_INTS, PY_ROUNDS = 2000, 5
REPEATS = 3


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.integers(0, 2**63, size=(ROWS, WORDS), dtype=np.uint64)
        self.ints = [int(v) for v in rng.integers(0, 2**62, size=PY_INTS)]

    def _reduce(self) -> int:
        data = self.matrix.copy()
        one = np.uint64(1)
        r = 0
        for c in range(WORDS * 64):
            if r == ROWS:
                break
            w, sh = c >> 6, np.uint64(c & 63)
            col = ((data[:, w] >> sh) & one).astype(bool)
            nz = np.nonzero(col[r:])[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            data[[r, p]] = data[[p, r]]
            col[[r, p]] = col[[p, r]]
            col[r] = False
            data[col, w:] ^= data[r, w:]
            r += 1
        return r

    def _python(self) -> int:
        acc = 0
        for _ in range(PY_ROUNDS):
            for x in self.ints:
                acc ^= (x >> 3) & (x << 1)
                acc = (acc * 31 + x.bit_count()) & 0xFFFFFFFFFFFF
        return acc

    def seconds(self) -> float:
        """The kernel's time now: the median of ``REPEATS`` runs."""
        out = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._reduce()
            self._python()
            out.append(time.perf_counter() - t0)
        return statistics.median(out)
