"""Per-layer probes: direct calls into each layer's public functions.

Every call is one span (see :mod:`tracing`) under a ``probe.<metric>``
span, and each metric is read from those spans.  The comment at each
probe names the end-to-end figure it should move, and on which workload.
Per-call timings report the median; the ``*.341`` cases are the closures of
``benchmarks/bench_kernels.py``'s ``make_cases``, called as that script
calls them (one warm-up, then the minimum of five), so the baselines quoted
in ROADMAP.md stay comparable.  Byte
counts of the kernels are computed by counting what the numpy backend's
loops touch on the same input, not measured.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import numpy as np

from swhamming import _kernels, bundleio, codec, equiv, ghcms, gf2, hcms, sources
from workloads import SEARCH_M, SEARCH_N, SEARCH_TRIPLES, groups_text, hamming_tuples, shifted_code

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_kernels  # noqa: E402  (benchmarks/ is a directory of scripts, not a package)

STREAM_TUPLES = 10_000

# bench_kernels.py case -> metric, and the span each timed call is recorded as;
# kernels.matmul_ms.341 -> verify_s (certify): the checker products
BENCH_KERNELS_CASES = (
    ("rref 341x682", "kernels.rref_ms.341x682", "_kernels.rref_in_place"),
    ("matmul 341^2", "kernels.matmul_ms.341", "gf2.BitMatrix.__matmul__"),
    ("matvec 341 x100", "gf2.mat_vec100_ms.341", "gf2.mat_vec"),
    ("is_perfect n=341", "codec.is_perfect_ms.341", "codec.is_perfect"),
    ("decode n=341 x200", "hcms.decode200_ms.341", "hcms.hcms_decode"),
)


def _rref_mb(data: np.ndarray, n_pivot_cols: int) -> float:
    """Bytes the numpy backend's row-by-row elimination moves on ``data``,
    counted by replaying it: per pivot column, a scan of the rows at and
    below the current one, the column mask over all rows, a swap, and a
    read-read-write XOR of the pivot row's tail into every other row that
    has the pivot bit."""
    data = data.copy()
    rows, words = data.shape
    one = np.uint64(1)
    r = 0
    moved = 0
    for c in range(n_pivot_cols):
        if r >= rows:
            break
        w, sh = c >> 6, np.uint64(c & 63)
        col = ((data[:, w] >> sh) & one).astype(bool)
        moved += (rows - r) + rows
        nz = np.nonzero(col[r:])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
            col[[r, p]] = col[[p, r]]
            moved += 4 * words
        col[r] = False
        hits = int(col.sum())
        if hits:
            data[col, w:] ^= data[r, w:]
            moved += 3 * hits * (words - w)
        r += 1
    return moved * 8 / 1e6


def _matmul_mb(a: np.ndarray, a_cols: int, b_words: int) -> float:
    """Bytes the numpy backend's product moves: per column of A its mask
    words, then a read-read-write XOR of one row of B for every set bit."""
    ones = int(np.bitwise_count(a).sum())
    return (a_cols * a.shape[0] + 3 * ones * b_words) * 8 / 1e6


class Probes:
    def __init__(self, tracer, tally, seed: int, workdir):
        self.tracer = tracer
        self.tally = tally
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.metrics: dict[str, dict] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def calls(self, metric: str, span: str, fn, arglists):
        """Call ``fn(*args)`` once per entry, one span each.  Returns the
        durations in seconds and the results."""
        tr = self.tracer
        nid = tr.name_id(span)
        secs, results = [], []
        with tr.span("probe." + metric):
            for args in arglists:
                idx = tr.open_id(nid)
                results.append(fn(*args))
                tr.close(idx)
                secs.append(tr.seconds(idx))
        return secs, results

    def median(self, metric, span, fn, arglists, unit, scale):
        secs, results = self.calls(metric, span, fn, arglists)
        self.put(metric, float(np.median(secs)) * scale, unit)
        return secs, results

    def best(self, metric, span, fn, reps=5):
        secs, _ = self.calls(metric, span, fn, [()] * reps)
        self.put(metric, min(secs) * 1e3, "ms")

    def check(self, op: str, ok: bool, detail: str) -> None:
        self.tally.record("probe " + op, [] if ok else [detail])

    # -- inputs shared by several probes ------------------------------------

    def build(self) -> None:
        """hcms.hcms_for_a_ms.a3..a6 -> gen_s (certify); keeps the bundles."""
        self.bundles = {}
        for a, reps in ((3, 10), (4, 10), (5, 5), (6, 2)):
            _, res = self.median(
                f"hcms.hcms_for_a_ms.a{a}", "hcms.hcms_for_a", hcms.hcms_for_a,
                [(a,)] * reps, "ms", 1e3,
            )
            self.bundles[a] = res[-1]
        code = self.bundles[4].code
        x = hamming_tuples(self.rng, STREAM_TUPLES, code.s, code.n)
        self.tuples = [
            tuple(gf2.BitVector.from_bits(x[t, i]) for i in range(code.s)) for t in range(len(x))
        ]
        y = [(x[:, i, :] @ H.to_array().T.astype(np.int64)) & 1 for i, H in enumerate(code.matrices)]
        self.syn_bits = y
        self.source_lines = groups_text([x[:, i, :] for i in range(code.s)]).decode().splitlines()
        self.syn_lines = groups_text(y).decode().splitlines()

    # -- kernels ------------------------------------------------------------

    def kernels(self) -> None:
        for a, reps in ((5, 10), (6, 3)):
            # kernels.rref_ms.a5/a6 -> verify_s, reduce_s (certify): find_collision's [A | I]
            A = gf2.vstack(self.bundles[a].code.matrices)
            aug = gf2.hstack([A, gf2.BitMatrix.identity(A.rows)])
            secs, piv = self.calls(
                f"kernels.rref_ms.a{a}", "_kernels.rref_in_place", _kernels.rref_in_place,
                [(aug.data.copy(), A.cols) for _ in range(reps)],
            )
            self.put(f"kernels.rref_ms.a{a}", float(np.median(secs)) * 1e3, "ms")
            self.put(f"kernels.rref_mb.a{a}", _rref_mb(aug.data, A.cols), "MB")
            self.check(f"rref a={a}", len(piv[-1]) == A.cols, f"rank {len(piv[-1])} < {A.cols}")

        # kernels.rref_us.tiny -> search_triples_per_s (search): one triple's 9x14 [A | I]
        N = codec.admissible_null_spaces(SEARCH_N, 2)[0]
        A = gf2.vstack([gf2.matrix_with_null_space(N)] * 3)
        aug = gf2.hstack([A, gf2.BitMatrix.identity(A.rows)])
        self.median(
            "kernels.rref_us.tiny", "_kernels.rref_in_place", _kernels.rref_in_place,
            [(aug.data.copy(), A.cols) for _ in range(2000)], "us", 1e6,
        )

        # kernels.matvec_us.85 -> encode/decode_tuples_per_s (stream)
        H = self.bundles[4].code.matrices[0]
        self.median(
            "kernels.matvec_us.85", "_kernels.matvec_packed", _kernels.matvec_packed,
            [(H.data, t[0].words) for t in self.tuples[:5000]], "us", 1e6,
        )

        # the five bench_kernels.py cases, from that script's own make_cases,
        # each warmed once and then the fastest of five, as that script runs them
        cases = dict(bench_kernels.make_cases(self.rng))
        for case, metric, span in BENCH_KERNELS_CASES:
            fn = cases[case]
            fn()
            self.best(metric, span, fn)
        rref_m = inspect.getclosurevars(cases["rref 341x682"]).nonlocals["rref_m"]
        self.put("kernels.rref_mb.341x682", _rref_mb(rref_m.data, rref_m.cols), "MB")
        mm = inspect.getclosurevars(cases["matmul 341^2"]).nonlocals
        mm_a, mm_b = mm["mm_a"], mm["mm_b"]
        self.put("kernels.matmul_mb.341", _matmul_mb(mm_a.data, mm_a.cols, mm_b.data.shape[1]), "MB")

    # -- object layer and per-tuple path (stream) ---------------------------

    def stream_path(self) -> None:
        b4 = self.bundles[4]
        code = b4.code
        H = code.matrices[0]
        ts = self.tuples
        # gf2.* -> encode/decode_tuples_per_s (stream)
        self.median("gf2.mat_vec_us.85", "gf2.mat_vec", gf2.mat_vec,
                    [(H, t[0]) for t in ts[:5000]], "us", 1e6)
        _, ys = self.median("codec.encode_us", "codec.encode", codec.encode,
                            [(code, t) for t in ts[:2000]], "us", 1e6)
        ref = [tuple(gf2.BitVector.from_bits(y[t]) for y in self.syn_bits) for t in range(2000)]
        self.check("encode n=85", ys == ref, "codec.encode differs from the dense product")

        mn = b4.M - b4.n
        sizes = [b4.G[0].rows, mn]
        _, parts = self.median("gf2.split_us", "gf2.split", gf2.split,
                               [(y[0], sizes) for y in ys], "us", 1e6)
        pieces = [[p[1], p[1], p[0], p[0], p[0]] for p in parts]  # q_1, q_2, g_1..g_3 as in hcms_decode
        self.median("gf2.concat_us", "gf2.concat", gf2.concat, [(p,) for p in pieces], "us", 1e6)
        lines = [ln for ln in self.source_lines[:5000] if ln]
        self.median("gf2.from_bits_us", "gf2.BitVector.from_bits", gf2.BitVector.from_bits,
                    [((int(c) for c in ln),) for ln in lines], "us", 1e6)
        self.median("gf2.to01_us", "gf2.BitVector.to01", gf2.BitVector.to01,
                    [(t[0],) for t in ts[:5000]], "us", 1e6)

        # sources.iter_tuples_us -> encode_tuples_per_s; codec.iter_syndromes_us -> decode
        it = sources.iter_tuples(self.source_lines)
        secs, parsed = self.calls("sources.iter_tuples_us", "sources.iter_tuples",
                                  lambda: next(it), [()] * STREAM_TUPLES)
        self.put("sources.iter_tuples_us", float(np.median(secs)) * 1e6, "us")
        self.check("iter_tuples", parsed == ts, "parsed tuples differ from the generated ones")
        it = codec.iter_syndromes(self.syn_lines, code.m)
        secs, syn = self.calls("codec.iter_syndromes_us", "codec.iter_syndromes",
                               lambda: next(it), [()] * STREAM_TUPLES)
        self.put("codec.iter_syndromes_us", float(np.median(secs)) * 1e6, "us")
        self.check("iter_syndromes", syn[: len(ys)] == ys, "parsed syndromes differ from encode's")

        # hcms.hcms_decode_us (p50 and p99.9 over 10^4) -> decode_tuples_per_s
        secs, out = self.calls("hcms.hcms_decode_us", "hcms.hcms_decode", hcms.hcms_decode,
                               [(b4, y) for y in syn])
        self.put("hcms.hcms_decode_us", float(np.median(secs)) * 1e6, "us")
        self.put("hcms.hcms_decode_us.p999", float(np.percentile(secs, 99.9)) * 1e6, "us")
        self.check("hcms_decode n=85", out == ts, "decoded tuples differ from the sources")
        located = sum(1 for t in out if any(v != t[0] for v in t[1:]))
        self.put("hcms.deviations_located", located, "count")

    # -- certification and reduction (certify) ------------------------------

    def certify_path(self) -> None:
        b5, b6 = self.bundles[5], self.bundles[6]
        # codec.find_collision_ms.a5/a6 -> verify_s, gen_s
        for a, reps in ((5, 5), (6, 3)):
            _, res = self.median(f"codec.find_collision_ms.a{a}", "codec.find_collision",
                                 codec.find_collision, [(self.bundles[a].code,)] * reps, "ms", 1e3)
            self.check(f"find_collision a={a}", res[-1] is None, "a perfect code collides")
        # gf2.null_space_ms.a6 -> verify_s
        self.median("gf2.null_space_ms.a6", "gf2.null_space", gf2.null_space,
                    [(b6.code.matrices[0],)] * 3, "ms", 1e3)

        # equiv.* on a shifted a = 5 code -> reduce_s
        shifted = shifted_code(b5.code, self.rng)
        self.median("equiv.profile_ms.a5", "equiv.profile", equiv.profile, [(shifted,)] * 3, "ms", 1e3)
        _, norm = self.median("equiv.normalize_profile_ms.a5", "equiv.normalize_profile",
                              equiv.normalize_profile, [(shifted,)] * 2, "ms", 1e3)
        self.median("equiv.lift_to_two_source_ms.a5", "equiv.lift_to_two_source",
                    equiv.lift_to_two_source, [(norm[-1],)] * 2, "ms", 1e3)
        _, red = self.median("equiv.reduce_with_report_ms.a5", "equiv.reduce_with_report",
                             equiv.reduce_with_report, [(shifted,)], "ms", 1e3)
        self.check("reduce a=5", red[-1][1].perfect, "reduction is not perfect")
        # gf2.complement_ms.a5 -> reduce_s: the largest call inside reduce at
        # a = 5 completes a 331-dimensional subspace of GF(2)^341
        n = b5.n
        A = gf2.random_subspace(n, n - 10, self.rng)
        _, comp = self.median("gf2.complement_ms.a5", "gf2.complement", gf2.complement,
                              [(A, gf2.Subspace.full(n))] * 2, "ms", 1e3)
        self.check("complement a=5", comp[-1].dim == 10, f"complement has dim {comp[-1].dim}")

        # ghcms.ghcms_decode_us -> verify_s (the round-trip gate), at n = 85
        g4 = equiv.reduce_to_ghcms(shifted_code(self.bundles[4].code, self.rng))
        ts = self.tuples[:2000]
        ys = [codec.encode(g4.code, t) for t in ts]
        _, out = self.median("ghcms.ghcms_decode_us", "ghcms.ghcms_decode", ghcms.ghcms_decode,
                             [(g4, y) for y in ys], "us", 1e6)
        self.check("ghcms_decode n=85", out == ts, "decoded tuples differ from the sources")

        # bundleio.*_ms.a6 -> verify_s, gen_s: 7.5 MB bundle text
        path = self.dir / "gen_a6.txt"
        self.median("bundleio.write_bundle_ms.a6", "bundleio.write_bundle", bundleio.write_bundle,
                    [(path, b6)] * 3, "ms", 1e3)
        _, parsed = self.median("bundleio.read_file_ms.a6", "bundleio.read_file", bundleio.read_file,
                                [(path,)] * 3, "ms", 1e3)
        _, built = self.median("bundleio.build_hcms_ms.a6", "bundleio.build_hcms", bundleio.build_hcms,
                               [(parsed[-1],)] * 3, "ms", 1e3)
        self.check("bundle a=6 round trip", built[-1].code.matrices == b6.code.matrices,
                   "re-read bundle has other matrices")

    # -- profile search (search) --------------------------------------------

    def search_path(self) -> None:
        # codec.admissible_null_spaces_ms -> search_triples_per_s: every dim the search asks for
        secs, _ = self.calls("codec.admissible_null_spaces_ms", "codec.admissible_null_spaces",
                             lambda: [codec.admissible_null_spaces(SEARCH_N, d) for d in range(SEARCH_N)],
                             [()] * 3)
        self.put("codec.admissible_null_spaces_ms", float(np.median(secs)) * 1e3, "ms")
        # codec.is_compressible_us per triple, timed inside the search through
        # the module binding that search_perfect_null_spaces looks up
        tr = self.tracer
        nid = tr.name_id("codec.is_compressible")
        orig = codec.is_compressible
        secs = []

        def timed(code):
            idx = tr.open_id(nid)
            try:
                return orig(code)
            finally:
                tr.close(idx)
                secs.append(tr.seconds(idx))

        codec.is_compressible = timed
        try:
            with tr.span("probe.codec.search"):
                result = codec.search_perfect_null_spaces(SEARCH_N, SEARCH_M, jobs=1)
        finally:
            codec.is_compressible = orig
        self.put("codec.is_compressible_us", float(np.median(secs)) * 1e6, "us")
        found = len(result.profiles)
        self.put("codec.search.triples_tested", result.triples_tested, "count")
        self.put("codec.search.found", found, "count")
        self.put("codec.search.found_per_tested", found / max(result.triples_tested, 1), "ratio")
        self.check("search", (result.triples_tested, found) == (SEARCH_TRIPLES, 0),
                   f"triples_tested={result.triples_tested} found={found}")


def run_all(tracer, tally, seed: int, workdir) -> dict[str, dict]:
    workdir.mkdir(parents=True, exist_ok=True)
    p = Probes(tracer, tally, seed, workdir)
    p.build()
    p.kernels()
    p.stream_path()
    p.certify_path()
    p.search_path()
    return p.metrics
