#!/usr/bin/env python3
"""Time the packed GF(2) kernels.

Times the three packed GF(2) kernels on representative shapes, the two
phases of row reduction on the a = 6 code's [A | I], the check of the
a = 6 bundle's 4095 deviation keys (``codec.CodePlan.from_bundle``),
one chunk of ``encode_batch`` and of ``decode_batch`` at n = 85, as many
tuples as ``sources.chunk_tuples`` gives the CLI there, plus three
end-to-end operations (perfectness verification of the n = 341 code,
its [A | I] elimination included, a batch of algebraic decodes and the
construction of the a = 6 bundle, lifting chain included), the byte
parser of bundle files on the a = 5 bundle (``bundleio.read_file``) and
the writer and the loader (parse and load-time checks) of the a = 6
bundle file, each file in a temporary directory, and the universality
reduction of a shifted a = 5 code (``equiv.reduce_with_report``, the
plan that proves the code perfect included), the listing of the
admissible null spaces at n = 5 for every dimension the search asks for
(``codec.admissible_null_spaces``, d = 0..4) and the whole (3, 5, 9)
profile search (``codec.search_perfect_null_spaces``),
and prints the fastest of ``--repeat`` runs of each.  Run with ``python
benchmarks/bench_kernels.py``.  The matrix product goes through numpy's
float32 matmul, so its time depends on the BLAS numpy links and on how
many threads that BLAS starts.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from swhamming import _kernels, bundleio, codec, equiv, gf2, hcms, sources


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def make_cases(rng: np.random.Generator, workdir: Path | None = None):
    """(name, function) of each case; the bundle file cases only with a
    ``workdir`` to write their bundles to."""
    rref_m = gf2.random_matrix(341, 682, rng)
    mm_a = gf2.random_matrix(341, 341, rng)
    mm_b = gf2.random_matrix(341, 341, rng)
    mv_m = gf2.random_matrix(341, 341, rng)
    mv_x = gf2.random_matrix(1, 341, rng).row(0)
    bundle = hcms.hcms_for_a(5)
    members = [sources.random_member(3, 341, rng) for _ in range(200)]
    syndromes = [codec.encode(bundle.code, x) for x in members]
    bundle6 = hcms.hcms_for_a(6)
    A6 = gf2.vstack(bundle6.code.matrices)
    bundle4 = hcms.hcms_for_a(4)
    chunk4 = sources.chunk_tuples(3 * 85, sum(bundle4.code.m))
    members4 = sources.random_members(3, 85, chunk4, rng)
    chunk = codec.encode_batch(bundle4.code, members4)
    plan4 = codec.decoder(bundle4.code)
    aug6 = gf2.hstack([A6, gf2.BitMatrix.identity(A6.rows)]).data
    echelon6 = aug6.copy()
    pivots6 = _kernels.echelon_in_place(echelon6, A6.cols)
    # the a = 5 code with half the null space common to terminals 2 and 3
    # moved out of terminal 3's null space into terminal 1's
    prof = equiv.profile(bundle.code)
    common = gf2.subspace_intersect(prof[1], prof[2])
    K = gf2.random_subspace_of(common, common.dim // 2, rng)
    shifted5 = equiv.shift_null_space(bundle.code, K, 0, 2)

    def bench_rref():
        data = rref_m.data.copy()
        _kernels.rref_in_place(data, rref_m.cols)

    def bench_matmul():
        _ = mm_a @ mm_b

    def bench_matvec():
        for _ in range(100):
            gf2.mat_vec(mv_m, mv_x)

    def bench_echelon():
        _kernels.echelon_in_place(aug6.copy(), A6.cols)

    def bench_back_substitute():
        _kernels.back_substitute(echelon6.copy(), pivots6)

    def bench_is_perfect():
        # a fresh code per call: the plan cached on bundle.code would skip
        # the [A | I] elimination
        if not codec.is_perfect(codec.make_code(bundle.code.matrices)):
            raise RuntimeError("the a = 5 code is not perfect")

    def bench_decode():
        for y in syndromes:
            hcms.hcms_decode(bundle, y)

    def bench_key_check():
        if codec.CodePlan.from_bundle(bundle6) is None:
            raise RuntimeError("the a = 6 bundle does not certify its code")

    def bench_encode_chunk():
        codec.encode_batch(bundle4.code, members4)

    def bench_decode_chunk():
        plan4.decode_batch(chunk)

    def bench_hcms_for_a():
        hcms.hcms_for_a(6)

    def bench_reduce():
        # a fresh code per call, as the CLI reads one: its plan is made again
        equiv.reduce_with_report(codec.make_code(shifted5.matrices))

    def bench_admissible():
        for d in range(5):
            codec.admissible_null_spaces(5, d)

    def bench_search():
        if codec.search_perfect_null_spaces(5, 9).profiles:
            raise RuntimeError("the (3, 5, 9) search found a perfect profile")

    cases = [
        ("rref 341x682", bench_rref),
        ("matmul 341^2", bench_matmul),
        ("matvec 341 x100", bench_matvec),
        ("echelon [A|I] a=6", bench_echelon),
        ("back_substitute [A|I] a=6", bench_back_substitute),
        ("key check a=6", bench_key_check),
        ("encode chunk n=85", bench_encode_chunk),
        ("decode chunk n=85", bench_decode_chunk),
        ("is_perfect n=341", bench_is_perfect),
        ("decode n=341 x200", bench_decode),
        ("hcms_for_a a=6", bench_hcms_for_a),
        ("reduce a=5", bench_reduce),
        ("admissible n=5", bench_admissible),
        ("search n=5 M=9", bench_search),
    ]
    if workdir is not None:
        path = Path(workdir) / "gen_a5.txt"
        bundleio.write_bundle(path, bundle)

        def bench_read_file():
            bundleio.read_file(path)

        path6 = Path(workdir) / "gen_a6.txt"
        bundleio.write_bundle(path6, bundle6)

        def bench_write_bundle():
            bundleio.write_bundle(path6, bundle6)

        def bench_read_build():
            bundleio.build_bundle(bundleio.read_file(path6))

        cases += [
            ("read_file a=5", bench_read_file),
            ("write_bundle a=6", bench_write_bundle),
            ("read+build a=6", bench_read_build),
        ]
    return cases


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        cases = make_cases(rng, Path(workdir))
        width = max(len(name) for name, _ in cases)
        print(f"{'case':<{width}}  {_kernels.get_backend():>12}")
        for name, fn in cases:
            fn()  # warm caches before timing
            print(f"{name:<{width}}  {best_of(fn, args.repeat) * 1e3:>10.3f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
