"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated limit.  Run with ``pytest -s`` to see
the lines as they complete.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np
import pytest

from swhamming import cli, codec, equiv, gf2, ghcms, hcms, sources


class criterion:
    """Times a criterion body, prints its pass/fail line, enforces the limit."""

    def __init__(self, number: int, label: str, limit_s: float):
        self.number = number
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.limit else "FAIL"
        print(f"[criterion {self.number:02d}] {status} {dt:6.2f}s (limit {self.limit:g}s) {self.label}")
        if exc_type is None:
            assert dt < self.limit, f"criterion {self.number} exceeded {self.limit}s ({dt:.2f}s)"
        return False


def test_criterion_01_parameter_table():
    with criterion(1, "parameter table a=1..5", 1.0):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["params", "--scan", "5", "--kv"]) == 0
        rows = [
            dict(tok.split("=") for tok in line.split())
            for line in buf.getvalue().splitlines()
        ]
        got = [
            (int(r["a"]), int(r["n"]), int(r["M"]), int(r["M-n"]), int(r["3n-2M"]))
            for r in rows
        ]
        assert got == [
            (1, 1, 3, 2, -3),
            (2, 5, 9, 4, -3),
            (3, 21, 27, 6, 9),
            (4, 85, 93, 8, 69),
            (5, 341, 351, 10, 321),
        ]


def test_criterion_02_embedded_partition():
    with criterion(2, "embedded n=21 partition checks", 1.0):
        Q1, Q2, Q3 = hcms.a3_partition()  # re-runs multiset/sum/pivot/K checks
        assert sorted(hcms._column_values(gf2.hstack([Q1, Q2, Q3]))) == list(range(1, 64))
        assert (Q1 + Q2 + Q3).is_zero()
        pivots = gf2.pivot_columns(gf2.vstack([Q1, Q2]))
        assert pivots == list(range(12))
        U, V = Q1.take_cols(0, 12), Q2.take_cols(0, 12)
        K = hcms._from_lines(hcms._A3_K)
        assert V == gf2.hstack([gf2.BitMatrix.zeros(6, 6), gf2.BitMatrix.identity(6)]) + (K @ U)
        bundle = hcms.hcms_for_a(3)
        assert bundle.R @ bundle.R_inv == gf2.BitMatrix.identity(21)


def test_criterion_03_perfectness_exact():
    with criterion(3, "algebraic perfectness at n=21, 85, 341", 30.0):
        for a in (3, 4, 5):
            bundle = hcms.hcms_for_a(a)
            assert codec.is_perfect(bundle.code), f"a={a}"


def test_criterion_04_roundtrips():
    with criterion(4, "decode round-trips (exhaustive + sampled)", 10.0):
        rng = np.random.default_rng(4)
        # (a) all 8 members of the three length-1 sources, relaxed bundle
        P = hcms.hamming_matrix(2)
        trivial = ghcms.ghcms_build(tuple(P.take_cols(j, j + 1) for j in range(3)))
        for x in sources.enumerate_hamming_sources(3, 1):
            assert ghcms.ghcms_decode(trivial, codec.encode(trivial.code, x)) == x
        # (b) every deviation pattern x 1000 random blocks at n=21; syndromes
        # of deviated members are the base syndrome plus the deviated
        # terminal's matrix column (encode is linear; spot-checked below)
        b3 = hcms.hcms_for_a(3)
        n = 21
        cols = [
            [b3.code.matrices[t].column(p) for p in range(n)] for t in range(3)
        ]
        units = [gf2.BitVector.unit(n, p) for p in range(n)]
        failures = 0
        for rep in range(1000):
            bits = rng.integers(0, 2, size=(1, n), dtype=np.uint8)
            b = gf2.BitMatrix.from_bits(bits).row(0)
            base = (b, b, b)
            y_base = codec.encode(b3.code, base)
            if hcms.hcms_decode(b3, y_base) != base:
                failures += 1
            for t in range(3):
                for p in range(n):
                    x = tuple(b + units[p] if i == t else b for i in range(3))
                    y = tuple(
                        y_base[i] + cols[t][p] if i == t else y_base[i]
                        for i in range(3)
                    )
                    if rep == 0:
                        assert y == codec.encode(b3.code, x)
                    if hcms.hcms_decode(b3, y) != x:
                        failures += 1
        assert failures == 0
        # (c) 10^4 random members at n=85
        b4 = hcms.hcms_for_a(4)
        for _ in range(10_000):
            x = sources.random_member(3, 85, rng)
            if hcms.hcms_decode(b4, codec.encode(b4.code, x)) != x:
                failures += 1
        assert failures == 0


def test_criterion_05_no_perfect_code_at_n5():
    with criterion(5, "exhaustive non-existence at (3, 5, 9)", 5.0):
        result = codec.search_perfect_null_spaces(5, 9)
        assert result.triples_tested == 15**3 == 3375
        assert result.profiles == []
        # dimension-assignment pruning leaves only the symmetric split
        assert result.assignments_admissible == [(3, 3, 3)]
        assert result.candidate_counts[3] == 0 and result.candidate_counts[4] == 0


def test_criterion_06_oracle_equivalence():
    with criterion(6, "algebraic test vs brute force, 200 codes x 4 sizes", 60.0):
        rng = np.random.default_rng(6)
        disagreements = 0
        for s, n in [(2, 3), (3, 3), (3, 4), (3, 5)]:
            for _ in range(200):
                m = [int(rng.integers(1, n + 1)) for _ in range(s)]
                code = codec.make_code([gf2.random_matrix(mi, n, rng) for mi in m])
                fast = codec.find_collision(code)
                slow = codec.brute_force_collision(code)
                if (fast is None) != (slow is None):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_07_shifting_properties():
    with criterion(7, "100 randomized null-space shifts on the n=21 code", 60.0):
        rng = np.random.default_rng(7)
        code = hcms.hcms_for_a(3).code
        prof = equiv.profile(code)
        for _ in range(100):
            from_r = int(rng.integers(3))
            others = [i for i in range(3) if i != from_r]
            common = gf2.subspace_intersect(prof[others[0]], prof[others[1]])
            K = gf2.random_subspace_of(common, int(rng.integers(common.dim + 1)), rng)
            to_d = int(rng.choice(others))
            shifted = equiv.shift_null_space(code, K, from_r, to_d)
            assert codec.is_compressible(shifted)
            assert codec.is_perfect(shifted)
            back = equiv.shift_null_space(
                shifted, K, from_r=to_d, to_d=from_r, residual=prof[from_r]
            )
            assert equiv.profile(back) == prof


def test_criterion_08_universality_pipeline():
    with criterion(8, "universality reduction end to end", 30.0):
        rng = np.random.default_rng(8)
        one = gf2.BitMatrix.from_bits([[1]])
        trivial = codec.make_code([one, one, one])
        # (a) the trivial code reduces to the scalar relaxed bundle
        bundle = equiv.reduce_to_ghcms(trivial)
        assert [C.to_array().tolist() for C in bundle.C] == [[[1]], [[1]], [[1]]]
        assert bundle.code.m == (1, 1, 1) and codec.is_perfect(bundle.code)
        # (b) the n=21 code after random shifts reduces to the one bundle of
        # its class, with the normalized profile's first two null spaces and
        # the dimension of its last
        code = hcms.hcms_for_a(3).code
        prof = equiv.profile(code)
        common = gf2.subspace_intersect(prof[1], prof[2])
        K = gf2.random_subspace_of(common, 2, rng)
        shifted = equiv.shift_null_space(code, K, from_r=0, to_d=2)
        reduced = equiv.reduce_to_ghcms(shifted)
        assert codec.is_perfect(reduced.code)
        got = equiv.profile(reduced.code)
        want = equiv.profile(equiv.normalize_profile(shifted))
        assert got[:2] == want[:2] and got[2].dim == want[2].dim
        for other in (code, equiv.normalize_profile(shifted)):
            again = equiv.reduce_to_ghcms(other)
            assert (again.code.matrices, again.E, again.Y, again.D) == (
                reduced.code.matrices, reduced.E, reduced.Y, reduced.D
            )
        # (c) folding the trivial code gives a perfect (2, 3, 5) pair
        lifted = equiv.lift_to_two_source(trivial)
        assert (lifted.n, sum(lifted.m)) == (3, 5)
        assert (1 << 3) * (3 + 1) == (1 << 5)
        assert codec.is_perfect(lifted)


def test_criterion_09_two_source_reduction():
    with criterion(9, "2-source reduction at n = 3, 7, 15", 10.0):
        rng = np.random.default_rng(9)
        for m in (2, 3, 4):
            n = (1 << m) - 1
            pair = codec.make_code([gf2.BitMatrix.identity(n), hcms.hamming_matrix(m)])
            for _ in range(5):
                prof = equiv.profile(pair)
                K = gf2.random_subspace_of(
                    prof[1], int(rng.integers(1, prof[1].dim + 1)), rng
                )
                shuffled = equiv.shift_null_space(pair, K, from_r=0, to_d=1)
                H1, H2 = equiv.two_source_reduce(shuffled)
                assert gf2.rank(H1) == n
                assert sorted(hcms._column_values(H2)) == list(range(1, n + 1))


def test_criterion_10_subspace_facts():
    with criterion(10, "modular-law facts on 1000 subspace triples", 5.0):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            W = gf2.random_subspace(n, int(rng.integers(1, n + 1)), rng)
            U = gf2.random_subspace_of(W, int(rng.integers(0, W.dim + 1)), rng)
            V = gf2.random_subspace(n, int(rng.integers(0, n + 1)), rng)
            lhs = gf2.subspace_intersect(gf2.subspace_sum(V, U), W)
            rhs = gf2.subspace_sum(gf2.subspace_intersect(V, W), U)
            # containment one way, equality overall
            assert rhs.contains_subspace(lhs)
            assert lhs == rhs
            if gf2.subspace_intersect(V, U).dim == 0:
                assert (
                    gf2.subspace_intersect(gf2.subspace_intersect(V, W), U).dim == 0
                )
