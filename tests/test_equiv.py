"""Null-space shifting, normalization, folding, and the universality pipeline."""

from __future__ import annotations

import collections
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decode_oracle import DecodeTable
from helpers import decompose, run_quiet, shifted
from swhamming import _kernels, bundleio, codec, equiv, gf2, ghcms, hcms, sources
from swhamming.errors import DecompositionInvalidError, NotPerfectError


def random_valid_shift(code, prof, rng):
    """A random (K, from_r, to_d) with K inside every null space but from_r's."""
    s = len(prof)
    from_r = int(rng.integers(s))
    others = [i for i in range(s) if i != from_r]
    common = prof[others[0]]
    for i in others[1:]:
        common = gf2.subspace_intersect(common, prof[i])
    dim = int(rng.integers(common.dim + 1))
    K = gf2.random_subspace_of(common, dim, rng)
    choices = [i for i in range(s) if i != from_r]
    to_d = int(rng.choice(choices))
    return K, from_r, to_d


def test_shift_same_terminal_keeps_profile(bundle_a3, rng):
    code = bundle_a3.code
    prof = equiv.profile(code)
    K = gf2.random_subspace_of(gf2.subspace_intersect(prof[1], prof[2]), 2, rng)
    out = equiv.shift_null_space(code, K, from_r=0, to_d=0)
    assert equiv.profile(out) == prof


def test_shift_preserves_perfectness_and_reverses(bundle_a3, rng):
    code = bundle_a3.code
    prof = equiv.profile(code)
    for _ in range(10):
        K, r, d = random_valid_shift(code, prof, rng)
        shifted = equiv.shift_null_space(code, K, r, d)
        assert codec.is_compressible(shifted)
        assert codec.is_perfect(shifted)
        back = equiv.shift_null_space(shifted, K, from_r=d, to_d=r, residual=prof[r])
        assert equiv.profile(back) == prof


def test_shift_rejects_bad_decompositions(bundle_a3, rng):
    code = bundle_a3.code
    prof = equiv.profile(code)
    outside = gf2.complement(prof[1], gf2.Subspace.full(21))
    K_bad = gf2.Subspace(21, outside.basis.take_rows(0, 1))
    with pytest.raises(DecompositionInvalidError):
        equiv.shift_null_space(code, K_bad, from_r=0, to_d=2)
    # K meeting the source terminal's null space
    K_in = gf2.random_subspace_of(gf2.subspace_intersect(prof[1], prof[2]), 1, rng)
    merged = equiv.shift_null_space(code, K_in, from_r=0, to_d=2)
    prof2 = equiv.profile(merged)
    with pytest.raises(DecompositionInvalidError):
        # K_in now sits inside terminal 0's null space as well
        equiv.shift_null_space(merged, K_in, from_r=0, to_d=1)
    # residual that is not a complement
    with pytest.raises(DecompositionInvalidError):
        equiv.shift_null_space(code, K_in, from_r=0, to_d=2, residual=prof[2])


def test_rate_trading_to_symmetric(rng):
    """Reallocating common null-space dimensions trades rates: the one-sided
    split (15,6,6) moves to the symmetric (9,9,9) in two 3-dim steps."""
    asym = hcms.hcms_for_a(3, g_split=(9, 0, 0)).code
    assert asym.m == (15, 6, 6)
    pa = equiv.profile(asym)
    Ka = gf2.random_subspace_of(gf2.subspace_intersect(pa[1], pa[2]), 3, rng)
    step1 = equiv.shift_null_space(asym, Ka, from_r=0, to_d=2)
    p1 = equiv.profile(step1)
    Kb = gf2.random_subspace_of(gf2.subspace_intersect(p1[1], p1[2]), 3, rng)
    step2 = equiv.shift_null_space(step1, Kb, from_r=0, to_d=1)
    assert step2.m == (9, 9, 9)
    assert codec.is_perfect(step2)


def test_shift_whole_null_space_two_source(pair_n7):
    # moving one terminal's entire null space across leaves an invertible
    # matrix paired with a column permutation of the Hamming matrix
    prof = equiv.profile(pair_n7)
    shifted = equiv.shift_null_space(pair_n7, K=prof[1], from_r=0, to_d=1)
    sprof = equiv.profile(shifted)
    assert sprof[1].dim == 0
    assert sprof[0].dim == prof[0].dim + prof[1].dim
    assert codec.is_perfect(shifted)
    assert gf2.rank(shifted.matrices[1]) == 7
    assert sorted(hcms._column_values(shifted.matrices[0])) == list(range(1, 8))


def test_two_source_reduce_fixed_point(pair_n7):
    H1, H2 = equiv.two_source_reduce(pair_n7)
    assert H1 == gf2.BitMatrix.identity(7)
    assert sorted(hcms._column_values(H2)) == list(range(1, 8))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_two_source_reduce_after_shifts(m, rng):
    n = (1 << m) - 1
    pair = codec.make_code([gf2.BitMatrix.identity(n), hcms.hamming_matrix(m)])
    prof = equiv.profile(pair)
    K = gf2.random_subspace_of(prof[1], int(rng.integers(1, prof[1].dim + 1)), rng)
    shuffled = equiv.shift_null_space(pair, K, from_r=0, to_d=1)
    assert codec.is_perfect(shuffled)
    H1, H2 = equiv.two_source_reduce(shuffled)
    assert gf2.rank(H1) == n
    assert sorted(hcms._column_values(H2)) == list(range(1, n + 1))


def test_two_source_reduce_requires_perfect():
    I3 = gf2.BitMatrix.identity(3)
    with pytest.raises(NotPerfectError):
        equiv.two_source_reduce(codec.make_code([I3, I3]))


def test_normalize_profile(bundle_a3, rng):
    code = bundle_a3.code
    norm = equiv.normalize_profile(code)
    assert codec.is_perfect(norm)
    prof = equiv.profile(norm)
    s = len(prof)
    for i in range(s - 1):
        acc = None
        for j in range(s):
            if j == i:
                continue
            acc = prof[j] if acc is None else gf2.subspace_intersect(acc, prof[j])
        assert acc.dim == 0
    # normalizing again keeps the profile
    assert equiv.profile(equiv.normalize_profile(norm)) == prof


def test_normalize_two_source(pair_n7):
    norm = equiv.normalize_profile(pair_n7)
    prof = equiv.profile(norm)
    assert prof[1].dim == 0  # the all-but-first intersection is terminal 2's null
    assert codec.is_perfect(norm)


def test_normalize_requires_perfect():
    I3 = gf2.BitMatrix.identity(3)
    with pytest.raises(NotPerfectError):
        equiv.normalize_profile(codec.make_code([I3, I3]))


# ---------------------------------------------------------------------------
# folding into two sources
# ---------------------------------------------------------------------------


def test_lift_trivial(trivial_code):
    lifted = equiv.lift_to_two_source(trivial_code)
    assert lifted.matrices[0].to_array().tolist() == [[1, 1, 0], [0, 1, 1]]
    assert lifted.matrices[1] == gf2.BitMatrix.identity(3)
    assert lifted.m == (2, 3)
    assert (1 << 3) * (3 + 1) == 1 << 5
    assert codec.is_perfect(lifted)


def test_lift_null_space_structure(trivial_code, bundle_a3):
    for code in (trivial_code, bundle_a3.code):
        lifted = equiv.lift_to_two_source(code)
        s, n = code.s, code.n
        nx = gf2.null_space(lifted.matrices[0])
        assert nx.dim == n
        for i in range(nx.dim):
            row = nx.basis.row(i).to_array()
            blocks = row.reshape(s, n)
            assert (blocks == blocks[0]).all()  # repeated-block vectors only
        nj = gf2.null_space(lifted.matrices[1])
        assert nj.dim == sum(N.dim for N in equiv.profile(code))


def lifted_decode(code, inner_decode, y):
    """Decode the folded pair the way its construction promises: block
    differences from the first output, blockwise syndromes from the second,
    combined into one run of the inner decoder."""
    s, n = code.s, code.n
    y_x, y_j = y
    diffs = gf2.split(y_x, [n] * (s - 1))  # b_k + b_(k+1)
    parts = gf2.split(y_j, list(code.m))  # H_i (b_i + v_i)
    # accumulate b_1 + b_i and fold its syndrome into each part
    acc = gf2.BitVector.zeros(n)
    inner_y = [parts[0]]
    for i in range(1, s):
        acc = acc + diffs[i - 1]
        inner_y.append(parts[i] + gf2.mat_vec(code.matrices[i], acc))
    inner = inner_decode(tuple(inner_y))  # (b_1 + v_1, ..., b_1 + v_s)
    b1 = None
    vs = []
    base, term, pos = decompose(inner)
    b1 = base
    # rebuild both folded blocks
    blocks1 = []
    acc = gf2.BitVector.zeros(n)
    for i in range(s):
        if i:
            acc = acc + diffs[i - 1]
        blocks1.append(b1 + acc)
    blocks2 = list(blocks1)
    if term is not None:
        blocks2[term] = blocks2[term] + gf2.BitVector.unit(n, pos)
    return gf2.concat(blocks1), gf2.concat(blocks2)


def test_lift_decode_path_exhaustive(trivial_code):
    lifted = equiv.lift_to_two_source(trivial_code)
    table = DecodeTable(trivial_code)
    for z in sources.enumerate_hamming_sources(2, 3):
        y = codec.encode(lifted, z)
        assert lifted_decode(trivial_code, table.decode, y) == z


def test_lift_decode_path_sampled(bundle_a3, rng):
    lifted = equiv.lift_to_two_source(bundle_a3.code)
    decode = lambda y: hcms.hcms_decode(bundle_a3, y)
    for _ in range(50):
        z = sources.random_member(2, 63, rng)
        y = codec.encode(lifted, z)
        assert lifted_decode(bundle_a3.code, decode, y) == z


def test_lift_rejects_two_source(pair_n7):
    with pytest.raises(ValueError):
        equiv.lift_to_two_source(pair_n7)


# ---------------------------------------------------------------------------
# the universality reduction
# ---------------------------------------------------------------------------


def test_reduce_trivial_yields_trivial_bundle(trivial_code):
    bundle = equiv.reduce_to_ghcms(trivial_code)
    assert [C.to_array().tolist() for C in bundle.C] == [[[1]], [[1]], [[1]]]
    assert bundle.code.m == (1, 1, 1)
    assert codec.is_perfect(bundle.code)


def test_reduce_shifted_hcms(bundle_a3, rng):
    code = bundle_a3.code
    prof = equiv.profile(code)
    K, r, d = random_valid_shift(code, prof, rng)
    shifted = equiv.shift_null_space(code, K, r, d)
    bundle, report = equiv.reduce_with_report(shifted)
    assert codec.is_perfect(bundle.code)
    # the output keeps the normalized input's first s - 1 null spaces and
    # the dimension of its last, and is the one bundle of the class
    got, want = equiv.profile(bundle.code), equiv.profile(equiv.normalize_profile(shifted))
    assert got[:2] == want[:2] and got[2].dim == want[2].dim
    assert same_bundle(bundle, equiv.reduce_to_ghcms(code))
    assert same_bundle(bundle, equiv.reduce_to_ghcms(equiv.normalize_profile(shifted)))
    assert report.normalized_profile_dims == tuple(N.dim for N in got)
    assert report.perfect
    for _ in range(50):
        x = sources.random_member(3, 21, rng)
        assert ghcms.ghcms_decode(bundle, codec.encode(bundle.code, x)) == x


def same_bundle(a, b) -> bool:
    """Whether two bundles have equal coding matrices and equal E, Y and D."""
    return (a.code.matrices, a.E, a.Y, a.D) == (b.code.matrices, b.E, b.Y, b.D)


def test_reduce_computes_each_fact_once(bundle_a3, monkeypatch):
    # no null space at all (the bundle is built from the partition alone),
    # one perfectness proof, and no particular solution for the folded
    # pair's same-position deviations, whose keys are equal for every code
    code = bundle_a3.code
    prof = equiv.profile(code)
    common = gf2.subspace_intersect(prof[1], prof[2])
    K = gf2.random_subspace_of(common, common.dim // 2, np.random.default_rng(7))
    shifted = equiv.shift_null_space(code, K, 0, 2)
    perfect_calls = collections.Counter()
    real_perfect = equiv.is_perfect

    def no_null_space(M):
        raise AssertionError("null space built")

    def counting_perfect(c):
        perfect_calls[id(c)] += 1
        return real_perfect(c)

    def no_solution(*args):
        raise AssertionError("particular solution built")

    monkeypatch.setattr(equiv, "null_space", no_null_space)
    monkeypatch.setattr(equiv, "is_perfect", counting_perfect)
    monkeypatch.setattr(codec, "_particular_solution", no_solution)
    bundle, report = equiv.reduce_with_report(shifted)
    assert report.perfect and sources.is_perfect_params(bundle.s, bundle.n, bundle.M)
    assert perfect_calls == {id(shifted): 1}


def test_reduce_reads_the_partition_off_the_plan(bundle_a3, monkeypatch):
    # no folded pair: the input's plan is the only plan eliminated
    code = bundle_a3.code
    prof = equiv.profile(code)
    common = gf2.subspace_intersect(prof[1], prof[2])
    K = gf2.random_subspace_of(common, common.dim // 2, np.random.default_rng(7))
    shifted = equiv.shift_null_space(code, K, 0, 2)
    plan_widths = []
    real_plan = codec.CodePlan

    class WatchedPlan(real_plan):
        def __init__(self, c):
            plan_widths.append(c.n)
            super().__init__(c)

    def no_fold(c):
        raise AssertionError("folded pair built")

    monkeypatch.setattr(codec, "CodePlan", WatchedPlan)
    monkeypatch.setattr(equiv, "lift_to_two_source", no_fold)
    bundle, report = equiv.reduce_with_report(shifted)
    assert report.perfect and sources.is_perfect_params(bundle.s, bundle.n, bundle.M)
    assert plan_widths == [21]


def _count_eliminations(monkeypatch) -> list:
    """The shape and the pivot count of each echelon_in_place call from here
    on: every elimination goes through it, counted at every module that
    binds it."""
    calls = []
    real = _kernels.echelon_in_place

    def counting(data, n_pivot_cols):
        pivots = real(data, n_pivot_cols)
        calls.append((data.shape, len(pivots)))
        return pivots

    modules = [m for name, m in sys.modules.items() if name.startswith("swhamming")]
    for module in modules:
        if getattr(module, "echelon_in_place", None) is real:
            monkeypatch.setattr(module, "echelon_in_place", counting)
    return calls


@pytest.mark.parametrize("a", [3, 4, 5, "pair"])
def test_reduce_runs_at_most_18_eliminations(
    a, bundle_a3, bundle_a4, bundle_a5, pair_n7, monkeypatch
):
    # a reduction of the benchmark's shifted codes runs exactly 6
    # eliminations: the plan, the partition, one row basis per block and
    # Y (the bound the name records was 18 while the output was
    # reassembled from the input's null spaces, and 42 while each subspace
    # was held by its basis alone), and of the shifted n = 7 pair exactly
    # 5 (9 while the dims it reports came from both codes' null spaces)
    perfect = {3: bundle_a3.code, 4: bundle_a4.code, 5: bundle_a5.code, "pair": pair_n7}[a]
    code = codec.make_code(shifted(perfect, np.random.default_rng(1)).matrices)
    calls = _count_eliminations(monkeypatch)
    bundle, report = equiv.reduce_with_report(code)
    assert report.perfect and sources.is_perfect_params(bundle.s, bundle.n, bundle.M)
    assert len(calls) == (5 if a == "pair" else 6)


def test_reduce_a5_holds_at_most_1485_pivots(bundle_a5, monkeypatch):
    # an elimination costs a few numpy calls per pivot, so the pivot count
    # is the reduction's cost: 401 at a = 5, 341 of them the plan's (the
    # bound the name records was 1485 while the output was reassembled
    # from the input's null spaces, and 6922 while each subspace was held
    # by its basis alone)
    code = codec.make_code(shifted(bundle_a5.code, np.random.default_rng(1)).matrices)
    calls = _count_eliminations(monkeypatch)
    bundle, report = equiv.reduce_with_report(code)
    assert report.perfect and sources.is_perfect_params(bundle.s, bundle.n, bundle.M)
    assert sum(pivots for _, pivots in calls) <= 401


@pytest.mark.parametrize("a", [3, 4, 5])
def test_shifting_runs_14_eliminations(a, bundle_a3, bundle_a4, bundle_a5, monkeypatch):
    # the benchmark's set-up makes its reduce inputs this way: the profile,
    # the common null space of terminals 1..s-1, and shift_null_space,
    # whose sums and intersections take the stacked-spans route and both
    # forms of _orthogonal_part
    perfect = {3: bundle_a3.code, 4: bundle_a4.code, 5: bundle_a5.code}[a]
    calls = _count_eliminations(monkeypatch)
    code = shifted(perfect, np.random.default_rng(1))
    assert len(calls) == 14
    assert codec.is_perfect(code)


def _run_with(monkeypatch, run, name, damage, call):
    """``run`` of a shifted a = 3 code, with equiv's ``name`` replaced by a
    wrapper that damages its result of the given call."""
    code = shifted(hcms.hcms_for_a(3).code, np.random.default_rng(1))
    real = getattr(equiv, name)
    calls = []

    def damaged(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        return damage(out) if len(calls) == call else out

    monkeypatch.setattr(equiv, name, damaged)
    return run(code)


def _outside(N):
    """A subspace one vector larger than N."""
    for i in range(N.n):
        e = gf2.BitMatrix.identity(N.n).take_rows(i, i + 1)
        if not N.contains_subspace(gf2.Subspace(N.n, e)):
            return gf2.Subspace(N.n, gf2.vstack([N.basis, e]))
    raise AssertionError("N is the whole space")


def _swap_first_columns(P):
    """P with columns 0 and 1 of every block of 21 exchanged: the blocks
    still sum to zero, but their null spaces change."""
    bits = P.to_array().copy()
    for b in range(0, bits.shape[1], 21):
        bits[:, [b, b + 1]] = bits[:, [b + 1, b]]
    return gf2.BitMatrix.from_bits(bits)


def _flip_bit(M, i=0, j=0):
    bits = M.to_array().copy()
    bits[i, j] ^= 1
    return gf2.BitMatrix.from_bits(bits)


def _damaged_partition(damage):
    """A damage to the (P, X) of _pair_partition that damages P."""
    return lambda PX: (damage(PX[0]), PX[1])


# (the function run, equiv's name, which of its calls, the damage to that
# call's result, and the message it must raise); together they reach
# every DecompositionInvalidError of normalize_profile and
# reduce_with_report
_DAMAGES = [
    # a residual that leaves the last null space
    (equiv.normalize_profile, "residual_intersections", 1,
     lambda R: [_outside(R[0]), R[1]], "residuals must lie in the last null space"),
    # residuals whose sum is not direct
    (equiv.normalize_profile, "residual_intersections", 1, lambda R: [R[0], R[0]],
     "residuals must sum directly"),
    # residuals swapped: R_1 = N_0 ∩ N_2 meets null space 0
    (equiv.normalize_profile, "residual_intersections", 1, lambda R: [R[1], R[0]],
     "residual 0 meets null space 0"),
    # no residuals moved: the input's all-but-one intersections remain
    (equiv.normalize_profile, "residual_intersections", 1,
     lambda R: [gf2.Subspace.zero(21)] * 2,
     "normalization must leave all-but-one intersections trivial"),
    (equiv.reduce_with_report, "_pair_partition", 1, _damaged_partition(_flip_bit),
     "partition blocks do not sum to zero"),
    # blocks that still sum to zero but are not X times the input's keys,
    # so that nothing ties their null spaces to the input's
    (equiv.reduce_with_report, "_pair_partition", 1, _damaged_partition(_swap_first_columns),
     "block 0 must inherit null space"),
    (equiv.reduce_with_report, "hamming_source_size", 1, lambda size: size * 2,
     "the reduced bundle must be perfect"),
]


@pytest.mark.parametrize(
    "run, name, call, damage, message", _DAMAGES, ids=[d[4] for d in _DAMAGES]
)
def test_each_decomposition_check_fires_on_a_damaged_intermediate(
    monkeypatch, run, name, call, damage, message
):
    # each cheap check (a product, or a dimension already known) catches the
    # damage that the equality of canonical subspaces caught
    with pytest.raises(DecompositionInvalidError) as exc:
        _run_with(monkeypatch, run, name, damage, call)
    assert str(exc.value) == message


_A3 = hcms.hcms_for_a(3).code
_A3_PROFILE = equiv.profile(_A3)


@st.composite
def shifted_perfect_codes(draw):
    """(code, shifted): a perfect code and the code shifted by a random K,
    for the a = 3 HCMS (s = 3, n = 21) or the (identity, Hamming) pair at n
    = 3, 7 or 15."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([None, 2, 3, 4]))
    if m is None:
        return _A3, equiv.shift_null_space(_A3, *random_valid_shift(_A3, _A3_PROFILE, rng))
    n = (1 << m) - 1
    pair = codec.make_code([gf2.BitMatrix.identity(n), hcms.hamming_matrix(m)])
    N2 = equiv.profile(pair)[1]
    K = gf2.random_subspace_of(N2, int(rng.integers(N2.dim + 1)), rng)
    return pair, equiv.shift_null_space(pair, K, from_r=0, to_d=1)


@given(shifted_perfect_codes())
@settings(max_examples=60, deadline=None)
def test_plan_partition_equals_the_fold_route(case):
    _, code = case
    # the canonical basis of one subspace, computed two ways: off the code's
    # plan, and from the null spaces of the pair (for s > 2, of the pair
    # the code folds into)
    pair = code if code.s == 2 else equiv.lift_to_two_source(code)
    want = gf2.matrix_with_null_space(gf2.subspace_sum(*equiv.profile(pair)))
    assert equiv._pair_partition(code)[0] == want


@given(shifted_perfect_codes())
@settings(max_examples=60, deadline=None)
def test_the_partition_is_an_invariant_of_the_equivalence(case):
    # what reduce relies on: a shift of a perfect code, and for s = 3 the
    # shifted code's normalization too, keeps the partition its plan gives
    code, moved = case
    P = equiv._pair_partition(code)[0]
    assert equiv._pair_partition(moved)[0] == P
    assert equiv.reduce_with_report(moved)[0].P == P
    if code.s == 3:
        assert equiv._pair_partition(equiv.normalize_profile(moved))[0] == P


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_shifts_link_any_two_complements_of_the_tail(seed):
    # the lemma of reduce_with_report: the normalized input's last null
    # space A and the canonical output's B are complements of the tail t
    # inside null(Q_3); moving t out of N_1 into N_3 and back out with
    # residual=B turns the one profile into the other
    code = shifted(hcms.hcms_for_a(3).code, np.random.default_rng(seed))
    norm = equiv.normalize_profile(code)
    prof = equiv.profile(norm)
    canon = equiv.reduce_to_ghcms(code)
    want = equiv.profile(canon.code)
    assert prof[:2] == want[:2] and prof[2] != want[2]
    t = gf2.subspace_intersect(prof[0], prof[1])
    step = equiv.shift_null_space(norm, t, from_r=2, to_d=0)
    assert equiv.profile(step)[2] == gf2.null_space(canon.Q[2])
    back = equiv.shift_null_space(step, t, from_r=0, to_d=2, residual=want[2])
    assert equiv.profile(back) == want


def _shift_chain(code, rng):
    """The code after one to three random shifts."""
    for _ in range(int(rng.integers(1, 4))):
        code = equiv.shift_null_space(code, *random_valid_shift(code, equiv.profile(code), rng))
    return code


def _bundle_bytes(bundle, path) -> bytes:
    bundleio.write_bundle(path, bundle)
    return path.read_bytes()


@given(st.integers(0, 2**32 - 1), st.sampled_from(["a3", "drawn", "pair"]))
@settings(max_examples=200, deadline=None)
def test_reduce_is_a_function_of_the_partition(seed, kind):
    # two shift chains of one perfect code reduce to the same file, and for
    # s = 3 it is the relaxed bundle of the code's partition with the whole
    # completion on terminal 3
    rng = np.random.default_rng(seed)
    if kind == "pair":
        m = int(rng.integers(2, 5))
        code = codec.make_code([gf2.BitMatrix.identity((1 << m) - 1), hcms.hamming_matrix(m)])
    elif kind == "a3":
        t_rows = 9
        g1 = int(rng.integers(t_rows + 1))
        g2 = int(rng.integers(t_rows - g1 + 1))
        code = hcms.hcms_for_a(3, g_split=(g1, g2, t_rows - g1 - g2)).code
    else:
        code = hcms.hcms_from_parts(hcms.random_sum_zero_partition(3, 6, rng)).code
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.txt"
        first = _bundle_bytes(equiv.reduce_to_ghcms(_shift_chain(code, rng)), path)
        assert _bundle_bytes(equiv.reduce_to_ghcms(_shift_chain(code, rng)), path) == first
        if code.s == 3:
            P = equiv._pair_partition(code)[0]
            Q = [P.take_cols(i * code.n, (i + 1) * code.n) for i in range(3)]
            tail = code.n - gf2.rank(gf2.vstack(Q[:2]))
            assert _bundle_bytes(ghcms.ghcms_build(Q, (0, 0, tail)), path) == first


@st.composite
def hcms_equivalents(draw):
    """(code, damage, seed): a perfect code equivalent to a direct HCMS, a
    coding-matrix bit (i, row, column) to flip, and a seed for members.

    The code is a random sum-zero partition of the mn-bit Hamming matrix
    (mn = 6, or 8 one time in eight, as it costs twice as much), assembled
    with a drawn split of T's rows; then a drawn part of the null space
    common to all terminals but from_r moved out of to_d's null space into
    from_r's; then each coding matrix times a random invertible matrix."""
    mn = 8 if draw(st.integers(0, 7)) == 7 else 6
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_rows = ((1 << mn) - 1) // 3 - 2 * mn
    g1 = draw(st.integers(0, t_rows))
    g2 = draw(st.integers(0, t_rows - g1))
    Q = hcms.random_sum_zero_partition(3, mn, rng)
    code = hcms.hcms_from_parts(Q, g_split=(g1, g2, t_rows - g1 - g2)).code
    prof = equiv.profile(code)
    from_r = draw(st.integers(0, 2))
    to_d = draw(st.sampled_from([i for i in range(3) if i != from_r]))
    common = gf2.subspace_intersect(*(prof[i] for i in range(3) if i != from_r))
    K = gf2.random_subspace_of(common, draw(st.integers(0, common.dim)), rng)
    code = equiv.shift_null_space(code, K, from_r, to_d)
    code = codec.make_code([gf2.random_invertible(H.rows, rng) @ H for H in code.matrices])
    i = draw(st.integers(0, 2))
    damage = (i, draw(st.integers(0, code.m[i] - 1)), draw(st.integers(0, code.n - 1)))
    return code, damage, draw(st.integers(0, 2**32 - 1))


@given(hcms_equivalents())
@settings(max_examples=200, deadline=None)
def test_reduce_recovers_every_equivalent_of_a_direct_hcms(case):
    # the paper's universality result as a property: each such code reduces
    # to a perfect bundle that loads again and decodes what it encodes; one
    # flipped bit that breaks perfectness makes reduce refuse the code
    code, (i, row, col), seed = case
    bundle, _ = equiv.reduce_with_report(code)
    assert codec.is_perfect(bundle.code)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reduced.txt"
        bundleio.write_bundle(path, bundle)
        loaded = bundleio.build_bundle(bundleio.read_file(path))
        x = sources.random_members(3, code.n, 200, np.random.default_rng(seed))
        back = codec.decoder(loaded.code).decode_batch(codec.encode_batch(loaded.code, x))
        assert all((b == a).all() for a, b in zip(x, back))

        bits = code.matrices[i].to_array()
        bits[row, col] ^= 1
        matrices = list(code.matrices)
        matrices[i] = gf2.BitMatrix.from_bits(bits)
        damaged = codec.make_code(matrices)
        bundleio.write_code_file(path, damaged)
        status, err = run_quiet(["reduce", str(path), "-o", str(Path(tmp) / "out.txt")])
        if codec.is_perfect(damaged):
            assert (status, err) == (0, "")
        else:
            assert status == 2 and err.startswith("error=NOT_PERFECT ")


def test_reduce_asymmetric_split(rng):
    asym = hcms.hcms_for_a(3, g_split=(9, 0, 0)).code
    bundle = equiv.reduce_to_ghcms(asym)
    assert codec.is_perfect(bundle.code)
    for _ in range(30):
        x = sources.random_member(3, 21, rng)
        assert ghcms.ghcms_decode(bundle, codec.encode(bundle.code, x)) == x


def test_reduce_two_source(pair_n7):
    bundle, report = equiv.reduce_with_report(pair_n7)
    assert bundle.s == 2
    assert codec.is_perfect(bundle.code)
    assert sorted(hcms._column_values(bundle.Q[0])) == list(range(1, 8))
    assert bundle.Q[0] == bundle.Q[1]
    # the report reads the output's null dims, the mirror of normalize_profile's
    assert report.normalized_profile_dims == tuple(N.dim for N in equiv.profile(bundle.code))
    assert report.normalized_profile_dims == (0, 4)
    assert [N.dim for N in equiv.profile(equiv.normalize_profile(pair_n7))] == [4, 0]


def test_reduce_requires_perfect():
    I3 = gf2.BitMatrix.identity(3)
    with pytest.raises(NotPerfectError):
        equiv.reduce_to_ghcms(codec.make_code([I3, I3, I3]))


def test_profile_roundtrip_through_matrices(bundle_a3):
    prof = equiv.profile(bundle_a3.code)
    rebuilt = equiv.code_from_profile(prof)
    assert equiv.profile(rebuilt) == prof
    assert codec.is_perfect(rebuilt)
