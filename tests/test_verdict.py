"""The compressibility verdict read from the code's one elimination.

``codec.is_compressible`` returns ``code.plan.compressible`` and builds no
witness.  Here that verdict is checked against the witness path
(``find_collision``) and against the explicit enumeration of S
(``brute_force_collision``) on random small codes.  The profile search's
coset test (``codec.compressible_grid``), which reads only the null spaces,
is checked against the verdict on random profiles, on a seeded sweep and
on every (5, 9) triple, and the search is checked to cross-check it
through the verdict on one triple per row split plus each profile found.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import codec, gf2
from swhamming.errors import BadArgumentError, BudgetExceededError, VerdictMismatchError


def matrix(bits) -> gf2.BitMatrix:
    return gf2.BitMatrix.from_bits(np.asarray(bits, dtype=np.uint8))


def rank_deficient(mats: list[gf2.BitMatrix], rng: np.random.Generator) -> list[gf2.BitMatrix]:
    """The matrices with a random nonzero v made a common null vector: for p
    the first position of v, H v is added to column p of each H."""
    n = mats[0].cols
    v = rng.integers(0, 2, size=n, dtype=np.uint8)
    v[int(rng.integers(n))] = 1
    p = int(np.argmax(v))
    out = []
    for H in mats:
        arr = H.to_array().copy()
        arr[:, p] ^= (arr.astype(np.int64) @ v % 2).astype(np.uint8)
        out.append(matrix(arr))
    return out


@st.composite
def small_codes(draw) -> codec.SwCode:
    """Codes at s = 2 and 3, n <= 5: random draws, the same draws with a
    common null vector, (I_n, random, ...) which mostly compress, and at
    s = 2 (G, P G) with G invertible, where both terminals deviating at one
    position give the same key and the same member of S."""
    s = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "rank_deficient", "identity_first", "same_position"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "same_position":
        G = gf2.random_invertible(n, rng)
        mats = [G, gf2.random_invertible(n, rng) @ G]
        if s == 3:
            mats.append(gf2.random_matrix(int(rng.integers(0, n + 1)), n, rng))
    else:
        mats = [gf2.random_matrix(int(rng.integers(0, n + 1)), n, rng) for _ in range(s)]
        if kind == "identity_first":
            mats[0] = gf2.BitMatrix.identity(n)
        elif kind == "rank_deficient":
            mats = rank_deficient(mats, rng)
    return codec.make_code(mats)


def check_verdict(code: codec.SwCode) -> bool:
    verdict = codec.is_compressible(code)
    assert verdict == (codec.brute_force_collision(code) is None)
    assert verdict == (codec.find_collision(code) is None)
    return verdict


@given(code=small_codes())
@settings(max_examples=200, deadline=None)
def test_verdict_matches_witness_and_brute_force(code):
    check_verdict(code)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_identities_compress(n):
    # (I_n, I_n): both terminals deviating at position p make one member of S
    assert check_verdict(codec.make_code([gf2.BitMatrix.identity(n)] * 2))


def test_common_null_vector_collides():
    code = codec.make_code([matrix([[1, 1, 0]]), matrix([[0, 1, 1]]), matrix([[1, 0, 1]])])
    assert not code.plan.full_rank
    assert not check_verdict(code)


def random_subspace(n: int, d: int, rng: np.random.Generator) -> gf2.Subspace:
    """The span of d random vectors of GF(2)^n: dimension d or less."""
    return gf2.Subspace(n, gf2.random_matrix(d, n, rng))


def coset_verdict(profile) -> bool:
    n = profile[0].n
    return bool(codec.compressible_grid([codec.coset_masks([N], n) for N in profile]).item())


def plan_verdict(profile) -> bool:
    return codec.is_compressible(codec.make_code([gf2.matrix_with_null_space(N) for N in profile]))


@given(
    n=st.integers(2, 7),
    s=st.integers(3, 5),
    dims=st.lists(st.integers(0, 6), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_coset_test_matches_the_plan(n, s, dims, seed):
    # n = 7 gives two-word masks
    rng = np.random.default_rng(seed)
    profile = [random_subspace(n, min(d, n - 1), rng) for d in dims[:s]]
    assert coset_verdict(profile) == plan_verdict(profile)


def test_coset_test_sweep_meets_both_verdicts():
    rng = np.random.default_rng(20261019)
    verdicts = []
    for _ in range(1200):
        n, s = int(rng.integers(2, 8)), int(rng.integers(3, 6))
        profile = [random_subspace(n, int(rng.integers(0, n)), rng) for _ in range(s)]
        verdicts.append(coset_verdict(profile))
        assert verdicts[-1] == plan_verdict(profile)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("dims", [(2, 2, 2), (0, 1, 2), (1, 1, 1)])
def test_coset_grid_matches_the_plan_on_every_triple(dims):
    # (2, 2, 2) is the (5, 9) search; the others meet both verdicts
    cands = {d: codec.admissible_null_spaces(5, d) for d in set(dims)}
    grid = codec.compressible_grid([codec.coset_masks(cands[d], 5) for d in dims])
    triples = list(itertools.product(*(cands[d] for d in dims)))
    assert grid.shape == tuple(len(cands[d]) for d in dims)
    assert grid.ravel().tolist() == [plan_verdict(t) for t in triples]
    assert grid.any() == (dims != (2, 2, 2))


def test_coset_test_needs_three_terminals():
    masks = codec.coset_masks([gf2.Subspace.zero(3)], 3)
    with pytest.raises(BadArgumentError):
        codec.compressible_grid([masks, masks])


def test_search_cross_checks_one_triple_per_row_split(monkeypatch):
    # a caller can time or count the cross-checks by wrapping the module
    # binding; the coset test decides the rest, and no witness is built
    calls = []
    real = codec.is_compressible

    def counting(code):
        calls.append(1)
        return real(code)

    def no_witness(*args):
        raise AssertionError("witness built during the search")

    monkeypatch.setattr(codec, "is_compressible", counting)
    monkeypatch.setattr(codec, "_collision_from_pattern", no_witness)
    result = codec.search_perfect_null_spaces(5, 9, jobs=1)
    assert result.triples_tested == 3375 and result.profiles == []
    assert len(calls) == len(result.assignments_admissible) == 1
    calls.clear()
    # (1, 3): the one triple is also the one profile, checked once
    result = codec.search_perfect_null_spaces(1, 3, jobs=1)
    assert len(calls) == len(result.profiles) == 1


@pytest.mark.parametrize("n, M, found", [(5, 9, 0), (1, 3, 1)])
def test_search_refuses_a_verdict_the_plan_contradicts(monkeypatch, n, M, found):
    # the cross-checked triples are the first of the row split and the profiles
    monkeypatch.setattr(codec, "is_compressible", lambda code: found == 0)
    with pytest.raises(VerdictMismatchError, match="the coset test says"):
        codec.search_perfect_null_spaces(n, M)


def test_search_budget_counts_the_coset_masks():
    # 3375 triples fit; their masks (3 x 15 words) and one grid (3375) do not
    with pytest.raises(BudgetExceededError, match="coset masks of 3420 words"):
        codec.search_perfect_null_spaces(5, 9, budget=3400)
    assert codec.search_perfect_null_spaces(5, 9, budget=3420).triples_tested == 3375
