"""The compressibility verdict read from the code's one elimination.

``codec.is_compressible`` returns ``code.plan.compressible`` and builds no
witness.  Here that verdict is checked against the witness path
(``find_collision``) and against the explicit enumeration of S
(``brute_force_collision``) on random small codes, and the profile search
is checked to ask for it exactly once per triple.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import codec, gf2


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


def test_search_asks_for_the_verdict_once_per_triple(monkeypatch):
    # a caller can time or count the tests by wrapping the module binding,
    # and the search builds no witness for the triples that collide
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
    assert len(calls) == result.triples_tested == 3375
    assert result.profiles == []
