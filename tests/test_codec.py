"""Encoding, the algebraic compressibility decision, and the profile search.

The sumset pattern characterization that the fast test relies on is itself
validated here against an explicit enumeration of S + S before anything
else trusts it.
"""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from decode_oracle import DecodeTable
from helpers import span_values
from swhamming import bundleio, cli, codec, gf2, sources
from swhamming.errors import (
    BudgetExceededError,
    NotInImageError,
    ParamsNotPerfectError,
)


def random_code(s, n, rng):
    m = [int(rng.integers(1, n + 1)) for _ in range(s)]
    return codec.make_code([gf2.random_matrix(mi, n, rng) for mi in m])


# ---------------------------------------------------------------------------
# the sumset pattern characterization
# ---------------------------------------------------------------------------


def in_pattern_families(ms) -> bool:
    """Membership in the five u-pattern families: some common block c with
    at most two deviating terminals, deviations of weight <= 2 for a single
    deviant and weight 1 each for a pair."""
    for c in ms:
        deviants = [m for m in ms if m != c]
        if not deviants:
            return True
        if len(deviants) == 1 and (deviants[0] + c).weight() <= 2:
            return True
        if len(deviants) == 2 and all((d + c).weight() == 1 for d in deviants):
            return True
    return False


@pytest.mark.parametrize("s,n", [(2, 3), (3, 3), (3, 4)])
def test_pattern_families_match_brute_force_sumset(s, n):
    members = list(sources.enumerate_hamming_sources(s, n))
    sumset = set()
    for a in members:
        for b in members:
            sumset.add(tuple((va + vb).tobytes() for va, vb in zip(a, b)))
    for bits in itertools.product(range(1 << n), repeat=s):
        ms = tuple(
            gf2.BitVector.from_bits((v >> j) & 1 for j in range(n)) for v in bits
        )
        key = tuple(m.tobytes() for m in ms)
        assert (key in sumset) == in_pattern_families(ms), ms


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_trivial(trivial_code):
    x = tuple(gf2.BitVector.from_bits([b]) for b in (1, 1, 0))
    y = codec.encode(trivial_code, x)
    assert [v.to01() for v in y] == ["1", "1", "0"]


def test_encode_zero_and_linearity(rng):
    code = random_code(3, 6, rng)
    zero = tuple(gf2.BitVector.zeros(6) for _ in range(3))
    assert all(v.is_zero() for v in codec.encode(code, zero))
    for _ in range(20):
        x = tuple(gf2.random_matrix(1, 6, rng).row(0) for _ in range(3))
        xp = tuple(gf2.random_matrix(1, 6, rng).row(0) for _ in range(3))
        lhs = codec.encode(code, tuple(a + b for a, b in zip(x, xp)))
        rhs = tuple(a + b for a, b in zip(codec.encode(code, x), codec.encode(code, xp)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# compressibility
# ---------------------------------------------------------------------------


def test_trivial_code_compressible_and_perfect(trivial_code):
    assert codec.is_compressible(trivial_code)
    assert codec.is_perfect(trivial_code)


def test_weight_one_null_vector_is_caught():
    # null(H_1) containing e_i collides (e_i, 0, 0) with the zero tuple
    H1 = gf2.BitMatrix.from_bits([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    H2 = gf2.BitMatrix.identity(5)
    code = codec.make_code([H1, H2, H2])
    pair = codec.find_collision(code)
    assert pair is not None
    a, b = pair
    assert codec.encode(code, a) == codec.encode(code, b)


def test_collision_agrees_with_brute_force(rng):
    for s, n in [(2, 3), (3, 3), (3, 4), (3, 5)]:
        for _ in range(50):
            code = random_code(s, n, rng)
            fast = codec.find_collision(code)
            slow = codec.brute_force_collision(code)
            assert (fast is None) == (slow is None)
            if fast is not None:
                a, b = fast
                assert sources.is_hamming_member(a) and sources.is_hamming_member(b)
                assert a != b
                assert codec.encode(code, a) == codec.encode(code, b)


def test_two_source_same_position_family(rng):
    # codes where both terminals share a null direction only through the
    # all-equal family must not be reported incompressible spuriously
    I2 = gf2.BitMatrix.identity(2)
    code = codec.make_code([I2, I2])
    assert codec.is_compressible(code)


# ---------------------------------------------------------------------------
# perfectness
# ---------------------------------------------------------------------------


def test_is_perfect_hamming_pair(pair_n7):
    assert codec.is_perfect(pair_n7)


def test_redundant_row_breaks_perfectness(trivial_code):
    H1 = gf2.BitMatrix.from_bits([[1], [1]])  # duplicate row, rank 1
    one = gf2.BitMatrix.from_bits([[1]])
    padded = codec.make_code([H1, one, one])
    assert codec.is_compressible(padded)
    assert not codec.is_perfect(padded)


def test_wasteful_code_not_perfect():
    I3 = gf2.BitMatrix.identity(3)
    code = codec.make_code([I3, I3])
    assert codec.is_compressible(code)
    assert not codec.is_perfect(code)


# ---------------------------------------------------------------------------
# table decoding
# ---------------------------------------------------------------------------


def test_decode_table_trivial(trivial_code):
    table = DecodeTable(trivial_code)
    for x in sources.enumerate_hamming_sources(3, 1):
        assert table.decode(codec.encode(trivial_code, x)) == x


def test_decode_table_hamming_pair(pair_n7):
    table = DecodeTable(pair_n7)
    count = 0
    for x in sources.enumerate_hamming_sources(2, 7):
        assert table.decode(codec.encode(pair_n7, x)) == x
        count += 1
    assert count == 1024
    zero = tuple(gf2.BitVector.zeros(mi) for mi in pair_n7.m)
    assert all(v.is_zero() for v in table.decode(zero))


def test_perfect_code_decodes_full_product_space(trivial_code, pair_n7):
    # perfectness makes encoding a bijection from S onto all syndrome tuples
    for code in (trivial_code, pair_n7):
        table = DecodeTable(code)
        total = 0
        for vals in itertools.product(*(range(1 << mi) for mi in code.m)):
            y = tuple(
                gf2.BitVector.from_bits((v >> j) & 1 for j in range(mi))
                for v, mi in zip(vals, code.m)
            )
            x = table.decode(y)  # must never raise NotInImage
            assert codec.encode(code, x) == y
            total += 1
        assert total == sources.hamming_source_size(code.s, code.n)


def test_decode_table_not_in_image():
    I3 = gf2.BitMatrix.identity(3)
    code = codec.make_code([I3, I3])
    table = DecodeTable(code)
    y = (gf2.BitVector.zeros(3), gf2.BitVector.from_bits([1, 1, 1]))
    with pytest.raises(NotInImageError):
        table.decode(y)


def test_decode_table_budget(pair_n7):
    with pytest.raises(BudgetExceededError):
        DecodeTable(pair_n7, budget=100)


# ---------------------------------------------------------------------------
# profile search
# ---------------------------------------------------------------------------


def _members(N):
    """The 2^dim members of N as ints, the zero vector first."""
    return span_values([N.basis.row(i).value for i in range(N.dim)])


def test_admissible_subspace_counts():
    # dimension 2 in length 5: spans of two weight-3 vectors staying at
    # weight >= 3; exactly 15 of them
    assert len(codec.admissible_null_spaces(5, 2)) == 15
    assert len(codec.admissible_null_spaces(5, 0)) == 1
    assert codec.admissible_null_spaces(5, 3) == []
    assert codec.admissible_null_spaces(5, 4) == []
    for N in codec.admissible_null_spaces(5, 2):
        assert min(v.bit_count() for v in _members(N)[1:]) >= 3


def test_admissible_subspaces_weight_pruning():
    for N in codec.admissible_null_spaces(6, 2):
        for v in _members(N):
            assert v == 0 or v.bit_count() >= 3


def test_search_no_perfect_code_at_n5():
    result = codec.search_perfect_null_spaces(5, 9)
    assert result.profiles == []
    assert result.triples_tested == 15**3
    assert result.assignments_admissible == [(3, 3, 3)]
    assert result.candidate_counts[3] == 0 and result.candidate_counts[4] == 0


def test_search_trivial_case():
    result = codec.search_perfect_null_spaces(1, 3)
    assert len(result.profiles) == 1
    assert all(N.dim == 0 for N in result.profiles[0])


def test_search_rejects_bad_params():
    with pytest.raises(ParamsNotPerfectError):
        codec.search_perfect_null_spaces(4, 8)


def test_search_budget():
    with pytest.raises(BudgetExceededError):
        codec.search_perfect_null_spaces(5, 9, budget=10)


def test_gaussian_binomial():
    assert codec.gaussian_binomial(5, 2) == 155
    assert codec.gaussian_binomial(4, 0) == 1
    assert codec.gaussian_binomial(3, 4) == 0


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_code_file_roundtrip(pair_n7, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(codec.format_code(pair_n7))
    back = bundleio.read_file(path).code
    assert back == pair_n7


def test_syndrome_file_roundtrip(pair_n7, rng):
    groups = [
        codec.encode(pair_n7, sources.random_member(2, 7, rng)) for _ in range(4)
    ]
    text = sources.format_tuples(groups)
    assert list(codec.iter_syndromes(text.splitlines(), pair_n7.m)) == groups


def test_code_is_its_matrices():
    H, row, empty = gf2.BitMatrix.identity(3), gf2.BitMatrix.zeros(1, 3), gf2.BitMatrix.zeros(0, 3)
    code = codec.make_code([H, row, empty])
    assert (code.s, code.n, code.m) == (3, 3, (3, 1, 0))
    assert code == codec.SwCode((H, row, empty)) == codec.make_code(iter([H, row, empty]))
    bad = [[], [H], [H, gf2.BitMatrix.identity(4)], [H, H, row.transpose()], [empty.transpose()] * 2]
    for mats in bad:
        with pytest.raises(ValueError):
            codec.make_code(mats)


# verify of rank-deficient codes (a common null vector is the witness):
# (s, n, m, seed) of a random code, a zero-row one among them, and the
# sum of verify's stdout
RANK_DEFICIENT = [
    (
        (2, 8192, (0, 0), 0),
        "11baeb294612fd581eb26c2f33a52f4d758c4fbf82a6ce264e8e205e687a206c",
    ),
    (
        (3, 40, (5, 6, 7), 1),
        "3c67be0d6f150c0b187cea4137b47205e7f966fbfb9f8454388fcb19b2054097",
    ),
    (
        (3, 12, (4, 4, 3), 2),
        "11e012c70be00bedc27818931802f75deec0d00c07a277518b6d0c1e1a03a11c",
    ),
    (
        (4, 70, (20, 0, 9, 30), 3),
        "fcf8fb9ee09f34ed9eedd3f3a4a6eebfb98d9ca25ed9bd8e9a16400f49861d77",
    ),
]


def rank_deficient_code(s, n, m, seed):
    rng = np.random.default_rng(seed)
    return codec.make_code([gf2.random_matrix(mi, n, rng) for mi in m])


@pytest.mark.parametrize(
    "params, want", RANK_DEFICIENT, ids=[f"s{p[0]}n{p[1]}" for p, _ in RANK_DEFICIENT]
)
def test_rank_deficient_witness_output(tmp_path, capsys, params, want):
    path = tmp_path / "code.txt"
    bundleio.write_code_file(path, rank_deficient_code(*params))
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "compressible=false" in out
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_rank_deficient_witness_builds_one_null_vector():
    code = rank_deficient_code(2, 8192, (0, 0), 0)
    tracemalloc.start()
    try:
        a, b = codec.find_collision(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a[0] == a[1] == gf2.BitVector.unit(8192, 0) and b[0].is_zero()
    # the whole null-space basis would be 8192 x 8192 bytes, 64 MiB
    assert peak < 4 << 20
