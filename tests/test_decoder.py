"""The one decoder, ``codec.decoder``, against the syndrome-table oracle.

Every compressible code decodes through its plan: one elimination of
[H_1; ...; H_s | I], or, for a checked bundle, the plan read off its
sections.  On small codes the oracle enumerates S, so the two
can be compared on every syndrome tuple of the product space, inside the
image of S and outside it.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decode_oracle import DecodeTable, reference_decode, reference_keys
from swhamming import bundleio, cli, codec, equiv, gf2, ghcms, hcms, sources
from swhamming.errors import NotCompressibleError, NotInImageError

MAX_M = 10


def matrix(bits) -> gf2.BitMatrix:
    return gf2.BitMatrix.from_bits(bits)


# perfect codes small enough for the product space: (s, n) = (2, 1), (2, 3), (3, 1)
PERFECT = {
    2: [[matrix([[1]]), matrix([[1]])], [gf2.BitMatrix.identity(3), hcms.hamming_matrix(2)]],
    3: [[matrix([[1]])] * 3],
}


def distinct_columns(m: int, n: int, rng: np.random.Generator) -> gf2.BitMatrix:
    """An m x n matrix with distinct nonzero columns (needs n < 2^m)."""
    vals = rng.choice(np.arange(1, 1 << m), size=n, replace=False)
    return matrix((vals[None, :] >> np.arange(m)[:, None]) & 1)


def random_compressible(s: int, rng: np.random.Generator) -> codec.SwCode:
    """A compressible code at n <= 6 with at most MAX_M syndrome bits: a
    perfect one; or (I_n, H_1, ..., H_(s-1)) with distinct nonzero columns
    in each H_i, which tells every deviation apart; or a random draw that
    happens to compress.  Then maybe one more random row somewhere, and a
    shuffle of the terminals and of the positions, which maps S onto S."""
    kind = int(rng.integers(3))
    mats = None
    if kind == 1:
        n = int(rng.integers(1, 7 if s == 2 else 5))
        k = n.bit_length()
        mats = [gf2.BitMatrix.identity(n)] + [distinct_columns(k, n, rng) for _ in range(s - 1)]
    elif kind == 2:
        n = int(rng.integers(1, 4))
        for _ in range(200):
            m = rng.integers(0, n + 1, size=s)
            draw = codec.make_code([gf2.random_matrix(int(mi), n, rng) for mi in m])
            if sum(draw.m) <= MAX_M and codec.is_compressible(draw):
                mats = list(draw.matrices)
                break
    if mats is None:
        mats = list(PERFECT[s][int(rng.integers(len(PERFECT[s])))])
    n = mats[0].cols
    if sum(H.rows for H in mats) < MAX_M and rng.integers(2):
        i = int(rng.integers(s))
        mats[i] = gf2.vstack([mats[i], gf2.random_matrix(1, n, rng)])
    cols = rng.permutation(n)
    mats = [matrix(mats[i].to_array()[:, cols]) for i in rng.permutation(s)]
    code = codec.make_code(mats)
    if not codec.is_compressible(code):
        raise AssertionError("the generator made a code that does not compress S")
    return code


def row_transformed(code: codec.SwCode, rng: np.random.Generator) -> codec.SwCode:
    """Each H_i replaced by A_i H_i for a random invertible A_i: the same
    null spaces, so the same compressibility and perfectness."""
    return codec.make_code([gf2.random_invertible(H.rows, rng) @ H for H in code.matrices])


def product_space(m) -> list[np.ndarray]:
    """Every syndrome tuple, as one (2^M, m_i) 0/1 array per terminal."""
    M = sum(m)
    bits = ((np.arange(1 << M)[:, None] >> np.arange(M)) & 1).astype(np.uint8)
    offsets = np.cumsum([0, *m])
    return [bits[:, a:b] for a, b in zip(offsets, offsets[1:])]


def check_against_oracle(code: codec.SwCode) -> None:
    table, decoder = DecodeTable(code), codec.decoder(code)
    parts = product_space(code.m)
    inside, members = [], []
    for r in range(parts[0].shape[0]):
        y = tuple(gf2.BitVector.from_bits(p[r]) for p in parts)
        try:
            want = table.decode(y)
        except NotInImageError:
            with pytest.raises(NotInImageError):
                decoder.decode(y)
            continue
        assert decoder.decode(y) == want
        inside.append(r)
        members.append(want)
    # the batch path, on the whole image at once
    blocks = decoder.decode_batch([p[inside] for p in parts])
    for i in range(code.s):
        assert np.array_equal(blocks[i], np.stack([x[i].to_array() for x in members]))
    if codec.is_perfect(code):
        assert len(inside) == parts[0].shape[0]


@settings(max_examples=30, deadline=None)
@given(s=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_decoder_matches_table_oracle(s, seed):
    rng = np.random.default_rng(seed)
    code = random_compressible(s, rng)
    check_against_oracle(code)
    check_against_oracle(row_transformed(code, rng))


def test_decoder_refuses_non_compressible_code():
    # (e_0, 0, 0) and (e_1, 0, 0) share every syndrome
    code = codec.make_code([matrix([[1, 1]])] * 3)
    with pytest.raises(NotCompressibleError):
        DecodeTable(code)
    with pytest.raises(NotCompressibleError):
        codec.decoder(code)


def counted(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that records each call; returns
    the list of calls."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_inversion_per_verify_of_relaxed_bundle(tmp_path, monkeypatch, bundle_a4):
    # the reduced bundle of a shifted a = 4 code, completed on terminal 3
    # by a T that is not unit rows but a canonical check, in RREF, so
    # loading it inverts R once, through the r x (n + r) system on T's
    # kernel and never n x 2n; the plan is read off the sections, with
    # that R^-1 for its top rows, and eliminates nothing.  T is the check
    # of the normalized shifted code's last null space plus a complement
    # of null(Q_3)
    rng = np.random.default_rng(1)
    code = bundle_a4.code
    prof = equiv.profile(code)
    K = gf2.random_subspace_of(gf2.subspace_intersect(prof[1], prof[2]), 2, rng)
    moved = equiv.shift_null_space(code, K, 0, 2)
    canon = equiv.reduce_to_ghcms(moved)
    kept = equiv.profile(equiv.normalize_profile(moved))[2]
    outside = gf2.complement(gf2.null_space(canon.Q[2]), gf2.Subspace.full(code.n))
    T = gf2.matrix_with_null_space(gf2.subspace_sum(kept, outside))
    reduced = hcms.assemble(canon.Q, canon.C, (0, 0, T.rows), T, E=canon.E, D=canon.D)
    assert reduced.C is not None and reduced.T.to_array().sum(axis=1).max() > 1
    path = tmp_path / "reduced.txt"
    bundleio.write_bundle(path, reduced)
    inversions = counted(monkeypatch, hcms, "_unit_completion_inverse")
    full_inversions = counted(monkeypatch, hcms, "invert")
    eliminations = counted(monkeypatch, codec, "echelon_augmented")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(path), "--roundtrip", "300"]) == 0
    assert "roundtrip=300/300 path=algebraic" in out.getvalue()
    assert len(inversions) == 1 and full_inversions == [] and eliminations == []


# ---------------------------------------------------------------------------
# the plan read off a bundle against the elimination plan
# ---------------------------------------------------------------------------

A3 = hcms.a3_partition()


def random_split(rows: int, s: int, rng: np.random.Generator) -> tuple[int, ...]:
    cuts = np.sort(rng.integers(0, rows + 1, size=s - 1))
    return tuple(int(g) for g in np.diff([0, *cuts, rows]))


def random_bundle(kind: str, rng: np.random.Generator) -> hcms.Bundle:
    """A bundle whose sections certify its code, built by ``assemble``.
    s = 3: the a = 3 partition, maybe shortened by up to three positions
    outside the stack's pivot columns (so the code is not perfect and has
    syndromes outside the image of S), direct, or relaxed with C_i = A_i
    row_basis(Q_i) for random invertible A_i.  s = 2: a random surjective
    H with distinct nonzero columns, both blocks H and both C_i its row
    basis, not perfect unless H is a whole Hamming matrix."""
    if kind == "trivial":
        P = hcms.hamming_matrix(2)
        return ghcms.ghcms_build(tuple(P.take_cols(j, j + 1) for j in range(3)))
    if kind == "pair":
        mn = int(rng.integers(2, 5))
        n = int(rng.integers(mn, (1 << mn)))
        while True:
            H = distinct_columns(mn, n, rng)
            if gf2.rank(H) == mn:
                break
        C = gf2.row_basis(H)
        return hcms.assemble((H, H), (C, C), random_split(n - mn, 2, rng), None)
    dropped = int(rng.integers(4))
    keep = np.concatenate([np.arange(12), np.sort(rng.permutation(np.arange(12, 21))[dropped:])])
    Q = tuple(matrix(Qi.to_array()[:, keep]) for Qi in A3)
    C = None
    if kind == "relaxed":
        C = tuple(gf2.random_invertible(6, rng) @ gf2.row_basis(Qi) for Qi in Q)
    return hcms.assemble(Q, C, random_split(len(keep) - 12, 3, rng), None)


def decode_outcome(plan: codec.CodePlan, parts) -> list[np.ndarray] | str:
    try:
        return plan.decode_batch(parts)
    except NotInImageError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["direct", "relaxed", "pair", "trivial"]), seed=st.integers(0, 2**32 - 1))
def test_bundle_plan_matches_elimination_plan(kind, seed):
    rng = np.random.default_rng(seed)
    bundle = random_bundle(kind, rng)
    code = bundle.code
    plan, oracle = code.plan, codec.CodePlan(code)
    assert not hasattr(plan, "_echelon"), "the bundle's plan was eliminated"
    assert plan.compressible and oracle.compressible
    assert plan.collision is oracle.collision is None
    assert plan.top @ gf2.vstack(code.matrices) == gf2.BitMatrix.identity(code.n)
    # members of S, then the same with some tuples replaced by uniform
    # syndrome tuples, which miss the image of S unless the code is perfect
    xs = [sources.random_member(code.s, code.n, rng) for _ in range(30)]
    inside = [np.stack([x[i].to_array() for x in xs]) for i in range(code.s)]
    ys = codec.encode_batch(code, inside)
    assert all(np.array_equal(g, x) for g, x in zip(plan.decode_batch(ys), inside))
    replaced = rng.random(30) < 0.2
    for y in ys:
        y[replaced] = rng.integers(0, 2, size=(int(replaced.sum()), y.shape[1]), dtype=np.uint8)
    got, want = decode_outcome(plan, ys), decode_outcome(oracle, ys)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def damaged_a3(fault: str) -> tuple[gf2.BitMatrix, ...]:
    """The a = 3 partition with a damaged third block: two columns swapped,
    so the columns stay distinct but the blocks do not sum to zero, or a
    column repeated (and the second block mended to keep the sum zero).
    Only the third block, or columns outside the stack's pivot columns,
    change, so [Q_1; Q_2] keeps full row rank."""
    Q1, Q2, Q3 = (Qi.to_array() for Qi in A3)
    if fault == "sum":
        Q3[:, [15, 16]] = Q3[:, [16, 15]]
    else:
        Q3[:, 15] = Q3[:, 16]
        Q2[:, 15] = Q1[:, 15] ^ Q3[:, 15]
    return tuple(matrix(Qi) for Qi in (Q1, Q2, Q3))



@pytest.mark.parametrize("fault", ["sum", "repeated"])
def test_damaged_bundle_falls_back_to_elimination(tmp_path, fault):
    bundle = hcms.assemble(damaged_a3(fault), None, None, None)
    assert codec.CodePlan.from_bundle(bundle) is None
    assert hasattr(bundle.code.plan, "_echelon")
    # verify of the bundle file prints the verdict and the witness that the
    # plain code file of the same code gets
    bundle_path, code_path = tmp_path / "bundle.txt", tmp_path / "code.txt"
    bundleio.write_bundle(bundle_path, bundle)
    bundleio.write_code_file(code_path, bundle.code)
    reports = []
    for path in (bundle_path, code_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify", str(path)]) == 1
        reports.append(out.getvalue())
    assert "compressible=false" in reports[0] and "counterexample" in reports[0]
    assert reports[0].replace("kind=hcms", "kind=code", 1) == reports[1]


def test_rank_deficient_bundle_falls_back_to_elimination(tmp_path):
    # a file whose sections agree but whose C_i repeat a row: s = 2, n = 1,
    # Q_1 = Q_2 = (1, 0, 0)^T, C_i = (1, 1)^T.  Its keys are distinct and
    # nonzero and M - n = 3 = P.rows, but rank P = 1, so the closed-form F
    # would not span the left null space, and (1, 0), (0, 0) would decode
    # instead of being refused
    Q = matrix([[1], [0], [0]])
    C = matrix([[1], [1]])
    D, E = matrix([[1, 0, 0], [1, 0, 0]]), matrix([[1, 0], [0, 0], [0, 0]])
    bundle = hcms.Bundle(codec.make_code([C, C]), E=(E, E), Y=matrix([[1]]), D=(D, D))
    path = tmp_path / "b.txt"
    bundleio.write_bundle(path, bundle)
    loaded = bundleio.build_bundle(bundleio.read_file(path))
    assert codec.CodePlan.from_bundle(loaded) is None
    plan = codec.decoder(loaded.code)
    with pytest.raises(NotInImageError):
        plan.decode_batch([np.array([[1, 0]], dtype=np.uint8), np.array([[0, 0]], dtype=np.uint8)])


# ---------------------------------------------------------------------------
# the sorted key check and lookup against the per-key scan
# ---------------------------------------------------------------------------


def keyed_code(kind: str, s: int, rng: np.random.Generator) -> codec.SwCode:
    """A code whose deviation keys show one case of the key check.
    "distinct": (I_n, H_2, ..., H_s), each H_i with distinct nonzero
    columns, so every key is nonzero and distinct but for s = 2, where
    (0, p) and (1, p) share a key: compressible.  "zero" and "repeat": the
    same with a column of some H_i zeroed or copied onto another, a zero or
    a repeated key.  "square": the rows of a random invertible n x n
    matrix dealt to the terminals, M = n, so every key is zero bits wide.
    "random": uniform matrices with up to n + 1 rows.  "identity": s
    copies of I_n, which compress S but are perfect only for s = 2, n = 1.
    "perfect": a perfect code (see :func:`perfect_code`).  Then the
    terminals and positions are shuffled, and each H_i replaced by A_i H_i."""
    n = int(rng.integers(1, 7))
    if kind == "perfect":
        mats = perfect_code(s, rng)
        n = mats[0].cols
    elif kind == "identity":
        mats = [gf2.BitMatrix.identity(n)] * s
    elif kind == "square":
        rows = gf2.random_invertible(n, rng).to_array()
        cuts = np.sort(rng.integers(0, n + 1, size=s - 1))
        mats = [matrix(block) for block in np.split(rows, cuts)]
    elif kind == "random":
        mats = [gf2.random_matrix(int(rng.integers(0, n + 2)), n, rng) for _ in range(s)]
    else:
        mats = [gf2.BitMatrix.identity(n)]
        mats += [distinct_columns(n.bit_length(), n, rng) for _ in range(s - 1)]
        i = int(rng.integers(1, s))
        H = mats[i].to_array()
        p, q = rng.permutation(n)[:2] if n > 1 else (0, 0)
        if kind == "zero":
            H[:, p] = 0
        elif kind == "repeat":
            H[:, q] = H[:, p]
        mats[i] = matrix(H)
    cols = rng.permutation(n)
    mats = [matrix(mats[i].to_array()[:, cols]) for i in rng.permutation(s)]
    return row_transformed(codec.make_code(mats), rng)


def perfect_code(s: int, rng: np.random.Generator) -> list[gf2.BitMatrix]:
    """The matrices of a perfect code of s terminals: one of ``PERFECT``,
    or (I_n, H) with H the 3-row Hamming matrix (n = 7) for s = 2, the
    partition of a random line spread (n = 21) for s = 3, and a random
    partition at n = 51 for s = 5.  s = 4 has none: 4 n + 1 is odd."""
    if s in PERFECT and rng.integers(2):
        return list(PERFECT[s][int(rng.integers(len(PERFECT[s])))])
    if s == 2:
        return [gf2.BitMatrix.identity(7), hcms.hamming_matrix(3)]
    Q = hcms.random_sum_zero_partition(s, {3: 6, 5: 8}[s], rng)
    return list(hcms.hcms_from_parts(Q).code.matrices)


def reference_outcome(plan: codec.CodePlan, deviation, parts) -> list[np.ndarray] | str:
    try:
        return reference_decode(plan, deviation, parts)
    except NotInImageError as exc:
        return str(exc)


def check_keys_against_reference(code: codec.SwCode, rng: np.random.Generator) -> None:
    plan = codec.CodePlan(code)
    if not plan.full_rank:
        assert plan.collision is None and plan.key_matrix is None
        return
    collision, deviation = reference_keys(plan.key_matrix, code.s, code.n)
    assert plan.collision == collision
    if collision is not None:
        return
    # the dense key table for a perfect code, the sorted search otherwise
    assert (plan._tables[3] is not None) == codec.is_perfect(code)
    # members of S, then the same with some tuples replaced by uniform
    # syndrome tuples, each chunk through both lookups
    xs = [sources.random_member(code.s, code.n, rng) for _ in range(20)]
    inside = [np.stack([x[i].to_array() for x in xs]) for i in range(code.s)]
    ys = codec.encode_batch(code, inside)
    assert all(np.array_equal(g, x) for g, x in zip(plan.decode_batch(ys), inside))
    replaced = rng.random(20) < 0.3
    for y in ys:
        y[replaced] = rng.integers(0, 2, size=(int(replaced.sum()), y.shape[1]), dtype=np.uint8)
    for chunk in (ys, [y[:0] for y in ys]):
        got, want = decode_outcome(plan, chunk), reference_outcome(plan, deviation, chunk)
        if isinstance(want, str):
            assert got == want
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["distinct", "zero", "repeat", "square", "random", "identity", "perfect"]),
    s=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_sorted_keys_match_per_key_scan(kind, s, seed):
    assume(kind != "perfect" or s != 4)
    rng = np.random.default_rng(seed)
    check_keys_against_reference(keyed_code(kind, s, rng), rng)


@pytest.mark.parametrize("n", [3, 7])
def test_perfect_pair_decodes_every_syndrome_tuple(pair_n7, n):
    # a perfect code maps S onto all 2^M syndrome tuples, the bijection the
    # dense key table relies on: each tuple decodes to a member of S that
    # encodes to it
    pair = codec.make_code([gf2.BitMatrix.identity(3), hcms.hamming_matrix(2)])
    code = pair if n == 3 else pair_n7
    plan = codec.decoder(code)
    assert plan._tables[3] is not None
    parts = product_space(code.m)
    blocks = plan.decode_batch(parts)
    for x in zip(*blocks):
        assert sources.is_hamming_member([gf2.BitVector.from_bits(b) for b in x])
    assert all(np.array_equal(y, p) for y, p in zip(codec.encode_batch(code, blocks), parts))


@pytest.mark.parametrize(
    "mats, collision",
    [
        # every key nonzero and distinct
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 0], [0, 1, 1]]], None),
        # a zero column in H_2: the key of (1, 2) is zero
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 1]]], (1, 2, None, None)),
        # H_3 repeats a column: the keys of (2, 0) and (2, 2) are equal
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 1], [0, 1, 0]]], (2, 0, 2, 2)),
        # s = 2: only same-position keys are equal, so the code compresses S
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 1]]], None),
        # s = 2 with a cross-position repeat: columns 0 and 2 of H_2 are equal
        ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0]]], (0, 0, 0, 2)),
        # M = n: every key is zero bits wide, so the first one is zero
        ([[[1, 0], [0, 1]], np.zeros((0, 2), dtype=np.uint8)], (0, 0, None, None)),
        ([[[1, 1, 0]], [[0, 1, 0]], [[0, 0, 1]], np.zeros((0, 3), dtype=np.uint8)], (0, 0, None, None)),
    ],
)
def test_key_check_cases(monkeypatch, mats, collision):
    # no zero-width void item is ever made, not even for M = n
    widths = []
    real = codec.sort_rows

    def recording(rows):
        widths.append(rows.shape[1])
        return real(rows)

    monkeypatch.setattr(codec, "sort_rows", recording)
    n = len(mats[0][0])
    code = codec.make_code([matrix(np.asarray(H, dtype=np.uint8).reshape(-1, n)) for H in mats])
    assert codec.CodePlan(code).collision == collision
    check_keys_against_reference(code, np.random.default_rng(0))
    assert 0 not in widths
