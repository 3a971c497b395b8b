"""The one decoder, ``codec.decoder``, against the syndrome-table oracle.

Every compressible code decodes through its one elimination of
[H_1; ...; H_s | I].  On small codes the oracle enumerates S, so the two
can be compared on every syndrome tuple of the product space, inside the
image of S and outside it.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decode_oracle import DecodeTable
from swhamming import bundleio, cli, codec, equiv, gf2, hcms
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


def check_one_elimination_per_verify(path, monkeypatch):
    # verify --roundtrip proves the code perfect and decodes through one
    # elimination of [A | I], and computes no rank, also while loading the
    # bundle's sections
    calls = counted(monkeypatch, codec, "echelon_augmented")

    def no_rank(*args):
        raise AssertionError("rank computed")

    for mod in (gf2, cli, codec, hcms, bundleio):
        if hasattr(mod, "rank"):
            monkeypatch.setattr(mod, "rank", no_rank)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(path), "--roundtrip", "300"]) == 0
    assert "roundtrip=300/300 path=algebraic" in out.getvalue()
    assert len(calls) == 1


def test_one_elimination_per_verify(tmp_path, monkeypatch, bundle_a4):
    path = tmp_path / "a4.txt"
    bundleio.write_bundle(path, bundle_a4)
    check_one_elimination_per_verify(path, monkeypatch)


def test_plan_back_substitutes_only_to_decode(tmp_path, monkeypatch):
    # gen and a plain verify read only the plan's echelon form; the top rows
    # are back-substituted once, for the decoder of verify --roundtrip
    path = tmp_path / "a4.txt"
    calls = counted(monkeypatch, codec, "back_substitute")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--a", "4", "-o", str(path)]) == 0
        assert cli.main(["verify", str(path)]) == 0
        assert calls == []
        assert cli.main(["verify", str(path), "--roundtrip", "300"]) == 0
    assert len(calls) == 1


def test_one_elimination_per_verify_of_relaxed_bundle(tmp_path, monkeypatch, bundle_a3):
    # the bundle reduce writes for a shifted a = 3 code: its Y, C_i, D_i and
    # E_i sections are checked on load too
    rng = np.random.default_rng(1)
    code = bundle_a3.code
    prof = equiv.profile(code)
    K = gf2.random_subspace_of(gf2.subspace_intersect(prof[1], prof[2]), 2, rng)
    reduced = equiv.reduce_to_ghcms(equiv.shift_null_space(code, K, 0, 2))
    assert reduced.C is not None
    path = tmp_path / "reduced.txt"
    bundleio.write_bundle(path, reduced)
    check_one_elimination_per_verify(path, monkeypatch)
