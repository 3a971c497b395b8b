"""One bundle type for both constructions: the direct one is the relaxed one
with C_i = Q_i, Y = [Q_1; ...; Q_(s-1)] and identity transforms, and leaves
those fields unset.  Written and loaded back, either form must give the
same file, the same bundle and a decoder that inverts the encoder."""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swhamming import bundleio, codec, gf2, ghcms, hcms, sources

A3 = hcms.a3_partition()

# row splits of the a = 3 completion's 9 rows
splits = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda t: sum(t) <= 9).map(
    lambda t: (*t, 9 - sum(t))
)
seeds = st.integers(0, 2**32 - 1)


def random_invertible(k: int, rng: np.random.Generator) -> gf2.BitMatrix:
    while True:
        A = gf2.BitMatrix.from_bits(rng.integers(0, 2, size=(k, k), dtype=np.uint8))
        if gf2.rank(A) == k:
            return A


def check_round_trip(bundle, rng: np.random.Generator) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
        bundleio.write_bundle(first, bundle)
        loaded = bundleio.build_bundle(bundleio.read_file(first))
        bundleio.write_bundle(second, loaded)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.code == bundle.code
    assert loaded == bundle
    xs = [sources.random_member(bundle.s, bundle.n, rng) for _ in range(40)]
    xs.append(tuple(gf2.BitVector.zeros(bundle.n) for _ in range(bundle.s)))
    ys = [codec.encode(bundle.code, x) for x in xs]
    decoder = codec.decoder(loaded.code)
    assert [decoder.decode(y) for y in ys] == xs
    parts = [np.stack([y[i].to_array() for y in ys]) for i in range(bundle.s)]
    blocks = decoder.decode_batch(parts)
    for i in range(bundle.s):
        assert np.array_equal(blocks[i], np.stack([x[i].to_array() for x in xs]))


@settings(max_examples=20, deadline=None)
@given(split=splits, seed=seeds)
def test_direct_bundle_round_trip(split, seed):
    bundle = hcms.hcms_from_parts(A3, g_split=split)
    assert bundle.C is None and bundle.Y is None and bundle.E is None
    assert bundle.d == (6, 6, 6) and codec.is_perfect(bundle.code)
    check_round_trip(bundle, np.random.default_rng(seed))


@settings(max_examples=20, deadline=None)
@given(split=splits, seed=seeds)
def test_relaxed_bundle_round_trip(split, seed):
    rng = np.random.default_rng(seed)
    C = tuple(random_invertible(6, rng) @ gf2.row_basis(Qi) for Qi in A3)
    bundle = hcms.assemble(A3, C, split, None)
    assert bundle.C == C and codec.is_perfect(bundle.code)
    check_round_trip(bundle, rng)


def test_relaxed_bundle_with_identity_transforms_keeps_its_sections(tmp_path, rng):
    # C_i = Q_i makes every E_i and D_i the identity; the bundle is still the
    # relaxed form, and its file still says so and carries Y, D_i and E_i
    bundle = hcms.assemble(A3, A3, None, None)
    assert all(Ei == gf2.BitMatrix.identity(6) for Ei in bundle.E)
    path = tmp_path / "b.txt"
    bundleio.write_bundle(path, bundle)
    lines = path.read_text().splitlines()
    assert lines[0] == "bundle relaxed" and {"Y", "D_3", "E_3"} <= set(lines)
    assert bundleio.read_file(path).kind == "ghcms"
    check_round_trip(bundle, rng)


def test_a_bundle_keeps_only_its_choices_and_derives_the_sections(rng):
    # the code's rows give G_i and C_i, and E_i the Q_i: the sections the
    # bundle was assembled from come back on read
    assert [f.name for f in dataclasses.fields(hcms.Bundle)] == ["code", "E", "Y", "D"]
    C = tuple(random_invertible(6, rng) @ Qi for Qi in A3)
    T = hcms.standard_completion(gf2.vstack(A3[:2]))
    direct = hcms.assemble(A3, None, (1, 3, 5), T)
    relaxed = hcms.assemble(A3, C, (1, 3, 5), T)
    assert direct.C is None and relaxed.C == C and direct.d == relaxed.d == (6, 6, 6)
    for bundle, Y, C_parts in ((direct, gf2.vstack(A3[:2]), A3), (relaxed, relaxed.Y, C)):
        assert bundle.Q == A3 and bundle.P == gf2.hstack(A3)
        assert bundle.T == T and bundle.R == gf2.vstack([Y, T]) and bundle.g_split == (1, 3, 5)
        assert bundle.code.matrices == tuple(
            gf2.vstack([Gi, Ci]) for Gi, Ci in zip(bundle.G, C_parts)
        )


def test_direct_and_relaxed_forms_share_the_type(bundle_a3):
    assert hcms.HcmsBundle is ghcms.GhcmsBundle is hcms.Bundle
    assert ghcms.ghcms_decode is hcms.hcms_decode
    assert bundleio.build_hcms is bundleio.build_bundle
    relaxed = ghcms.ghcms_build(bundle_a3.Q)
    assert type(relaxed) is type(bundle_a3)
    assert relaxed.C is not None and relaxed.T == bundle_a3.T
