"""Golden sha256 sums of outputs that must stay byte-identical: generated
bundle files in the marked format (and a seeded relaxed one), verify reports (with sampled round trips, and of a reduced
bundle), a decoded file and its report, the (3, 5, 9) search report, the
seeded sum-zero partitions for s = 5 and 7, and the input, bundle and
report of ``reduce``.  A refactor
that changes any of these bytes changes the program's output, and must say
so."""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np
import pytest

from helpers import relaxed_a3, shifted
from swhamming import bundleio, cli, codec, gf2, hcms, sources

# gen flags and the sum of the bundle file they write
BUNDLES = {
    "a3": (("--a", "3"), "785ba962eefe8dcd789e6ef9bdf4f377c2c6d7f9c3a335cea09c643564bab9c4"),
    "a4": (("--a", "4"), "2900a74cb80a45b7d2d48e7498614dfd9c9071f7c479e27f2c56f4a779883bd2"),
    "a5": (("--a", "5"), "aa4ffdd5d1d2ff3ceefeb50bea5919731132645d382e80c3ac1587f1480c9124"),
    "a6": (("--a", "6"), "eb8fcc0a1cc3f69b12983c9ec8b0d245ea48565128ba7e881a459f0e074f9769"),
    "trivial": (("--trivial",), "fc611fd92abea15adf4a23f53e80c3f888c6a2eb4a9020d75ef5e033256f13cc"),
    "a3_split_9_0_0": (
        ("--a", "3", "--split", "9,0,0"),
        "8148a567b34ec886a2f16242175ee3ba91f0e35b5b16607a11629a2770ef09ed",
    ),
}
# write_bundle of helpers.relaxed_a3(default_rng(RELAXED_SEED)), whose E_i
# and D_i are not identities
RELAXED_SEED = 5
RELAXED_A3 = "26b98e2103374998fe2fa3e8482f95e0529bd678d7cbc16269275f505fc19d19"
VERIFY_A3_ROUNDTRIP = "77e70d07720a7ad57683923f097e2bf7376b91cbfd78a229368fa640f81a3897"
SEARCH_5_9_KV = "39d1df37c59cdb252d222c2caa2c3b95405b7209f196f7f8b1237905bfa31e9a"
VERIFY_A5 = "cd18660da0987680507fd972273841b940a8ded6579b9d1337f72a2ae4032ece"
# decode of DECODE_COUNT uniform syndrome tuples through the gen --a 4
# bundle: sums of the decoded file and of stdout
DECODE_SEED, DECODE_COUNT = 11, 2000
DECODE_A4 = (
    "fd191e5fcbdcca1e94cd47ccf23dba50578f6a987994065fe00888e7882be643",
    "ebf580e497f50db5e85de26d1bc5eb874da1aac1bd398d88ed070676d33959c6",
)
# encode of ENCODE_COUNT members of S, drawn by random_member from
# ENCODE_SEED, through the gen --a 4 bundle: sums of the source file, the
# encoded file and stdout
ENCODE_SEED, ENCODE_COUNT = 11, 2000
ENCODE_A4 = (
    "d909a2e21640ab5e4e55c76f49be88e4c86a7c2cf275e0c50b99033387b9b742",
    "61c0da110edc38ce251686f8fdf5f64f313dc56ae02ec4b7b3d0f3365bcaed28",
    "f848ead0ec835206c10abb343c060e2bbc4b7b0885802e3ac297092f80d0759b",
)
# verify --kv --roundtrip 300 of the bundle reduce writes for the shifted
# gen --a 4 code
VERIFY_REDUCED_A4_ROUNDTRIP = "dcd1901820643a2023971a851fb2171574595fc8daf77822ad43a350233ea164"

# seeded draws of random_sum_zero_partition(s, mn, default_rng(1)) for
# s > 3, which a gen for other terminal counts would write: sums of the
# blocks' text
PARTITION_DRAWS = {
    (5, 8): "6f4659fb1db1ce6cca596f3025ad8db3113e6bdaa74213dc9692286d4876db48",
    (7, 9): "60d32ffe0aaa47da20e44df8194df41a42e2aaca0e0812d69847a69c735f2ac9",
}

# reduce inputs: a perfect code, shifted with a fixed seed, and the sum of
# its code file
REDUCE_SEED = 7
REDUCE_INPUTS = {
    "a3": (
        lambda: hcms.hcms_for_a(3).code,
        "159c0c8d2d28a745b0ff82b32fbf47fdfac7fa072e145aa52a4671f02290e44e",
    ),
    "a4": (
        lambda: hcms.hcms_for_a(4).code,
        "56565bdb445e9a7ee0aea5b7cd0861ae09801ae4fd4c0fd9f4a6e1ce23cc772e",
    ),
    "a5": (
        lambda: hcms.hcms_for_a(5).code,
        "e6f06719a918243758cb1966b7e69342cf81bf2f2d46d6808c697ab2375e0f49",
    ),
    "pair_n7": (
        lambda: codec.make_code([gf2.BitMatrix.identity(7), hcms.hamming_matrix(3)]),
        "2d982362b681f0dc396fa954996622553bce657664e81655d1386c976f5882ec",
    ),
}
# (input, flags) -> sums of the written bundle and of stdout
REDUCE_OUTPUTS = {
    ("a3", ()): (
        "7484e8954acea5df00d36297af4de6904761f9506f47c6b6821f86e5178ce76b",
        "c7473b665c48f5529ebf172e2bc41ddfdf3bcdd8c7f873379c3d353e8a2ab64d",
    ),
    ("a3", ("--kv",)): (
        "7484e8954acea5df00d36297af4de6904761f9506f47c6b6821f86e5178ce76b",
        "682f902ae24a5a9702fc28387faa4ec52517b67485145f6ac44337e2d5d01c35",
    ),
    ("a4", ()): (
        "1c2988de4ae96c7946a0ab934c2d3acbaeff278c81516226c3fe5d96016f41d8",
        "83966114dd765914053f8f7d04317e375fff17dd01f14b1e7fd4eed36164c027",
    ),
    ("a4", ("--kv",)): (
        "1c2988de4ae96c7946a0ab934c2d3acbaeff278c81516226c3fe5d96016f41d8",
        "69d914f58f7c0bfc098d5cbbb94d648c4c746cdca28ee13be86f9b1c9acfdf58",
    ),
    ("a5", ()): (
        "d9efc2ad3a305605eab06d56611439a0e4a6c5a62d90c0af782446d3a5fa44f4",
        "c2c0b35675cf54b56dc7108bef7cf9e4389b883088c014e97b380685327a52c4",
    ),
    ("a5", ("--kv",)): (
        "d9efc2ad3a305605eab06d56611439a0e4a6c5a62d90c0af782446d3a5fa44f4",
        "a28f0b6562bb48ddecaff846f5a1ad67a114bec07f39916b9922aa817ed6c22f",
    ),
    ("pair_n7", ()): (
        "d33f55ee03606b0521231764b2d5168360d3133ff80096e644f599513e6ae7f9",
        "51114151c9a91ba1fb71f00c2281ab828f8fa6b9bb0ec9825d0958f50a747cbf",
    ),
    ("pair_n7", ("--kv",)): (
        "d33f55ee03606b0521231764b2d5168360d3133ff80096e644f599513e6ae7f9",
        "1d7d7937cb6dd9eb63dbdc147d2f2fd8893ddb988597ca0728ce39451e258b6a",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_gen_bundle_bytes(tmp_path, name):
    flags, want = BUNDLES[name]
    path = tmp_path / "bundle.txt"
    stdout_of("gen", *flags, "-o", str(path))
    assert sha256(path.read_bytes()) == want


def test_relaxed_bundle_bytes(tmp_path):
    path = tmp_path / "bundle.txt"
    bundleio.write_bundle(path, relaxed_a3(np.random.default_rng(RELAXED_SEED)))
    assert sha256(path.read_bytes()) == RELAXED_A3


def test_verify_roundtrip_report(tmp_path):
    path = tmp_path / "a3.txt"
    stdout_of("gen", "--a", "3", "-o", str(path))
    assert sha256(stdout_of("verify", str(path), "--kv", "--roundtrip", "300")) == VERIFY_A3_ROUNDTRIP


def test_verify_report_a5(tmp_path):
    path = tmp_path / "a5.txt"
    stdout_of("gen", "--a", "5", "-o", str(path))
    assert sha256(stdout_of("verify", str(path), "--kv")) == VERIFY_A5


def test_decode_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout_of("gen", "--a", "4", "-o", "a4.txt")
    m = bundleio.read_file("a4.txt").code.m
    y = np.random.default_rng(DECODE_SEED).integers(0, 2, (DECODE_COUNT, sum(m)), np.uint8)
    parts = np.split(y, np.cumsum(m)[:-1], axis=1)
    (tmp_path / "syndromes.txt").write_bytes(sources.format_chunk(parts)[1:])
    out = stdout_of("decode", "a4.txt", "--input", "syndromes.txt", "--output", "decoded.txt")
    assert (sha256((tmp_path / "decoded.txt").read_bytes()), sha256(out)) == DECODE_A4


def test_encode_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout_of("gen", "--a", "4", "-o", "a4.txt")
    rng = np.random.default_rng(ENCODE_SEED)
    xs = [sources.random_member(3, 85, rng) for _ in range(ENCODE_COUNT)]
    (tmp_path / "sources.txt").write_text(sources.format_tuples(xs))
    out = stdout_of("encode", "a4.txt", "--input", "sources.txt", "--output", "encoded.txt")
    got = [sha256((tmp_path / name).read_bytes()) for name in ("sources.txt", "encoded.txt")]
    assert (*got, sha256(out)) == ENCODE_A4


def test_search_report():
    assert sha256(stdout_of("search", "--n", "5", "--M", "9", "--kv")) == SEARCH_5_9_KV


@pytest.mark.parametrize("s, mn", sorted(PARTITION_DRAWS))
def test_random_partition_draws(s, mn):
    Q = hcms.random_sum_zero_partition(s, mn, np.random.default_rng(1))
    assert sha256("".join(gf2.format_matrix(B) for B in Q).encode()) == PARTITION_DRAWS[s, mn]


@pytest.mark.parametrize("name, flags", sorted(REDUCE_OUTPUTS), ids=str)
def test_reduce_bytes(tmp_path, monkeypatch, name, flags):
    # relative paths, so that the printed path is the same in every run
    monkeypatch.chdir(tmp_path)
    make, want_input = REDUCE_INPUTS[name]
    bundleio.write_code_file("shifted.txt", shifted(make(), np.random.default_rng(REDUCE_SEED)))
    assert sha256((tmp_path / "shifted.txt").read_bytes()) == want_input
    want_bundle, want_stdout = REDUCE_OUTPUTS[name, flags]
    out = stdout_of("reduce", "shifted.txt", "-o", "reduced.txt", *flags)
    assert sha256((tmp_path / "reduced.txt").read_bytes()) == want_bundle
    assert sha256(out) == want_stdout


def test_verify_roundtrip_report_of_reduced_bundle(tmp_path, monkeypatch, bundle_a4):
    monkeypatch.chdir(tmp_path)
    code = shifted(bundle_a4.code, np.random.default_rng(REDUCE_SEED))
    bundleio.write_code_file("shifted.txt", code)
    stdout_of("reduce", "shifted.txt", "-o", "reduced.txt")
    out = stdout_of("verify", "reduced.txt", "--kv", "--roundtrip", "300")
    assert sha256(out) == VERIFY_REDUCED_A4_ROUNDTRIP
