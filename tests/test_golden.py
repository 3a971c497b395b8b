"""Golden sha256 sums of outputs that must stay byte-identical: generated
bundle files, a verify report with its sampled round trips, and the
(3, 5, 9) search report.  A refactor that changes any of these bytes
changes the program's output, and must say so."""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from swhamming import cli

# gen flags and the sum of the bundle file they write
BUNDLES = {
    "a3": (("--a", "3"), "8f235415f41ecc8550d774e29370ec2672acc2dbb73641069da481f06da82517"),
    "a4": (("--a", "4"), "e01cc10b3310c553bfacad349c7869e9fee3c54058027051ded78995c55a5bf3"),
    "trivial": (("--trivial",), "4091e5470c0ad0631242a31f52d83c788784082a466a2ea8b3c0d7d0adb3a8e3"),
    "a3_split_9_0_0": (
        ("--a", "3", "--split", "9,0,0"),
        "027fdb31c8f525173c31c80b805b9cef947318dbe0cc98304cd022c837b99753",
    ),
}
VERIFY_A3_ROUNDTRIP = "77e70d07720a7ad57683923f097e2bf7376b91cbfd78a229368fa640f81a3897"
SEARCH_5_9_KV = "39d1df37c59cdb252d222c2caa2c3b95405b7209f196f7f8b1237905bfa31e9a"


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


def test_verify_roundtrip_report(tmp_path):
    path = tmp_path / "a3.txt"
    stdout_of("gen", "--a", "3", "-o", str(path))
    assert sha256(stdout_of("verify", str(path), "--kv", "--roundtrip", "300")) == VERIFY_A3_ROUNDTRIP


def test_search_report():
    assert sha256(stdout_of("search", "--n", "5", "--M", "9", "--kv")) == SEARCH_5_9_KV
