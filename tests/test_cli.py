"""CLI behavior: subcommands, file round trips, exit codes, determinism."""

from __future__ import annotations

import gc
import time
import weakref

import numpy as np
import pytest

from helpers import parse_matrix_bytes, shifted
from test_bundleio_reference import full_bundle_text, write_full_bundle
from swhamming import bundleio, cli, codec, equiv, gf2, ghcms, hcms, sources


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_scan_table(capsys):
    code, out, _ = run(capsys, "params", "--scan", "5", "--kv")
    assert code == 0
    rows = [dict(tok.split("=") for tok in line.split()) for line in out.splitlines()]
    got = [(int(r["a"]), int(r["n"]), int(r["M"]), int(r["M-n"]), int(r["3n-2M"])) for r in rows]
    assert got == [
        (1, 1, 3, 2, -3),
        (2, 5, 9, 4, -3),
        (3, 21, 27, 6, 9),
        (4, 85, 93, 8, 69),
        (5, 341, 351, 10, 321),
    ]


def test_params_cuvw(capsys):
    code, out, _ = run(capsys, "params", "--a", "3", "--cuvw")
    assert code == 0 and "(12,4,4,4)" in out
    code, out, _ = run(capsys, "params", "--a", "1", "--cuvw", "--kv")
    assert code == 0 and "cuvw=0,0,0,0" in out


def test_gen_and_verify_trivial(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    code, out, _ = run(capsys, "gen", "--trivial", "-o", str(path))
    assert code == 0 and "kind=ghcms" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "compressible=true perfect=true" in out


def test_gen_a3_roundtrip_files(tmp_path, capsys, rng):
    bundle_path = tmp_path / "a3.txt"
    code, out, _ = run(capsys, "gen", "--a", "3", "--split", "3,3,3", "-o", str(bundle_path))
    assert code == 0 and "m=9,9,9" in out

    tuples = [sources.random_member(3, 21, rng) for _ in range(5)]
    src = tmp_path / "src.txt"
    src.write_text(sources.format_tuples(tuples))
    synd = tmp_path / "synd.txt"
    back = tmp_path / "back.txt"
    code, out, _ = run(capsys, "encode", str(bundle_path), "--input", str(src), "--output", str(synd))
    assert code == 0
    code, out, _ = run(capsys, "decode", str(bundle_path), "--input", str(synd), "--output", str(back))
    assert code == 0 and "path=algebraic" in out
    assert back.read_text() == src.read_text()


@pytest.mark.parametrize("gen_args,s,n", [
    (("--trivial",), 3, 1),
    (("--a", "3"), 3, 21),
    (("--a", "4"), 3, 85),
])
def test_file_roundtrip_three_sizes(tmp_path, capsys, rng, gen_args, s, n):
    bundle_path = tmp_path / "bundle.txt"
    assert run(capsys, "gen", *gen_args, "-o", str(bundle_path))[0] == 0
    tuples = [sources.random_member(s, n, rng) for _ in range(3)]
    src = tmp_path / "src.txt"
    src.write_text(sources.format_tuples(tuples))
    synd = tmp_path / "synd.txt"
    back = tmp_path / "back.txt"
    assert run(capsys, "encode", str(bundle_path), "--input", str(src), "--output", str(synd))[0] == 0
    assert run(capsys, "decode", str(bundle_path), "--input", str(synd), "--output", str(back))[0] == 0
    assert back.read_text() == src.read_text()


def test_decode_table_path(tmp_path, capsys, rng, pair_n7):
    code_path = tmp_path / "pair.txt"
    bundleio.write_code_file(code_path, pair_n7)
    tuples = [sources.random_member(2, 7, rng) for _ in range(3)]
    src = tmp_path / "src.txt"
    src.write_text(sources.format_tuples(tuples))
    synd = tmp_path / "synd.txt"
    back = tmp_path / "back.txt"
    assert run(capsys, "encode", str(code_path), "--input", str(src), "--output", str(synd))[0] == 0
    code, out, _ = run(capsys, "decode", str(code_path), "--input", str(synd), "--output", str(back))
    assert code == 0 and "path=algebraic" in out
    assert back.read_text() == src.read_text()


def test_decode_plain_code_ignores_budget_env(tmp_path, capsys, monkeypatch, pair_n7):
    # |S| = 1024 for the pair, far above the budget: decoding enumerates nothing
    code_path = tmp_path / "pair.txt"
    bundleio.write_code_file(code_path, pair_n7)
    x = sources.member_at(2, 7, 1000)
    synd = tmp_path / "synd.txt"
    synd.write_text(sources.format_tuples([codec.encode(pair_n7, x)]))
    monkeypatch.setenv("HCMS_BUDGET", "16")
    out_path = tmp_path / "o.txt"
    code, out, _ = run(capsys, "decode", str(code_path), "--input", str(synd), "--output", str(out_path))
    assert code == 0 and "path=algebraic" in out
    assert out_path.read_text() == sources.format_tuples([x])


def test_gen_rejects_small_a(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--a", "2", "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert "error=HEIGHT_NEGATIVE" in err


def test_verify_sabotaged_bundle(tmp_path, capsys, bundle_a3):
    # a full file of the gen --a 3 bundle, every section written: line 3 is
    # the first row of the first coding matrix
    path = tmp_path / "a3.txt"
    write_full_bundle(path, bundle_a3)
    lines = path.read_text().splitlines()
    row = list(lines[3])
    row[7] = "1" if row[7] == "0" else "0"
    lines[3] = "".join(row)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    # the coding matrix no longer agrees with the sections, so the bundle
    # file is refused before any verdict
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error=MALFORMED_FILE coding matrix 1 is not [G_1; C_1]")
    # the damaged code alone, as a plain code file, gets the verdict
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(lines[: lines.index("P")]) + "\n")
    code, out, err = run(capsys, "verify", str(plain))
    assert code == 1
    assert "perfect=false" in out
    assert "counterexample" in out
    assert "error=NOT_PERFECT" in err


def test_verify_roundtrip_flag(tmp_path, capsys):
    path = tmp_path / "a3.txt"
    assert run(capsys, "gen", "--a", "3", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", str(path), "--roundtrip", "10", "--seed", "7")
    assert code == 0 and "roundtrip=10/10" in out


def test_search_outputs(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--M", "9")
    assert code == 0
    assert "triples_tested=3375" in out and "found=0" in out and "none exists" in out
    code, out, _ = run(capsys, "search", "--n", "1", "--M", "3")
    assert code == 0 and "found=1" in out and "dims=0,0,0" in out
    code, _, err = run(capsys, "search", "--n", "4", "--M", "8")
    assert code == 2 and "error=PARAMS_NOT_PERFECT" in err


def test_reduce_flow(tmp_path, capsys):
    src = tmp_path / "a3.txt"
    out_path = tmp_path / "reduced.txt"
    assert run(capsys, "gen", "--a", "3", "-o", str(src))[0] == 0
    code, out, _ = run(capsys, "reduce", str(src), "-o", str(out_path), "--kv")
    assert code == 0
    assert "input_null_dims=12,12,12" in out
    assert "perfect=true" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0 and "perfect=true" in out


def test_malformed_file(tmp_path, capsys):
    bad = tmp_path / "junk.txt"
    bad.write_text("this is not a bundle\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "error=MALFORMED_FILE" in err


def test_outputs_deterministic(tmp_path, capsys):
    a = tmp_path / "one.txt"
    b = tmp_path / "two.txt"
    run(capsys, "gen", "--a", "3", "-o", str(a))
    run(capsys, "gen", "--a", "3", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    out1 = run(capsys, "search", "--n", "5", "--M", "9", "--kv")[1]
    out2 = run(capsys, "search", "--n", "5", "--M", "9", "--kv")[1]
    assert out1 == out2


def test_bundle_file_roundtrip(tmp_path, bundle_a3):
    path = tmp_path / "bundle.txt"
    bundleio.write_bundle(path, bundle_a3)
    loaded = bundleio.build_bundle(bundleio.read_file(path))
    assert loaded.code == bundle_a3.code
    assert loaded.Q == bundle_a3.Q
    assert loaded.R_inv == bundle_a3.R_inv


def test_ghcms_bundle_file_roundtrip(tmp_path):
    P = hcms.hamming_matrix(2)
    Q = tuple(P.take_cols(j, j + 1) for j in range(3))
    from swhamming import ghcms as ghcms_mod

    bundle = ghcms_mod.ghcms_build(Q)
    path = tmp_path / "ghcms.txt"
    bundleio.write_bundle(path, bundle)
    loaded = bundleio.build_bundle(bundleio.read_file(path))
    assert loaded.code == bundle.code
    assert loaded.C == bundle.C
    assert loaded.E == bundle.E
    x = tuple(gf2.BitVector.from_bits([1]) for _ in range(3))
    y = codec.encode(loaded.code, x)
    assert ghcms_mod.ghcms_decode(loaded, y) == x


def test_search_jobs_flag(capsys):
    code, out, _ = run(capsys, "search", "--n", "1", "--M", "3", "--jobs", "2")
    assert code == 0 and "found=1" in out


_BAD_TAILS = {
    "short lines": "0101\n0101\n0101\n",
    "missing line": "\n".join(["0" * 21] * 2) + "\n",
    "extra line": "\n".join(["0" * 21] * 4) + "\n",
    "bad character": "\n".join(["0" * 20 + "2", "0" * 21, "0" * 21]) + "\n",
}


# tuples per chunk of the CLI's encode and decode in the tests below
SMALL_CHUNK = 16


def small_chunks(monkeypatch, code: codec.SwCode) -> None:
    """SMALL_CHUNK tuples per chunk of the CLI's encode and decode of ``code``."""
    widths = (code.s * code.n, sum(code.m))
    monkeypatch.setattr(sources, "CHUNK_BITS", SMALL_CHUNK * max(widths))
    assert sources.chunk_tuples(*widths) == SMALL_CHUNK


def test_chunk_tuples_is_a_bit_budget_over_the_wider_side():
    # the perfect codes at a = 4 and 5: the s n source bits decide
    assert sources.chunk_tuples(3 * 85, 93) == 1028
    assert sources.chunk_tuples(3 * 341, 351) == 256
    assert sources.chunk_tuples(2, 128) == sources.CHUNK_BITS // 128
    assert sources.chunk_tuples(sources.CHUNK_BITS + 1, 1) == 1


def test_chunks_of_a_code_wider_than_its_sources(tmp_path, capsys, monkeypatch):
    # M = 128 syndrome bits for s n = 2 source bits: a chunk holds
    # CHUNK_BITS / 128 tuples, not CHUNK_BITS / 2, on both sides
    ones = gf2.BitMatrix.from_bits(np.ones((64, 1), dtype=np.uint8))
    code = codec.make_code([ones, ones])
    path, src, synd, back = (tmp_path / f for f in ("code.txt", "x.txt", "y.txt", "back.txt"))
    bundleio.write_code_file(path, code)
    chunk = sources.CHUNK_BITS // 128
    x = np.random.default_rng(5).integers(0, 2, size=(chunk + 1, 2), dtype=np.uint8)
    src.write_bytes(sources.format_chunk([x[:, :1], x[:, 1:]])[1:])
    sizes = []
    real_encode, real_decode = codec.encode_batch, codec.CodePlan.decode_batch

    def encode_batch(c, parts):
        sizes.append(len(parts[0]))
        return real_encode(c, parts)

    def decode_batch(plan, parts):
        sizes.append(len(parts[0]))
        return real_decode(plan, parts)

    monkeypatch.setattr(codec, "encode_batch", encode_batch)
    monkeypatch.setattr(codec.CodePlan, "decode_batch", decode_batch)
    assert run(capsys, "encode", str(path), "--input", str(src), "--output", str(synd))[0] == 0
    assert run(capsys, "decode", str(path), "--input", str(synd), "--output", str(back))[0] == 0
    assert sizes == [chunk, 1, chunk, 1]
    assert back.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("tail", sorted(_BAD_TAILS))
def test_encode_rejects_bad_tuple_in_second_chunk(tmp_path, capsys, monkeypatch, rng, tail):
    bundle_path, out = tmp_path / "a3.txt", tmp_path / "y.txt"
    assert run(capsys, "gen", "--a", "3", "-o", str(bundle_path))[0] == 0
    written = bundleio.read_file(bundle_path).code
    small_chunks(monkeypatch, written)
    tuples = [sources.random_member(3, 21, rng) for _ in range(SMALL_CHUNK + 2)]
    src = tmp_path / "src.txt"
    src.write_text(sources.format_tuples(tuples) + "\n" + _BAD_TAILS[tail])
    code, _, err = run(capsys, "encode", str(bundle_path), "--input", str(src), "--output", str(out))
    assert code == 2 and "error=MALFORMED_FILE" in err
    # the first chunk was encoded and written, so the bad group was in the second
    assert out.read_text() == sources.format_tuples(
        [codec.encode(written, x) for x in tuples[:SMALL_CHUNK]]
    )


def test_decode_rejects_bad_syndrome_in_second_chunk(tmp_path, capsys, monkeypatch, rng, bundle_a3):
    bundle_path, out = tmp_path / "a3.txt", tmp_path / "x.txt"
    bundleio.write_bundle(bundle_path, bundle_a3)
    small_chunks(monkeypatch, bundle_a3.code)
    xs = [sources.random_member(3, 21, rng) for _ in range(SMALL_CHUNK + 2)]
    ys = [codec.encode(bundle_a3.code, x) for x in xs]
    synd = tmp_path / "synd.txt"
    synd.write_text(sources.format_tuples(ys) + "\n" + "\n".join(["1" * 8] * 3) + "\n")
    code, _, err = run(capsys, "decode", str(bundle_path), "--input", str(synd), "--output", str(out))
    assert code == 2 and "error=MALFORMED_FILE" in err
    # the first chunk was decoded and written, so the bad group was in the second
    assert out.read_text() == sources.format_tuples(xs[:SMALL_CHUNK])


def test_decode_names_the_input_group_outside_the_image(tmp_path, capsys, monkeypatch, rng):
    # (I_3, I_3) compresses S without being perfect; (000, 111) is no
    # member's syndrome pair.  Group 2 SMALL_CHUNK + 5 is in the third chunk.
    I3 = gf2.BitMatrix.identity(3)
    path, out = tmp_path / "code.txt", tmp_path / "x.txt"
    code = codec.make_code([I3, I3])
    bundleio.write_code_file(path, code)
    small_chunks(monkeypatch, code)
    bad = 2 * SMALL_CHUNK + 4
    xs = [sources.random_member(2, 3, rng) for _ in range(bad + 3)]
    ys = list(xs)
    ys[bad] = (gf2.BitVector(3, 0), gf2.BitVector(3, 7))
    synd = tmp_path / "synd.txt"
    synd.write_text(sources.format_tuples(ys))
    code, stdout, err = run(capsys, "decode", str(path), "--input", str(synd), "--output", str(out))
    want = f"group {bad + 1} of the input: syndrome tuple is not produced by any member of S"
    assert (code, stdout, err) == (2, "", f"error=NOT_IN_IMAGE {want}\n")
    # a failing decode leaves the whole chunks before the bad group's chunk
    assert out.read_text() == sources.format_tuples(xs[: 2 * SMALL_CHUNK])


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_output_that_is_the_input_is_refused(tmp_path, capsys, rng, bundle_a3, command):
    # opening the output first would truncate the input before it is read
    bundle_path = tmp_path / "a3.txt"
    bundleio.write_bundle(bundle_path, bundle_a3)
    xs = [sources.random_member(3, 21, rng) for _ in range(5)]
    if command == "encode":
        text = sources.format_tuples(xs)
    else:
        text = sources.format_tuples([codec.encode(bundle_a3.code, x) for x in xs])
    path = tmp_path / "groups.txt"
    path.write_text(text)
    (tmp_path / "sub").mkdir()
    for out in (path, tmp_path / "sub" / ".." / "groups.txt"):
        code, stdout, err = run(
            capsys, command, str(bundle_path), "--input", str(path), "--output", str(out)
        )
        assert code == 2 and err.startswith("error=BAD_ARGUMENT ") and stdout == ""
        assert path.read_text() == text


@pytest.mark.parametrize("split", ["1,2", "3,x,3", "3,3,3,0"])
def test_gen_rejects_bad_split(tmp_path, capsys, split):
    code, _, err = run(capsys, "gen", "--a", "3", "--split", split, "-o", str(tmp_path / "b.txt"))
    assert code == 2 and "error=BAD_ARGUMENT" in err


def test_gen_trivial_takes_its_split(tmp_path, capsys):
    # the trivial bundle's T has no rows, so 0,0,0 is its only split
    plain, split = tmp_path / "plain.txt", tmp_path / "split.txt"
    assert run(capsys, "gen", "--trivial", "-o", str(plain))[0] == 0
    assert run(capsys, "gen", "--trivial", "--split", "0,0,0", "-o", str(split))[0] == 0
    assert split.read_bytes() == plain.read_bytes()
    bad = tmp_path / "bad.txt"
    code, _, err = run(capsys, "gen", "--trivial", "--split", "9,0,0", "-o", str(bad))
    assert code == 2 and err.startswith("error=BAD_ARGUMENT ")
    assert not bad.exists()


def test_gen_a_is_bounded_without_a_knob(tmp_path, capsys):
    out = str(tmp_path / "b.txt")
    code, _, err = run(capsys, "gen", "--a", "3", "--max-a", "3", "-o", out)
    assert code == 2 and err.startswith("error=BAD_ARGUMENT ")
    code, _, err = run(capsys, "gen", "--a", "8", "-o", out)
    assert code == 2 and err.startswith("error=BUDGET_EXCEEDED ")


def test_verify_roundtrip_runs_in_chunks(tmp_path, capsys, monkeypatch, bundle_a4):
    path = tmp_path / "a4.txt"
    bundleio.write_bundle(path, bundle_a4)
    argv = ("verify", str(path), "--roundtrip", "300")
    calls = []
    real = codec.CodePlan.decode_batch

    def counting(plan, parts):
        calls.append(parts[0].shape[0])
        return real(plan, parts)

    monkeypatch.setattr(codec.CodePlan, "decode_batch", counting)
    code, whole, _ = run(capsys, *argv)
    assert code == 0 and "roundtrip=300/300" in whole
    assert calls == [256, 44]
    calls.clear()
    monkeypatch.setattr(cli, "ROUNDTRIP_BATCH", 7)
    assert run(capsys, *argv)[:2] == (0, whole)
    assert len(calls) == -(-300 // 7) and set(calls[:-1]) == {7} and calls[-1] == 300 % 7


def test_decode_table_rejects_non_compressible_code(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    code_path.write_text("3 2\n1 1 1\n1 2\n11\n1 2\n11\n1 2\n11\n")
    synd = tmp_path / "synd.txt"
    synd.write_text("0\n0\n0\n")
    code, _, err = run(
        capsys, "decode", str(code_path), "--input", str(synd), "--output", str(tmp_path / "x.txt")
    )
    assert code == 2 and "error=NOT_COMPRESSIBLE" in err


@pytest.mark.parametrize(
    "code_text, terminal",
    [
        ("3 2\n0 1 1\n0 2\n1 2\n10\n1 2\n01\n", 1),
        ("3 2\n1 1 0\n1 2\n10\n1 2\n01\n0 2\n", 3),
        ("2 2\n2 0\n2 2\n10\n01\n0 2\n", 2),
    ],
)
def test_encode_refuses_a_terminal_without_syndrome_bits(tmp_path, capsys, code_text, terminal):
    # its syndrome line would be blank, a file no reader accepts; such a
    # code never compresses S, so decode refuses it too
    code_path, src, out_path = tmp_path / "code.txt", tmp_path / "src.txt", tmp_path / "y.txt"
    code_path.write_text(code_text)
    s = int(code_text[0])
    src.write_text(("01\n" * s + "\n") * 2)
    code, out, err = run(capsys, "encode", str(code_path), "--input", str(src), "--output", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error=BAD_ARGUMENT ") and err.count("\n") == 1
    assert f"terminal {terminal} " in err
    assert not out_path.exists()
    code, _, err = run(capsys, "decode", str(code_path), "--input", str(src), "--output", str(out_path))
    assert code == 2 and err.startswith("error=NOT_COMPRESSIBLE")


def test_decode_algebraic_ignores_table_budget(tmp_path, capsys, monkeypatch, rng, bundle_a3):
    # HCMS_BUDGET bounds the search, not the decoder
    bundle_path = tmp_path / "a3.txt"
    bundleio.write_bundle(bundle_path, bundle_a3)
    xs = [sources.random_member(3, 21, rng) for _ in range(5)]
    synd = tmp_path / "synd.txt"
    synd.write_text(sources.format_tuples([codec.encode(bundle_a3.code, x) for x in xs]))
    monkeypatch.setenv("HCMS_BUDGET", "16")
    out_path = tmp_path / "x.txt"
    code, out, _ = run(capsys, "decode", str(bundle_path), "--input", str(synd), "--output", str(out_path))
    assert code == 0 and "path=algebraic" in out
    assert out_path.read_text() == sources.format_tuples(xs)


def _code_file_with(tmp_path, bundle_a3, line: int, replacement: bytes):
    """The a = 3 plain code file with one line replaced: line 2 is the first
    matrix's header, line 3 its first row."""
    path = tmp_path / "code.txt"
    bundleio.write_code_file(path, bundle_a3.code)
    lines = path.read_bytes().split(b"\n")
    lines[line] = replacement
    path.write_bytes(b"\n".join(lines))
    return path


@pytest.mark.parametrize("command", ["verify", "reduce", "decode"])
def test_non_utf8_code_file_is_malformed(tmp_path, capsys, bundle_a3, command):
    path = _code_file_with(tmp_path, bundle_a3, 3, b"0" * 10 + b"\xff" + b"0" * 10)
    argv = {
        "verify": ["verify", str(path)],
        "reduce": ["reduce", str(path), "-o", str(tmp_path / "r.txt")],
        "decode": ["decode", str(path), "--input", str(path), "--output", str(tmp_path / "x.txt")],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error=MALFORMED_FILE" in err and "bad matrix row 0" in err


def test_bad_matrix_row_names_the_section_and_cuts_the_echo(tmp_path, capsys, bundle_a4):
    path = tmp_path / "a4.txt"
    write_full_bundle(path, bundle_a4)
    lines = path.read_text().splitlines()
    at = lines.index("R") + 2 + 4  # the label, the header, then row 4
    lines[at] = lines[at][:40] + "x" + lines[at][41:]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    want = f"line {at + 1}: section R: bad matrix row 4: '{lines[at][:16]}...' (85 characters)"
    assert (code, out, err) == (2, "", f"error=MALFORMED_FILE {want}\n")


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_bad_matrix_header_names_the_file_line(tmp_path, capsys, bundle_a3, eol):
    path = tmp_path / "a3.txt"
    write_full_bundle(path, bundle_a3)
    lines = path.read_text().splitlines()
    at = lines.index("T") + 1
    lines[at] = "9 x"
    path.write_bytes(eol.join(lines).encode() + eol.encode())
    code, out, err = run(capsys, "verify", str(path))
    want = f"line {at + 1}: section T: expected 'rows cols' header"
    assert (code, out, err) == (2, "", f"error=MALFORMED_FILE {want}\n")


def test_huge_matrix_header_is_malformed(tmp_path, capsys, bundle_a3):
    path = _code_file_with(tmp_path, bundle_a3, 2, b"99999999 99999999")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error=MALFORMED_FILE" in err


def test_negative_matrix_header_is_malformed(tmp_path, capsys, bundle_a3):
    path = _code_file_with(tmp_path, bundle_a3, 2, b"-1 4")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error=MALFORMED_FILE" in err and "out of range" in err


def test_verify_reports_a_non_perfect_code_and_its_witness(tmp_path, capsys):
    # rank-deficient and not compressible: ranks and witness still printed
    path = tmp_path / "code.txt"
    path.write_text("3 2\n1 1 1\n1 2\n11\n1 2\n11\n1 2\n11\n")
    code, out, err = run(capsys, "verify", str(path), "--kv")
    assert code == 1 and "error=NOT_PERFECT" in err
    assert "ranks=1,1,1 null_dims=1,1,1" in out
    assert "compressible=false perfect=false" in out and "first:" in out and "second:" in out


@pytest.mark.parametrize(
    "text",
    [
        None,  # a perfect bundle, from gen --a 3
        "3 2\n2 1 1\n2 2\n10\n01\n1 2\n11\n1 2\n11\n",  # full rank, not compressible
        "3 2\n1 1 1\n1 2\n11\n1 2\n11\n1 2\n11\n",  # rank deficient
    ],
)
def test_verify_prints_the_same_with_and_without_kv(tmp_path, capsys, text):
    path = tmp_path / "code.txt"
    if text is None:
        assert run(capsys, "gen", "--a", "3", "-o", str(path))[0] == 0
    else:
        path.write_text(text)
    plain = run(capsys, "verify", str(path), "--roundtrip", "20")
    kv = run(capsys, "verify", str(path), "--roundtrip", "20", "--kv")
    assert kv == plain
    assert ("counterexample" in plain[1]) == (text is not None)


# ---------------------------------------------------------------------------
# load-time consistency of bundle files
# ---------------------------------------------------------------------------

def _off_the_code(i: int) -> str:
    return f"coding matrix {i} is not [G_{i}; C_{i}]"


# section -> the refusal of a bundle whose section has one bit flipped.
# G_i, and C_i (Q_i in the direct form), are read off coding matrix i; Y is
# R's top, and E_i changes the Q_i that P stacks
_P, _T, _R = (
    "section P is not [Q_1 ... Q_s]",
    "sections G_1 ... G_s do not split T",
    "section R is not [Y; T]",
)
_DIRECT_REFUSALS = {
    "P": _P,
    **{f"Q_{i}": _off_the_code(i) for i in (1, 2, 3)},
    "T": _T,
    **{f"G_{i}": _off_the_code(i) for i in (1, 2, 3)},
    "R": _R,
}
_RELAXED_REFUSALS = {
    "P": _P,
    **{f"Q_{i}": f"section E_{i}: E_{i} C_{i} is not Q_{i}" for i in (1, 2, 3)},
    "T": _T,
    **{f"G_{i}": _off_the_code(i) for i in (1, 2, 3)},
    "R": _R,
    **{f"C_{i}": _off_the_code(i) for i in (1, 2, 3)},
    "Y": _R,
    **{f"D_{i}": f"section D_{i}: D_{i} Q_{i} is not C_{i}" for i in (1, 2, 3)},
    **{f"E_{i}": f"section E_{i}: E_{i} C_{i} is not Q_{i}" for i in (1, 2, 3)},
}


@pytest.fixture(scope="module")
def bundle_texts(bundle_a3):
    """form -> (full bundle file text, a syndrome file's text) for the a = 3
    direct bundle and a relaxed one with every section nonempty; a full
    file has every section, so each can be damaged."""
    rng = np.random.default_rng(3)
    out = {}
    for form, bundle in (("direct", bundle_a3), ("relaxed", ghcms.ghcms_build(bundle_a3.Q))):
        ys = [codec.encode(bundle.code, sources.random_member(3, 21, rng)) for _ in range(5)]
        out[form] = (full_bundle_text(bundle), sources.format_tuples(ys))
    return out


def _replace_section(text: str, label: str, edit) -> str:
    """The bundle text with section ``label``'s matrix replaced by
    ``edit(matrix)``."""
    lines = text.splitlines(keepends=True)
    at = lines.index(label + "\n") + 1
    rows = int(lines[at].split()[0])
    body = iter(lines[at : at + 1 + rows])
    new = gf2.format_matrix(edit(parse_matrix_bytes("".join(body).encode())))
    return "".join(lines[:at]) + new + "".join(lines[at + 1 + rows :])


def _flip_first_bit(M):
    bits = M.to_array()
    bits[0, 0] ^= 1
    return gf2.BitMatrix.from_bits(bits)


def _decode_and_verify(tmp_path, capsys, bundle_text, synd_text):
    path, synd = tmp_path / "bundle.txt", tmp_path / "synd.txt"
    path.write_text(bundle_text)
    synd.write_text(synd_text)
    results = [
        run(capsys, "decode", str(path), "--input", str(synd), "--output", str(tmp_path / "x.txt")),
        run(capsys, "verify", str(path), "--roundtrip", "5"),
    ]
    return [(code, err) for code, _, err in results]


@pytest.mark.parametrize(
    "form,label,refusal",
    [
        pytest.param(form, label, refusal, id=f"{form}-{label}")
        for form, refusals in (("direct", _DIRECT_REFUSALS), ("relaxed", _RELAXED_REFUSALS))
        for label, refusal in refusals.items()
    ],
)
def test_tampered_bundle_section_is_malformed(
    tmp_path, capsys, bundle_texts, form, label, refusal
):
    text, synd = bundle_texts[form]
    tampered = _replace_section(text, label, _flip_first_bit)
    for code, err in _decode_and_verify(tmp_path, capsys, tampered, synd):
        assert code == 2 and err == f"error=MALFORMED_FILE {refusal}\n"


@pytest.mark.parametrize("form", ["direct", "relaxed"])
def test_reduce_refuses_a_tampered_bundle(tmp_path, capsys, bundle_texts, form):
    # R is not [Y; T], but the code itself is untouched and perfect
    path, out = tmp_path / "bundle.txt", tmp_path / "reduced.txt"
    path.write_text(_replace_section(bundle_texts[form][0], "R", _flip_first_bit))
    code, stdout, err = run(capsys, "reduce", str(path), "-o", str(out))
    assert (code, stdout) == (2, "") and err.startswith("error=MALFORMED_FILE section R")
    assert not out.exists()


def test_y_outside_the_stack_is_malformed(tmp_path, capsys, rng):
    # the reduced bundle of a shifted code, with Y replaced by a full-rank Y'
    # whose row space differs (and, in a full file, R by [Y'; T]), which
    # keeps R invertible: only the row-basis check on Y refuses it
    path, reduced = tmp_path / "shifted.txt", tmp_path / "reduced.txt"
    bundleio.write_code_file(path, shifted(hcms.hcms_for_a(3).code, rng))
    assert run(capsys, "reduce", str(path), "-o", str(reduced))[0] == 0
    bundle = bundleio.build_bundle(bundleio.read_file(reduced))
    bits = bundle.Y.to_array()
    bits[0] ^= bundle.T.to_array()[0]
    Y = gf2.BitMatrix.from_bits(bits)
    assert gf2.Subspace(bundle.n, Y) != gf2.Subspace(bundle.n, bundle.Y)
    R = gf2.vstack([Y, bundle.T])
    assert gf2.rank(R) == bundle.n
    full = _replace_section(full_bundle_text(bundle), "Y", lambda _: Y)
    want = (
        "Y section is not a row basis of the stack: "
        "row([Q_1; ...; Q_(s-1)]) is not contained in row(Y)"
    )
    for text in (
        _replace_section(reduced.read_text(), "Y", lambda _: Y),
        _replace_section(full, "R", lambda _: R),
    ):
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out, err) == (2, "", f"error=MALFORMED_FILE {want}\n")


@pytest.mark.parametrize("form", ["direct", "relaxed"])
def test_encode_refuses_a_tampered_bundle(tmp_path, capsys, bundle_texts, form, rng):
    # the code itself is untouched, so only the load check stops encode
    path, src, out = tmp_path / "bundle.txt", tmp_path / "src.txt", tmp_path / "enc.txt"
    path.write_text(_replace_section(bundle_texts[form][0], "R", _flip_first_bit))
    src.write_text(sources.format_tuples([sources.random_member(3, 21, rng) for _ in range(5)]))
    code, stdout, err = run(capsys, "encode", str(path), "--input", str(src), "--output", str(out))
    assert (code, stdout) == (2, "") and err.startswith("error=MALFORMED_FILE section R")
    assert not out.exists()


@pytest.mark.parametrize(
    "form,label,drop",
    [
        ("direct", "Q_2", "column"),
        ("direct", "T", "row"),
        ("direct", "P", "row"),
        ("relaxed", "Y", "row"),
        ("relaxed", "C_1", "column"),
        ("relaxed", "E_1", "column"),
        ("relaxed", "D_2", "row"),
    ],
)
def test_bundle_section_of_wrong_shape_is_malformed(
    tmp_path, capsys, bundle_texts, form, label, drop
):
    # one row or column fewer in one section: MALFORMED_FILE, not a ValueError
    # from stacking the sections
    def edit(M):
        return M.take_rows(0, M.rows - 1) if drop == "row" else M.take_cols(0, M.cols - 1)

    text, synd = bundle_texts[form]
    for code, err in _decode_and_verify(tmp_path, capsys, _replace_section(text, label, edit), synd):
        assert code == 2 and "error=MALFORMED_FILE" in err


def test_untampered_bundles_still_decode_and_verify(tmp_path, capsys, bundle_texts):
    for text, synd in bundle_texts.values():
        assert [code for code, _ in _decode_and_verify(tmp_path, capsys, text, synd)] == [0, 0]


@pytest.mark.parametrize(
    "form,label,section",
    [
        ("direct", "Zed", "1 1\n1\n"),
        ("relaxed", "Zed", "1 1\n1\n"),
        # a section of the relaxed form that the code fixes, in a direct file
        # (it has no E_i, D_i or Y, which only the relaxed form chooses)
        ("direct", "C_2", gf2.format_matrix(gf2.BitMatrix.identity(6))),
    ],
)
def test_section_outside_the_form_is_malformed(
    tmp_path, capsys, bundle_texts, form, label, section
):
    # every section the form has agrees; the extra one alone is refused
    text, synd = bundle_texts[form]
    extended = text + f"{label}\n{section}"
    refusal = f"section {label!r} is not part of a {form} bundle"
    for code, err in _decode_and_verify(tmp_path, capsys, extended, synd):
        assert (code, err) == (2, f"error=MALFORMED_FILE {refusal}\n")
    # a section that disagrees is still named first
    broken = _replace_section(extended, "R", _flip_first_bit)
    for code, err in _decode_and_verify(tmp_path, capsys, broken, synd):
        assert (code, err) == (2, f"error=MALFORMED_FILE {_R}\n")


def _drop_section(text: str, label: str) -> str:
    """The bundle text without section ``label``."""
    lines = text.splitlines(keepends=True)
    at = lines.index(label + "\n")
    return "".join(lines[:at] + lines[at + 2 + int(lines[at + 1].split()[0]) :])


@pytest.mark.parametrize(
    "form, edit, missing",
    [
        # a relaxed file is known by its chosen sections, so the one it lacks
        # is named, not the coding matrix that C_1 is compared with
        ("relaxed", lambda text: _drop_section(text, "C_1"), "C_1"),
        # a chosen section makes a direct file relaxed, and E_1 is then missing
        ("direct", lambda text: text + "Y\n1 1\n1\n", "E_1"),
        ("direct", lambda text: text + "D_2\n1 1\n1\n", "E_1"),
        ("direct", lambda text: text + "E_2\n1 1\n1\n", "E_1"),
    ],
    ids=["relaxed-without-C_1", "direct-with-Y", "direct-with-D_2", "direct-with-E_2"],
)
def test_chosen_sections_decide_the_form(tmp_path, capsys, bundle_texts, form, edit, missing):
    text, synd = bundle_texts[form]
    for code, err in _decode_and_verify(tmp_path, capsys, edit(text), synd):
        assert (code, err) == (2, f"error=MALFORMED_FILE missing section {missing!r}\n")


@pytest.fixture(scope="module")
def marked_texts(tmp_path_factory, bundle_texts, bundle_a3):
    """form -> the text that ``write_bundle`` gives the bundles of
    ``bundle_texts``: the form's marker, the code and the chosen sections."""
    path = tmp_path_factory.mktemp("marked") / "bundle.txt"
    out = {}
    for form, bundle in (("direct", bundle_a3), ("relaxed", ghcms.ghcms_build(bundle_a3.Q))):
        bundleio.write_bundle(path, bundle)
        out[form] = path.read_text()
    return out


def _marker_cases():
    """(form, edit, line, refusal): the marked file of ``form`` after
    ``edit`` is refused naming ``line``, or the line of a section label."""
    def append(label):
        return lambda text: text + f"{label}\n1 1\n1\n"

    def remark(marker):
        return lambda text: marker + text[text.index("\n") :]

    def misses(label):
        return lambda text: _drop_section(text, label)

    expected = "expected 'bundle direct' or 'bundle relaxed', got"
    yield "direct", remark("bundle drect"), 1, f"{expected} 'bundle drect' (12 characters)"
    yield "relaxed", remark("bundle"), 1, f"{expected} 'bundle' (6 characters)"
    yield "direct", remark("bundle direct relaxed"), 1, f"{expected} 'bundle direct re...' (21 characters)"
    for label in ("Y", "D_2", "E_1"):
        yield "direct", append(label), label, f"section {label!r} is not part of a direct bundle"
    # a relaxed file marked direct is refused at its first chosen section
    yield "relaxed", remark("bundle direct"), "Y", "section 'Y' is not part of a direct bundle"
    for label in ("Y", "D_2", "E_3"):
        yield "relaxed", misses(label), 1, f"missing section {label!r} of a relaxed bundle"
    yield "direct", remark("bundle relaxed"), 1, "missing section 'Y' of a relaxed bundle"


@pytest.mark.parametrize(
    "form, edit, line, refusal",
    [pytest.param(*case, id=f"{case[0]}-{case[3]}") for case in _marker_cases()],
)
def test_marker_refusals_name_the_file_line(
    tmp_path, capsys, bundle_texts, marked_texts, form, edit, line, refusal
):
    text = edit(marked_texts[form])
    if isinstance(line, str):
        line = text.splitlines().index(line) + 1
    for code, err in _decode_and_verify(tmp_path, capsys, text, bundle_texts[form][1]):
        assert (code, err) == (2, f"error=MALFORMED_FILE line {line}: {refusal}\n")


@pytest.mark.parametrize("form", ["direct", "relaxed"])
def test_marked_file_is_compared_on_the_sections_it_has(
    tmp_path, capsys, bundle_texts, marked_texts, form
):
    # the marker over a full file: every derived section is there and agrees
    full, synd = bundle_texts[form]
    marker = marked_texts[form].splitlines()[0] + "\n"
    assert [code for code, _ in _decode_and_verify(tmp_path, capsys, marker + full, synd)] == [0, 0]
    broken = marker + _replace_section(full, "R", _flip_first_bit)
    for code, err in _decode_and_verify(tmp_path, capsys, broken, synd):
        assert (code, err) == (2, f"error=MALFORMED_FILE {_R}\n")
    # and without them it loads alike
    assert _decode_and_verify(tmp_path, capsys, marked_texts[form], synd) == [(0, ""), (0, "")]


_OUTSIDE_THE_MODEL = "need s >= 2 and n >= 1"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 3\n3\n3 3\n100\n010\n001\n", _OUTSIDE_THE_MODEL),
        ("3 0\n0 0 0\n0 0\n0 0\n0 0\n", _OUTSIDE_THE_MODEL),
        # a bundle file in the direct form whose rates leave no parity bits
        (
            "3 3\n1 1 1\n1 3\n100\n1 3\n010\n1 3\n001\nP\n0 0\n",
            "M - n is 0: the direct form needs 1 <= M - n <= m_i",
        ),
    ],
    ids=["one-terminal", "zero-length", "no-parity-bits"],
)
@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_code_header_outside_the_model_is_malformed(tmp_path, capsys, text, message, command):
    path = tmp_path / "code.txt"
    path.write_text(text)
    argv = [command, str(path)] + (["-o", str(tmp_path / "r.txt")] if command == "reduce" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error=MALFORMED_FILE" in err and message in err


# zero-row matrices declare a width that no row bounds
HUGE = 1 << 62
WIDE_FILES = {
    "huge-n": (f"2 {HUGE}\n0 0\n0 {HUGE}\n0 {HUGE}\n", "need n <= 8192"),
    "n-above-bound": ("2 8193\n0 0\n0 8193\n0 8193\n", "need n <= 8192"),
    "wide-section": (f"2 1\n1 1\n1 1\n1\n1 1\n1\nP\n0 {HUGE}\n", f"0 x {HUGE} out of range"),
}


@pytest.mark.parametrize("name", sorted(WIDE_FILES))
@pytest.mark.parametrize("command", ["verify", "encode", "decode", "reduce"])
def test_declared_widths_are_bounded_before_allocation(tmp_path, capsys, name, command):
    # before the bound, verify died in null_space and encode in the group
    # file reader, both with a traceback
    text, message = WIDE_FILES[name]
    path = tmp_path / "code.txt"
    path.write_text(text)
    (tmp_path / "in.txt").write_text("0\n0\n")
    argv = {
        "verify": [],
        "reduce": ["-o", str(tmp_path / "r.txt")],
    }.get(command, ["--input", str(tmp_path / "in.txt"), "--output", str(tmp_path / "out.txt")])
    code, out, err = run(capsys, command, str(path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error=MALFORMED_FILE ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out.txt").exists() and not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--a", "0"],
        ["params", "--a", "-3"],
        ["params", "--scan", "0"],
        ["params", "--scan", "-2", "--kv"],
        ["search", "--n", "0", "--M", "0"],
        ["search", "--n", "-1", "--M", "1"],
        ["search", "--n", "5", "--M", "9", "--s", "4"],
        ["verify", "BUNDLE", "--roundtrip", "-5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_argument_outside_its_domain_is_bad_argument(tmp_path, capsys, argv):
    bundle = tmp_path / "trivial.txt"
    assert run(capsys, "gen", "--trivial", "-o", str(bundle))[0] == 0
    code, out, err = run(capsys, *[str(bundle) if a == "BUNDLE" else a for a in argv])
    assert code == 2 and err.startswith("error=BAD_ARGUMENT ")
    assert "roundtrip=" not in out


@pytest.mark.parametrize(
    "env, flags, refusal",
    [
        ("abc", [], "BAD_ARGUMENT HCMS_BUDGET must be an integer, got 'abc'"),
        (None, ["--budget", "1000"], "BUDGET_EXCEEDED 3375 admissible triples exceed budget 1000"),
    ],
    ids=["env-not-an-integer", "triples-over-budget"],
)
def test_search_refuses_a_budget_it_cannot_keep(capsys, monkeypatch, env, flags, refusal):
    if env is None:
        monkeypatch.delenv("HCMS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("HCMS_BUDGET", env)
    code, out, err = run(capsys, "search", "--n", "5", "--M", "9", *flags)
    assert (code, out, err) == (2, "", f"error={refusal}\n")


def test_search_budget_is_checked_before_listing_subspaces(capsys):
    # listing the 20-dimensional subspaces of GF(2)^21 alone is 2^21 - 1 steps
    code, _, err = run(capsys, "search", "--n", "21", "--M", "27")
    assert code == 2 and "error=BUDGET_EXCEEDED" in err


@pytest.mark.parametrize(
    "budget, refusal",
    [
        (
            "4194304",
            "listing the 4056681585917103881615955 16-dimensional subspaces of GF(2)^21 "
            "exceeds budget 4194304",
        ),
        (
            str(10**27),
            "listing the 16-dimensional subspaces of GF(2)^21, at least 2^63 of them, "
            "needs indices wider than 63 bits",
        ),
    ],
    ids=["counted", "unindexable"],
)
def test_search_skips_dimensions_the_hamming_bound_rules_out(capsys, budget, refusal):
    # the budget admits the 2^21 - 1 twenty-dimensional subspaces, but
    # 2^20 (21 + 1) > 2^21 rules them all out unlisted; the 16-dimensional
    # ones come next and are refused
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--n", "21", "--M", "27", "--budget", budget)
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", f"error=BUDGET_EXCEEDED {refusal}\n")


@pytest.mark.parametrize("a", [3, 4, 5])
def test_shifted_plain_code_round_trips(tmp_path, capsys, rng, a):
    # a plain code file, as reduce takes it: an equivalent of the a-th HCMS
    # with part of the null space common to terminals 1 and 2 moved from
    # terminal 2 to terminal 0
    code = hcms.hcms_for_a(a).code
    prof = equiv.profile(code)
    common = gf2.subspace_intersect(prof[1], prof[2])
    K = gf2.random_subspace_of(common, common.dim // 2, rng)
    shifted = equiv.shift_null_space(code, K, 0, 2)
    path = tmp_path / "shifted.txt"
    bundleio.write_code_file(path, shifted)
    status, out, _ = run(capsys, "verify", str(path), "--kv", "--roundtrip", "300")
    assert status == 0 and "perfect=true" in out
    assert "roundtrip=300/300 path=algebraic" in out

    src, synd, back = tmp_path / "src.txt", tmp_path / "synd.txt", tmp_path / "back.txt"
    src.write_text(sources.format_tuples([sources.random_member(3, code.n, rng) for _ in range(20)]))
    assert run(capsys, "encode", str(path), "--input", str(src), "--output", str(synd))[0] == 0
    status, out, _ = run(capsys, "decode", str(path), "--input", str(synd), "--output", str(back))
    assert status == 0 and "decoded=20 path=algebraic" in out
    assert back.read_text() == src.read_text()


def test_main_frees_what_a_command_made(tmp_path, capsys, monkeypatch):
    # a bundle and its code refer to each other, so only the cyclic
    # collector frees them; with automatic collection off, nothing but
    # main's own collection can have freed the bundle gen made
    made = []
    real = hcms.assemble

    def assemble(*args, **kwargs):
        bundle = real(*args, **kwargs)
        made.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(hcms, "assemble", assemble)
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run(capsys, "gen", "--a", "3", "-o", str(tmp_path / "b.txt"))
    finally:
        gc.enable()
    assert code == 0 and len(made) == 1 and made[0]() is None


@pytest.mark.parametrize("argv", [["--a", "3"], ["--a", "4"], ["--a", "5"], ["--trivial"]])
def test_gen_never_inverts_R(tmp_path, capsys, monkeypatch, argv):
    # the standard completion of a full-row-rank Y always gives an
    # invertible R, so gen checks nothing more; verify and decode of the
    # bundle read R^-1 off an r x r elimination (T is unit rows), and all
    # three read the code's plan off the bundle's sections, with no
    # elimination of [A | I] and no back-substitution of its top rows
    def forbidden(*args):
        raise AssertionError("R inverted or the plan eliminated")

    for mod, name in (
        (gf2, "invert"), (hcms, "invert"), (codec, "echelon_augmented"), (codec, "back_substitute"),
    ):
        monkeypatch.setattr(mod, name, forbidden)
    path = tmp_path / "b.txt"
    code, _, err = run(capsys, "gen", *argv, "-o", str(path))
    assert code == 0, err
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and "perfect=true" in out, err
    bundle = bundleio.build_bundle(bundleio.read_file(path))
    rng = np.random.default_rng(1)
    xs = [sources.random_member(bundle.s, bundle.n, rng) for _ in range(20)]
    src, synd, back = (tmp_path / f"{name}.txt" for name in ("src", "synd", "back"))
    src.write_text(sources.format_tuples(xs))
    synd.write_text(sources.format_tuples([codec.encode(bundle.code, x) for x in xs]))
    code, _, err = run(capsys, "decode", str(path), "--input", str(synd), "--output", str(back))
    assert code == 0 and back.read_text() == src.read_text(), err


def test_roundtrip_count_is_bounded_by_budget_env(tmp_path, capsys, monkeypatch, bundle_a3):
    path = tmp_path / "a3.txt"
    bundleio.write_bundle(path, bundle_a3)
    monkeypatch.setenv("HCMS_BUDGET", "10")
    code, out, err = run(capsys, "verify", str(path), "--roundtrip", "11")
    assert code == 2 and err.startswith("error=BUDGET_EXCEEDED ") and out == ""
    code, out, _ = run(capsys, "verify", str(path), "--roundtrip", "10")
    assert code == 0 and "roundtrip=10/10" in out


def test_huge_roundtrip_fails_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HCMS_BUDGET", raising=False)
    path = tmp_path / "trivial.txt"
    assert run(capsys, "gen", "--trivial", "-o", str(path))[0] == 0

    def no_sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(sources, "random_members", no_sampling)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path), "--roundtrip", "1000000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and err.startswith("error=BUDGET_EXCEEDED ") and out == ""


def _write_singular(tmp_path, bundle) -> tuple[str, list[str]]:
    """The bundle file's path and decode's file arguments (one tuple of
    zero syndromes)."""
    path, synd = tmp_path / "singular.txt", tmp_path / "synd.txt"
    bundleio.write_bundle(path, bundle)
    synd.write_text("".join("0" * m + "\n" for m in bundle.code.m))
    return str(path), ["--input", str(synd), "--output", str(tmp_path / "x.txt")]


def test_singular_R_on_load_is_not_invertible(tmp_path, capsys):
    # sections that agree with each other, as load checks them (s = 2 does
    # not need Q_1 = Q_2 there): H_1 = [C_1] = [110; 011] and
    # H_2 = [G_2; C_2] = [101; 100; 010] form a perfect code, while
    # R = [Y; T] = [110; 011; 101] is singular
    m = gf2.BitMatrix.from_bits
    C = (m([[1, 1, 0], [0, 1, 1]]), m([[1, 0, 0], [0, 1, 0]]))
    T = m([[1, 0, 1]])
    code = codec.make_code([C[0], gf2.vstack([T, C[1]])])
    assert codec.is_perfect(code)
    I2 = gf2.BitMatrix.identity(2)
    bundle = hcms.Bundle(code, E=(I2, I2), Y=C[0], D=(I2, I2))
    path, files = _write_singular(tmp_path, bundle)
    for argv in (["decode", path, *files], ["verify", path, "--roundtrip", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error=R_NOT_INVERTIBLE "), (argv, err)


@pytest.mark.parametrize("relaxed", [False, True], ids=["direct", "relaxed"])
def test_singular_completion_names_what_the_file_holds(tmp_path, capsys, relaxed):
    # a marked file stores no R, and a direct one no Y either: the refusal
    # names the stack or Y, and the G_i rows of the code, which are what
    # it holds.  Bit 0 of the first code row, e_12 in G_1, makes that row
    # e_0 + e_12, which with the stack's rows leaves R singular
    bundle = ghcms.ghcms_build(hcms.a3_partition()) if relaxed else hcms.hcms_for_a(3)
    path = tmp_path / "bundle.txt"
    bundleio.write_bundle(path, bundle)
    lines = path.read_text().split("\n")
    assert lines[4] == "0" * 12 + "1" + "0" * 8
    lines[4] = "1" + lines[4][1:]
    path.write_text("\n".join(lines))
    held = "Y" if relaxed else "[Q_1; ...; Q_(s-1)]"
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error=R_NOT_INVERTIBLE {held} does not complete to an invertible matrix"
        " with the code's G_i rows\n"
    )


def test_singular_R_of_a3_partition_on_load(tmp_path, capsys):
    # the a = 3 partition with T = 0: both commands check the sections
    # first, and refuse the bundle before any verdict
    Q = hcms.a3_partition()
    T = gf2.BitMatrix.zeros(9, 21)
    G = tuple(T.take_rows(i, i + 3) for i in (0, 3, 6))
    bundle = hcms.Bundle(codec.make_code([gf2.vstack([Gi, Qi]) for Gi, Qi in zip(G, Q)]))
    path, files = _write_singular(tmp_path, bundle)
    for argv in (["decode", path, *files], ["verify", path, "--roundtrip", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error=R_NOT_INVERTIBLE ") and out == "", (argv, err)
