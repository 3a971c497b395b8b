"""CLI behavior: subcommands, file round trips, exit codes, determinism."""

from __future__ import annotations

import time

import numpy as np
import pytest

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
    synd.write_text(codec.format_syndromes([codec.encode(pair_n7, x)]))
    monkeypatch.setenv("HCMS_BUDGET", "16")
    out_path = tmp_path / "o.txt"
    code, out, _ = run(capsys, "decode", str(code_path), "--input", str(synd), "--output", str(out_path))
    assert code == 0 and "path=algebraic" in out
    assert out_path.read_text() == sources.format_tuples([x])


def test_gen_rejects_small_a(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--a", "2", "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert "error=HEIGHT_NEGATIVE" in err


def test_verify_sabotaged_bundle(tmp_path, capsys):
    path = tmp_path / "a3.txt"
    assert run(capsys, "gen", "--a", "3", "-o", str(path))[0] == 0
    lines = path.read_text().splitlines()
    # line 3 is the first row of the first coding matrix
    row = list(lines[3])
    row[7] = "1" if row[7] == "0" else "0"
    lines[3] = "".join(row)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(bad))
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
    loaded = bundleio.load_bundle(path)
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
    loaded = bundleio.load_bundle(path)
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


@pytest.mark.parametrize("tail", sorted(_BAD_TAILS))
def test_encode_rejects_bad_tuple_in_second_chunk(tmp_path, capsys, rng, tail):
    bundle_path = tmp_path / "a3.txt"
    assert run(capsys, "gen", "--a", "3", "-o", str(bundle_path))[0] == 0
    tuples = [sources.random_member(3, 21, rng) for _ in range(sources.CHUNK_TUPLES)]
    src = tmp_path / "src.txt"
    src.write_text(sources.format_tuples(tuples) + "\n" + _BAD_TAILS[tail])
    code, _, err = run(
        capsys, "encode", str(bundle_path), "--input", str(src), "--output", str(tmp_path / "y.txt")
    )
    assert code == 2 and "error=MALFORMED_FILE" in err


def test_decode_rejects_bad_syndrome_in_second_chunk(tmp_path, capsys, rng, bundle_a3):
    bundle_path = tmp_path / "a3.txt"
    bundleio.write_bundle(bundle_path, bundle_a3)
    ys = [
        codec.encode(bundle_a3.code, sources.random_member(3, 21, rng))
        for _ in range(sources.CHUNK_TUPLES + 2)
    ]
    synd = tmp_path / "synd.txt"
    synd.write_text(codec.format_syndromes(ys) + "\n" + "\n".join(["1" * 8] * 3) + "\n")
    code, _, err = run(
        capsys, "decode", str(bundle_path), "--input", str(synd), "--output", str(tmp_path / "x.txt")
    )
    assert code == 2 and "error=MALFORMED_FILE" in err


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_output_that_is_the_input_is_refused(tmp_path, capsys, rng, bundle_a3, command):
    # opening the output first would truncate the input before it is read
    bundle_path = tmp_path / "a3.txt"
    bundleio.write_bundle(bundle_path, bundle_a3)
    xs = [sources.random_member(3, 21, rng) for _ in range(5)]
    if command == "encode":
        text = sources.format_tuples(xs)
    else:
        text = codec.format_syndromes([codec.encode(bundle_a3.code, x) for x in xs])
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
    monkeypatch.setattr(sources, "CHUNK_TUPLES", 7)
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


def test_decode_algebraic_ignores_table_budget(tmp_path, capsys, monkeypatch, rng, bundle_a3):
    # HCMS_BUDGET bounds the search, not the decoder
    bundle_path = tmp_path / "a3.txt"
    bundleio.write_bundle(bundle_path, bundle_a3)
    xs = [sources.random_member(3, 21, rng) for _ in range(5)]
    synd = tmp_path / "synd.txt"
    synd.write_text(codec.format_syndromes([codec.encode(bundle_a3.code, x) for x in xs]))
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


# ---------------------------------------------------------------------------
# load-time consistency of bundle files
# ---------------------------------------------------------------------------

_DIRECT_SECTIONS = ["P", "Q_1", "Q_2", "Q_3", "T", "G_1", "G_2", "G_3", "R"]
_RELAXED_SECTIONS = _DIRECT_SECTIONS + [
    "C_1", "C_2", "C_3", "Y", "D_1", "D_2", "D_3", "E_1", "E_2", "E_3"
]


@pytest.fixture(scope="module")
def bundle_texts(tmp_path_factory, bundle_a3):
    """form -> (bundle file text, a syndrome file's text) for the a = 3
    direct bundle and a relaxed one with every section nonempty."""
    rng = np.random.default_rng(3)
    path = tmp_path_factory.mktemp("bundles") / "bundle.txt"
    out = {}
    for form, bundle in (("direct", bundle_a3), ("relaxed", ghcms.ghcms_build(bundle_a3.Q))):
        bundleio.write_bundle(path, bundle)
        ys = [codec.encode(bundle.code, sources.random_member(3, 21, rng)) for _ in range(5)]
        out[form] = (path.read_text(), codec.format_syndromes(ys))
    return out


def _replace_section(text: str, label: str, edit) -> str:
    """The bundle text with section ``label``'s matrix replaced by
    ``edit(matrix)``."""
    lines = text.splitlines(keepends=True)
    at = lines.index(label + "\n") + 1
    rows = int(lines[at].split()[0])
    body = iter(lines[at : at + 1 + rows])
    new = gf2.format_matrix(edit(gf2.parse_matrix(body)))
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
    "form,label",
    [("direct", s) for s in _DIRECT_SECTIONS] + [("relaxed", s) for s in _RELAXED_SECTIONS],
)
def test_tampered_bundle_section_is_malformed(tmp_path, capsys, bundle_texts, form, label):
    text, synd = bundle_texts[form]
    tampered = _replace_section(text, label, _flip_first_bit)
    for code, err in _decode_and_verify(tmp_path, capsys, tampered, synd):
        assert code == 2 and "error=MALFORMED_FILE" in err


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
    "text",
    ["1 3\n3\n3 3\n100\n010\n001\n", "3 0\n0 0 0\n0 0\n0 0\n0 0\n"],
    ids=["one-terminal", "zero-length"],
)
@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_code_header_outside_the_model_is_malformed(tmp_path, capsys, text, command):
    path = tmp_path / "code.txt"
    path.write_text(text)
    argv = [command, str(path)] + (["-o", str(tmp_path / "r.txt")] if command == "reduce" else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error=MALFORMED_FILE" in err and "need s >= 2 and n >= 1" in err


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


def test_search_budget_is_checked_before_listing_subspaces(capsys):
    # listing the 20-dimensional subspaces of GF(2)^21 alone is 2^21 - 1 steps
    code, _, err = run(capsys, "search", "--n", "21", "--M", "27")
    assert code == 2 and "error=BUDGET_EXCEEDED" in err


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


@pytest.mark.parametrize("argv", [["--a", "3"], ["--a", "4"], ["--a", "5"], ["--trivial"]])
def test_gen_never_inverts_R(tmp_path, capsys, monkeypatch, argv):
    # the standard completion of a full-row-rank Y always gives an
    # invertible R, so gen checks nothing more
    def no_invert(*args):
        raise AssertionError("R inverted")

    monkeypatch.setattr(gf2, "invert", no_invert)
    monkeypatch.setattr(hcms, "invert", no_invert)
    code, _, err = run(capsys, "gen", *argv, "-o", str(tmp_path / "b.txt"))
    assert code == 0, err


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

    monkeypatch.setattr(sources, "random_member", no_sampling)
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
    bundle = hcms.Bundle(
        s=2, n=3, M=5, P=C[0], Q=C, T=T, G=(gf2.BitMatrix.zeros(0, 3), T),
        R=gf2.vstack([C[0], T]), code=code, C=C, Y=C[0], E=(I2, I2), D=(I2, I2),
    )
    path, files = _write_singular(tmp_path, bundle)
    for argv in (["decode", path, *files], ["verify", path, "--roundtrip", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error=R_NOT_INVERTIBLE "), (argv, err)


def test_singular_R_of_a3_partition_on_load(tmp_path, capsys):
    # the a = 3 partition with T = 0: a code on a three-block partition
    # compresses S only if rank [H_1; H_2; H_3] = rank R = n, so verify
    # stops at NOT_PERFECT before it loads the sections; decode loads them
    Q = hcms.a3_partition()
    T = gf2.BitMatrix.zeros(9, 21)
    G = tuple(T.take_rows(i, i + 3) for i in (0, 3, 6))
    bundle = hcms.Bundle(
        s=3, n=21, M=27, P=gf2.hstack(Q), Q=Q, T=T, G=G, R=gf2.vstack([*Q[:2], T]),
        code=codec.make_code([gf2.vstack([Gi, Qi]) for Gi, Qi in zip(G, Q)]),
    )
    path, files = _write_singular(tmp_path, bundle)
    code, _, err = run(capsys, "decode", path, *files)
    assert code == 2 and err.startswith("error=R_NOT_INVERTIBLE "), err
    code, out, _ = run(capsys, "verify", path, "--roundtrip", "1")
    assert code == 1 and "compressible=false" in out
