"""``search``, ``params``, ``verify``, ``gen``, ``encode``, ``decode`` and
``reduce`` under random flag values, integer or not, and random file
arguments: each run exits 0 or prints an ``error=<TOKEN>`` line; it never
raises.

Budgets stay at most 5000 (or the default), so a perfect (n, M) either runs
the (3, 5, 9) search of 3375 triples or fails its budget before listing.
``verify`` runs on the ``gen --trivial`` bundle with at most 300 round
trips, since its time grows with their number.  ``gen --a`` takes values
up to 5 or from 8 on, which fail before any building: a = 6 and 7 are
valid but slow to build.  File arguments are missing, empty, malformed, a
directory, or valid; outputs go to a file, a directory, or a path in a
missing directory, never over an input.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swhamming import cli, sources

# the perfect (n, M) of a = 1..40, the larger ones far beyond any listing
PERFECT = [sources.perfect_params_for_a(a) for a in range(1, 41)]

NOT_INTS = st.one_of(
    st.sampled_from(["", " ", "x", "5.0", "1e3", "0x10", "nan", "-", "--", "-h", "9" * 5000]),
    st.text(max_size=6),
)


def values(ints):
    return st.one_of(ints.map(str), NOT_INTS)


SMALL = st.integers(-3, 30)
ANY_INT = st.one_of(SMALL, st.integers(-(2**80), 2**80))


def flags(pairs: list[tuple[str, str | None]]) -> list[str]:
    return [tok for name, val in pairs if val is not None for tok in (name, val)]


@st.composite
def search_argv(draw) -> list[str]:
    n, M = draw(st.one_of(st.tuples(ANY_INT, ANY_INT), st.sampled_from(PERFECT)))
    pairs = [
        ("--n", draw(st.one_of(st.none(), st.just(str(n)), values(ANY_INT)))),
        ("--M", draw(st.one_of(st.none(), st.just(str(M)), values(ANY_INT)))),
        ("--s", draw(st.one_of(st.none(), values(ANY_INT)))),
        ("--budget", draw(st.one_of(st.none(), values(st.integers(-5, 5000))))),
        ("--jobs", draw(st.one_of(st.none(), values(ANY_INT)))),
    ]
    pairs = draw(st.permutations(pairs))
    return ["search", *flags(pairs), *draw(st.sampled_from([[], ["--kv"]]))]


@st.composite
def params_argv(draw) -> list[str]:
    pairs = [
        ("--a", draw(st.one_of(st.none(), values(ANY_INT)))),
        ("--scan", draw(st.one_of(st.none(), values(ANY_INT)))),
    ]
    extra = draw(st.lists(st.sampled_from(["--kv", "--cuvw"]), unique=True))
    return ["params", *flags(pairs), *extra]


@st.composite
def verify_flags(draw) -> list[str]:
    seeds = st.one_of(ANY_INT, st.sampled_from([-1, 2**80, -(2**80)]))
    pairs = [
        ("--seed", draw(st.one_of(st.none(), values(seeds)))),
        ("--roundtrip", draw(st.one_of(st.none(), values(st.integers(-3, 300))))),
    ]
    pairs = draw(st.permutations(pairs))
    return [*flags(pairs), *draw(st.sampled_from([[], ["--kv"]]))]


@pytest.fixture(scope="module")
def trivial_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "trivial.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--trivial", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory, trivial_bundle):
    """Named input files, and the output paths out/ (a file), dir and
    missing/out (in a directory that does not exist)."""
    root = tmp_path_factory.mktemp("files")
    with open(trivial_bundle) as fh:
        bundle_text = fh.read()
    texts = {
        "empty": "",
        "garbage": "3 1\n1 1 x\n\xff\n",
        "truncated": bundle_text[: len(bundle_text) // 2],
        # the (identity, Hamming) pair at n = 3, and a code that is not perfect
        "pair": "2 3\n3 2\n3 3\n100\n010\n001\n2 3\n011\n101\n",
        "imperfect": "3 2\n1 1 1\n1 2\n11\n1 2\n11\n1 2\n11\n",
        "tuples": "1\n0\n0\n\n1\n1\n1\n",
        "bad_tuples": "1\n0\n\n1\n1\n1\n",
    }
    paths = {"bundle": trivial_bundle, "missing": str(root / "missing.txt"), "dir": str(root)}
    for name, text in texts.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    (root / "out").mkdir()
    paths["out"] = str(root / "out" / "out.txt")
    paths["missing_dir"] = str(root / "missing" / "out.txt")
    return paths


# valid choices weighted up, so that runs also get past argument parsing
BAD_FILES = ["missing", "dir", "empty", "garbage", "truncated", "imperfect"]
CODES = st.sampled_from(["bundle"] * 3 + ["pair"] * 2 + BAD_FILES)
GROUPS = st.sampled_from(["tuples"] * 4 + ["bad_tuples", "bundle"] + BAD_FILES)
OUTPUTS = st.sampled_from(["out"] * 4 + ["dir", "missing_dir"])
SPLITS = st.one_of(
    st.sampled_from(["0,0,0", "9,0,0", "3,3,3", "23,23,23", "1,2", "3,x,3", "-1,10,0", ""]),
    st.sampled_from([",", "9" * 5000]),
    st.lists(st.integers(-3, 12), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    st.text(max_size=6),
)
A_VALUES = st.one_of(st.integers(-3, 5), st.integers(8, 40), st.integers(-(2**80), 2**80))


def mostly(strategy):
    """A value of ``strategy`` four times in five, else None (flag left out)."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda keep: strategy if keep else st.none())


def positionals(strategy):
    """One positional argument four times in six, else none or two."""
    return st.sampled_from([1] * 4 + [0, 2]).flatmap(
        lambda k: st.lists(strategy, min_size=k, max_size=k)
    )


@st.composite
def gen_argv(draw) -> list[str]:
    mode = draw(st.sampled_from(["a"] * 4 + ["trivial"] * 4 + ["both", "neither"]))
    a = draw(st.one_of(A_VALUES.map(str), A_VALUES.map(str), NOT_INTS))
    pairs = [
        ("--a", a if mode in ("a", "both") else None),
        ("--split", draw(st.one_of(st.none(), st.none(), SPLITS))),
        ("-o", draw(mostly(OUTPUTS))),
    ]
    pairs = draw(st.permutations(pairs))
    return ["gen", *flags(pairs), *(["--trivial"] if mode in ("trivial", "both") else [])]


@st.composite
def stream_argv(draw) -> list[str]:
    pairs = [("--input", draw(mostly(GROUPS))), ("--output", draw(mostly(OUTPUTS)))]
    pairs = draw(st.permutations(pairs))
    command = draw(st.sampled_from(["encode", "decode"]))
    return [command, *draw(positionals(CODES)), *flags(pairs)]


@st.composite
def reduce_argv(draw) -> list[str]:
    out = flags([("-o", draw(mostly(OUTPUTS)))])
    kv = draw(st.sampled_from([[], ["--kv"]]))
    tail = [*out, *kv] if draw(st.booleans()) else [*kv, *out]
    return ["reduce", *draw(positionals(CODES)), *tail]


def named(argv: list[str], files: dict[str, str]) -> list[str]:
    """argv with each file name replaced by its path."""
    return [files.get(tok, tok) if i else tok for i, tok in enumerate(argv)]


def check(argv, monkeypatch):
    monkeypatch.delenv("HCMS_BUDGET", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == "", err.getvalue()
    else:
        assert re.match(r"error=[A-Z_]+ ", err.getvalue()), (argv, err.getvalue())


@given(argv=search_argv())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_search_flags_give_a_token_not_a_traceback(monkeypatch, argv):
    check(argv, monkeypatch)


@given(argv=params_argv())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_params_flags_give_a_token_not_a_traceback(monkeypatch, argv):
    check(argv, monkeypatch)


@given(flags=verify_flags())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_flags_give_a_token_not_a_traceback(monkeypatch, trivial_bundle, flags):
    check(["verify", trivial_bundle, *flags], monkeypatch)


def test_negative_seed_is_bad_argument_before_reading(capsys):
    assert cli.main(["verify", "no-such-file", "--roundtrip", "3", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error=BAD_ARGUMENT ")


def test_non_integer_flag_is_bad_argument(capsys):
    assert cli.main(["search", "--n", "five", "--M", "9"]) == 2
    assert capsys.readouterr().err.startswith("error=BAD_ARGUMENT ")


@given(argv=gen_argv())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_gen_flags_give_a_token_not_a_traceback(monkeypatch, files, argv):
    check(named(argv, files), monkeypatch)


@given(argv=stream_argv())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_encode_decode_flags_give_a_token_not_a_traceback(monkeypatch, files, argv):
    check(named(argv, files), monkeypatch)


@given(argv=reduce_argv())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reduce_flags_give_a_token_not_a_traceback(monkeypatch, files, argv):
    check(named(argv, files), monkeypatch)
