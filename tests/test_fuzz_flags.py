"""``search``, ``params`` and ``verify`` under random flag values, integer
or not: each run exits 0 or prints an ``error=<TOKEN>`` line; it never
raises.

Budgets stay at most 5000 (or the default), so a perfect (n, M) either runs
the (3, 5, 9) search of 3375 triples or fails its budget before listing.
``verify`` runs on the ``gen --trivial`` bundle with at most 300 round
trips, since its memory grows with their number.
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
