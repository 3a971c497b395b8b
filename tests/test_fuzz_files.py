"""``verify`` and ``reduce`` on randomly damaged copies of a valid code file
either succeed or print an ``error=<TOKEN>`` line; they never raise."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_quiet
from swhamming import codec, hcms

HEADERS = [
    "-1 4", "4 -1", "99999999 99999999", "99999999999999999999999 1", "0 0", "0 21",
    "9 0", "21", "", "x y", "9 21 7", "1 21", "3 21", "2 1", "3 2 1",
]

mutations = st.lists(
    st.one_of(
        # one byte set to any value, 0xff and line ends included
        st.tuples(st.just("byte"), st.integers(0, 1 << 20), st.integers(0, 255)),
        st.tuples(st.just("drop_line"), st.integers(0, 1 << 20), st.just(0)),
        # a header line (the code's two, or a matrix's) replaced
        st.tuples(st.just("header"), st.integers(0, 1 << 20), st.sampled_from(HEADERS)),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def code_text() -> bytes:
    return codec.format_code(hcms.hcms_for_a(3).code).encode()


def _header_lines(lines: list[bytes]) -> list[int]:
    # the code's two header lines, then each matrix's "rows cols" line
    at, out = 2, [0, 1]
    for _ in range(3):
        out.append(at)
        at += 1 + int(lines[at].split()[0])
    return out


def mutate(text: bytes, edits) -> bytes:
    lines = text.split(b"\n")
    headers = _header_lines(lines)
    for kind, where, value in edits:
        if kind == "byte":
            data = bytearray(b"\n".join(lines))
            data[where % len(data)] = value
            lines = bytes(data).split(b"\n")
        elif kind == "drop_line" and lines:
            del lines[where % len(lines)]
        elif kind == "header":
            at = headers[where % len(headers)]
            if at < len(lines):
                lines[at] = value.encode()
    return b"\n".join(lines)


@given(edits=mutations)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_code_file_gives_a_token_not_a_traceback(tmp_path, code_text, edits):
    path = tmp_path / "code.txt"
    path.write_bytes(mutate(code_text, edits))
    for argv in (["verify", str(path)], ["reduce", str(path), "-o", str(tmp_path / "r.txt")]):
        code, err = run_quiet(argv)
        if code != 0:
            assert err.startswith("error="), err

