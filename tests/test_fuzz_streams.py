"""``encode`` and ``decode`` on randomly damaged group files, with the
a = 3 bundle and with its plain code file, either succeed or print an
``error=<TOKEN>`` line; they never raise."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_quiet
from swhamming import bundleio, codec, hcms, sources

mutations = st.lists(
    st.one_of(
        # one byte set to any value, 0xff and line ends included
        st.tuples(st.just("byte"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=1)),
        st.tuples(st.just("drop_line"), st.integers(0, 1 << 20), st.just(b"")),
        # a line made longer by a few bits or other bytes
        st.tuples(st.just("widen_line"), st.integers(0, 1 << 20), st.sampled_from([b"0", b"1", b"01", b"x", b" 1"])),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The a = 3 bundle and plain code files, and a source and a syndrome
    group file of a few members."""
    root = tmp_path_factory.mktemp("fuzz")
    bundle = hcms.hcms_for_a(3)
    bundleio.write_bundle(root / "bundle.txt", bundle)
    bundleio.write_code_file(root / "code.txt", bundle.code)
    rng = np.random.default_rng(11)
    xs = [sources.random_member(3, bundle.n, rng) for _ in range(4)]
    texts = {
        "encode": sources.format_tuples(xs).encode(),
        "decode": sources.format_tuples([codec.encode(bundle.code, x) for x in xs]).encode(),
    }
    return root, texts


def mutate(text: bytes, edits) -> bytes:
    lines = text.split(b"\n")
    for kind, where, value in edits:
        if kind == "byte":
            data = bytearray(b"\n".join(lines))
            data[where % len(data)] = value[0]
            lines = bytes(data).split(b"\n")
        elif kind == "drop_line" and lines:
            del lines[where % len(lines)]
        elif kind == "widen_line" and lines:
            lines[where % len(lines)] += value
    return b"\n".join(lines)


@given(edits=mutations, key=st.sampled_from(["bundle.txt", "code.txt"]))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_group_file_gives_a_token_not_a_traceback(tmp_path, inputs, edits, key):
    root, texts = inputs
    for command, text in texts.items():
        path = tmp_path / f"{command}.txt"
        path.write_bytes(mutate(text, edits))
        argv = [command, str(root / key), "--input", str(path), "--output", str(tmp_path / "out.txt")]
        code, err = run_quiet(argv)
        if code != 0:
            assert err.startswith("error="), err
