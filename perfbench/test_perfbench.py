"""Self-tests of the benchmark: its gates pass on good output, count bad
output instead of hiding it, and do not depend on the seed's luck.

Workloads run here at reduced sizes; run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
from swhamming import codec, gf2, hcms, sources
from workloads import WORKLOADS, Certify, Search, Stream, Tally, groups_text, hamming_tuples

HERE = Path(__file__).resolve().parent

SMALL = {
    "stream": lambda d, seed: Stream(d, seed, tuples=200),
    "certify": lambda d, seed: Certify(d, seed, gen_as=(3, 4), reduce_as=(3, 4), roundtrip=50),
    "search": lambda d, seed: Search(d, seed),
}


def one_pass(make, workdir, seed, tracer=None) -> Tally:
    wl = make(workdir, seed)
    wl.setup()
    tally = Tally()
    wl.run_pass(tally, tracer)
    return tally


def test_benchmark_json_lists_the_workloads_as_defined():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_second_seed_passes_with_same_counts(name, tmp_path):
    first = one_pass(SMALL[name], tmp_path / "one", 1)
    second = one_pass(SMALL[name], tmp_path / "two", 2)
    assert first.failures == [] and second.failures == []
    assert first.attempted == second.attempted > 0


def test_setup_in_a_fresh_interpreter_gives_the_same_inputs(tmp_path):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "stream", "--seed", "4",
         "--seconds", "0", "--setup-into", str(tmp_path / "child")],
        check=True, timeout=120,
    )
    child = Stream(tmp_path / "child", 4)
    child.load()
    here = Stream(tmp_path / "here", 4)
    here.setup()
    assert child.source_bytes == here.source_bytes
    assert child.syndrome_bytes == here.syndrome_bytes


def test_corrupted_decoded_file_is_counted(tmp_path, monkeypatch):
    real = hcms.hcms_decode
    calls = []

    def corrupting(bundle, y):
        x = real(bundle, y)
        calls.append(1)
        if len(calls) == 7:
            flipped = x[0] + gf2.BitVector.unit(x[0].n, 0)
            return (flipped, *x[1:])
        return x

    monkeypatch.setattr(hcms, "hcms_decode", corrupting)
    tally = one_pass(SMALL["stream"], tmp_path, 1)
    assert tally.attempted == 2 and tally.failed == 1
    assert tally.error_rate == 0.5
    assert tally.failures[0].startswith("decode: decoded tuples differ")


def test_crashing_command_is_counted_not_raised(tmp_path, monkeypatch):
    def broken(code, x):
        raise RuntimeError("injected")

    monkeypatch.setattr(codec, "encode", broken)
    tally = one_pass(SMALL["stream"], tmp_path, 1)
    assert tally.failed == 1 and tally.failures[0].startswith("encode: exit None")


def test_generated_text_matches_the_program_format():
    rng = np.random.default_rng(5)
    x = hamming_tuples(rng, 50, 3, 21)
    tuples = [tuple(gf2.BitVector.from_bits(x[t, i]) for i in range(3)) for t in range(50)]
    assert all(sources.is_hamming_member(t) for t in tuples)
    text = groups_text([x[:, i, :] for i in range(3)]).decode()
    assert text == sources.format_tuples(tuples)


def test_instrument_records_nested_spans_and_restores(tmp_path):
    original = codec.encode
    tracer = tracing.Tracer()
    with tracer.span("workload.stream") as root, tracing.instrument(tracer):
        tally = one_pass(SMALL["stream"], tmp_path, 3, tracer)
    assert codec.encode is original and not tally.failures
    assert (tracer.self_ns() >= 0).all()
    assert (tracer.trace_ids() == root).all()
    layers = {row[0] for row in tracer.layer_table(root)}
    assert {"cli", "codec", "gf2", "_kernels", "hcms", "sources"} <= layers
    by_name = tracer.self_ms_by_name(root)
    assert by_name["cli.encode"] > 0 and by_name["codec.encode"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
