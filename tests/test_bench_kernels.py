"""``benchmarks/bench_kernels.py`` runs, and it still prints the cases that
``perfbench/probes.py`` looks up by name in its ``make_cases``, its
bundle parser, writer and loader cases, its construction and reduction
cases, its two row-reduction phase cases, its key check case, its
encode and decode chunk cases and its null-space listing and profile
search cases."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _probed_case_names() -> list[str]:
    tree = ast.parse((ROOT / "perfbench" / "probes.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BENCH_KERNELS_CASES" for t in node.targets
        ):
            return [case for case, _, _ in ast.literal_eval(node.value)]
    raise LookupError("perfbench/probes.py has no BENCH_KERNELS_CASES")


def test_bench_kernels_runs_and_prints_the_probed_cases():
    names = _probed_case_names()
    assert len(names) == 5
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeat", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {line.rsplit("  ", 1)[0].strip() for line in proc.stdout.splitlines()[1:]}
    extra = {
        "read_file a=5",
        "write_bundle a=6",
        "read+build a=6",
        "hcms_for_a a=6",
        "reduce a=5",
        "echelon [A|I] a=6",
        "back_substitute [A|I] a=6",
        "key check a=6",
        "encode chunk n=85",
        "decode chunk n=85",
        "admissible n=5",
        "search n=5 M=9",
    }
    assert set(names) | extra <= printed
