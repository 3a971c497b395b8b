#!/usr/bin/env python3
"""The swhamming benchmark.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 38 --trace 0

With ``--trace 0`` it sets the workload up five times, each in a fresh
interpreter (reporting the median as ``setup_s``), then repeats passes of
the workload's CLI commands while another pass fits in ``--seconds``,
checking every output, and reports the end-to-end metrics: ``wall_cal``,
a pass with each command at its median, in units of the calibration
kernel timed beside the passes (see :mod:`calibrate`), ``setup_s``, and
``peak_rss_mb``, the high-water mark of this process, which runs the passes
but none of the set-ups.  Raw pass times and the per-workload rates are
report lines.

With ``--trace 1`` it runs the per-layer probes (direct calls into each
layer's public functions) and a traced pass of every workload, and reports
per-layer metrics; it writes the spans and a per-workload self-time table
to ``perfbench/out/``.  The named workload also gets a warm-up pass and
three untraced and three traced passes, alternating, for the tracing
overhead.

Inputs are made from ``--seed``; the program only sees the generated files
and flags.

Report lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
OVERHEAD_PAIRS = 3


def summary(samples: list[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    arr = np.asarray(samples, dtype=float)
    out = {"n": int(arr.size), "p50": float(np.median(arr))}
    for label, q in (("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0)):
        if arr.size * (100.0 - q) / 100.0 >= 10:
            out[label] = float(np.percentile(arr, q))
            break
    return out


def fmt_summary(s: dict, unit: str) -> str:
    parts = [f"p50={s['p50']:.6g}{unit}"]
    parts += [f"{k}={v:.6g}{unit}" for k, v in s.items() if k.startswith("p9")]
    return " ".join(parts) + f" n={s['n']}"


def git_sha(root: Path) -> str:
    """HEAD's commit from the .git directory, or 'unknown' outside a repo."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    from swhamming import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _kernels.get_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def setup_seconds(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of each set-up, each in a fresh interpreter: import, input
    generation, bundle gen and shift, as a user starting cold pays them."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", "0", "--setup-into", str(workdir),
    ]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        out.append(time.perf_counter() - t0)
    return out


def by_kind(per_label: dict[str, float]) -> dict[str, float]:
    """Sum per command kind, the first word of a label ("verify a=6")."""
    out: dict[str, float] = {}
    for label, sec in per_label.items():
        kind = label.split()[0]
        out[kind] = out.get(kind, 0.0) + sec
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload_cls, seed: int, seconds: float, workdir: Path, lines: list[str]):
    """Untraced run: set-ups, then passes while another fits in ``seconds``,
    with the calibration kernel timed before the first pass and after each."""
    from calibrate import Calibration
    from workloads import Tally

    setups = setup_seconds(workload_cls.name, seed, workdir)
    wl = workload_cls(workdir, seed)
    wl.load()
    rss_before = peak_rss_mb()

    cal = Calibration()
    cals = [cal.seconds()]
    tally = Tally()
    walls: list[float] = []
    samples: dict[str, list[float]] = {}  # command label -> one time per pass
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        for label, sec in wl.run_pass(tally).items():
            samples.setdefault(label, []).append(sec)
        walls.append(time.perf_counter() - t0)
        cals.append(cal.seconds())
        if deadline - time.perf_counter() < statistics.median(walls):
            break

    # each pass is scaled by the kernel's mean time on either side of it
    host = [(a + b) / 2 for a, b in zip(cals, cals[1:])]
    typical = by_kind({label: statistics.median(v) for label, v in samples.items()})
    scaled = by_kind(
        {label: statistics.median(t / h for t, h in zip(v, host)) for label, v in samples.items()}
    )
    wall_cal = sum(scaled.values())
    setup = summary(setups)
    rss = peak_rss_mb()
    lines.append(f"workload {wl.name}: {wl.why}")
    lines.append(f"  wall_s {fmt_summary(summary(walls), ' s')} max={max(walls):.6g} s (passes)")
    lines.append(
        f"  wall_cal={wall_cal:.6g} x (a pass in units of the calibration kernel, "
        f"each command at its median of {len(walls)}; kernel {fmt_summary(summary(cals), ' s')} "
        f"max={max(cals):.6g} s)"
    )
    for kind in typical:
        lines.append(f"  {kind}: p50 {typical[kind]:.6g} s, {scaled[kind]:.6g} x per pass")
    for name, value, unit in wl.rates(typical):
        lines.append(f"  {name}={value:.6g} {unit} (from the p50s)")
    lines.append(f"  setup_s {fmt_summary(setup, ' s')} (set-ups)")
    lines.append(f"  peak_rss_mb={rss:.6g} MB (before the first pass: {rss_before:.6g} MB)")
    lines.append(f"  error_rate={tally.error_rate:.6g} ratio ({tally.failed}/{tally.attempted} operations)")
    metrics = {
        "wall_cal": metric(wall_cal, "x"),
        "setup_s": metric(setup["p50"], "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return tally, metrics


def overhead(wl, tally, tracer, lines: list[str]) -> tuple[float, int]:
    """Traced minus untraced pass time, each the fastest of
    ``OVERHEAD_PAIRS`` passes taken in turn after a warm-up pass.  Returns
    the overhead and the root span of the last traced pass."""
    import tracing

    wl.run_pass(tally)
    plain, traced_s = [], []
    for _ in range(OVERHEAD_PAIRS):
        t0 = time.perf_counter()
        wl.run_pass(tally)
        plain.append(time.perf_counter() - t0)
        with tracer.span(f"workload.{wl.name}") as root, tracing.instrument(tracer):
            wl.run_pass(tally, tracer)
        traced_s.append(tracer.seconds(root))
    cost = min(traced_s) - min(plain)
    spread = max(plain) - min(plain)
    verdict = "resolved" if abs(cost) > spread else "unresolved: within the untraced spread"
    lines.append(
        f"tracing overhead, workload {wl.name}: {cost:+.3f} s (fastest traced "
        f"{min(traced_s):.3f} s, fastest untraced {min(plain):.3f} s of {OVERHEAD_PAIRS}; "
        f"untraced spread {spread:.3f} s; {verdict})"
    )
    return cost, root


def traced(name: str, seed: int, workdir: Path, lines: list[str], env: dict):
    """Traced run: per-layer probes plus a traced pass of every workload,
    so every per-layer metric is defined whichever workload is named; the
    named workload's table comes first, and its passes give the tracing
    overhead."""
    import probes
    import tracing
    from workloads import WORKLOADS, Tally

    tracer = tracing.Tracer()
    tally = Tally()
    metrics = probes.run_all(tracer, tally, seed, workdir / "probes")

    order = [name] + [w for w in WORKLOADS if w != name]
    tables = {}
    for wname in order:
        wl = WORKLOADS[wname](workdir / wname, seed)
        wl.setup()
        if wname == name:
            cost, root = overhead(wl, tally, tracer, lines)
            metrics["trace.overhead_s"] = metric(cost, "s")
        else:
            with tracer.span(f"workload.{wname}") as root, tracing.instrument(tracer):
                wl.run_pass(tally, tracer)
        by_name = tracer.self_ms_by_name(root)
        for cmd in wl.commands:
            metrics[f"cli.self_ms.{cmd}"] = metric(by_name.get(f"cli.{cmd}", 0.0), "ms")
        table = tracer.layer_table(root)
        tables[wname] = table
        lines.append(f"self time, workload {wname} (traced pass {tracer.seconds(root):.3f} s):")
        lines.append(f"  {'layer':<10} {'spans':>8} {'self ms':>11} {'share':>7}")
        total = sum(r[2] for r in table) or 1.0
        for layer, count, ms in table:
            lines.append(f"  {layer:<10} {count:>8} {ms:>11.3f} {100 * ms / total:>6.1f}%")

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"trace-{name}.npz"
    tracer.write(spans_path, {"env": env, "tables": tables, "metrics": metrics})
    lines.append(f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    for mname, m in metrics.items():
        lines.append(f"  {mname}={m['value']:.6g} {m['unit']}")
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", type=Path, help="only write the workload's inputs there")
    args = ap.parse_args(argv)

    if not (SRC / "swhamming" / "cli.py").is_file():
        print(f"perfbench: no swhamming sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.setup_into is not None:
        WORKLOADS[args.workload](args.setup_into, args.seed).setup()
        return 0

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    env = environment(args.seed)
    lines = ["env " + json.dumps(env, sort_keys=True)]
    try:
        if args.trace:
            tally, metrics = traced(args.workload, args.seed, workdir, lines, env)
        else:
            tally, metrics = measure(WORKLOADS[args.workload], args.seed, args.seconds, workdir, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in tally.failures:
        lines.append(f"FAILED {failure}")
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
