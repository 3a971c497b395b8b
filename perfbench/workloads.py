"""The benchmark's workloads: inputs made from a seed, one pass through the
real ``swhamming`` CLI (``swhamming.cli.main``), and a gate on every output.

Each workload is a closed loop of one client: a command starts when the
previous one has finished, in one process, with no worker pools.  A pass
is one run of the workload's command sequence.  ``setup`` writes the
inputs (the harness runs it in a fresh interpreter, so its memory does not
count toward the passes'); ``load`` reads back what the gates compare
against; the harness then repeats passes.  A command that exits nonzero,
raises, or fails any check on its output counts as one failed operation;
the pass goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swhamming import bundleio, cli, equiv, gf2, hcms

STREAM_A = 4  # the stream bundle is ``gen --a 4``: n = 85
SEARCH_N, SEARCH_M = 5, 9
SEARCH_TRIPLES = 3375  # 15^3 admissible null-space triples at dims (2, 2, 2)


class SetupError(RuntimeError):
    """The workload's inputs could not be made; no pass can run."""


class Tally:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{op}: " + "; ".join(problems))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class CliRun:
    rc: int | None
    out: str
    err: str
    seconds: float

    def problems(self, *expected: str) -> list[str]:
        """Exit status and each expected stdout fragment, as failure lines."""
        if self.rc != 0:
            tail = self.err.strip().splitlines()[-1:] or ["no stderr"]
            return [f"exit {self.rc}: {tail[0]}"]
        return [f"stdout lacks {e!r}" for e in expected if e not in self.out]


def run_cli(argv: list[str], tracer=None) -> CliRun:
    """One ``swhamming`` command in this process, stdout/stderr captured.

    An exception is reported as a failed run (rc None), never raised, so
    one broken command cannot end the benchmark.  With a tracer the
    command is recorded as a ``cli.<command>`` span.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = None
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # boundary: record the traceback, keep the run going
            err.write(traceback.format_exc())
    return CliRun(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def file_problems(path: Path, expected: bytes, what: str) -> list[str]:
    try:
        got = path.read_bytes()
    except OSError as exc:
        return [f"{what} unreadable: {exc}"]
    if got == expected:
        return []
    n = min(len(got), len(expected))
    first = next((i for i in range(n) if got[i] != expected[i]), n)
    return [f"{what} differs from the expected bytes at offset {first}"]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def hamming_tuples(rng: np.random.Generator, count: int, s: int, n: int) -> np.ndarray:
    """``count`` uniform members of the Hamming-source set as a (count, s, n)
    0/1 array: a uniform common block, then one of the s n + 1 deviation
    patterns (none, or one flipped bit at one terminal), uniformly."""
    blocks = rng.integers(0, 2, size=(count, 1, n), dtype=np.uint8)
    x = np.repeat(blocks, s, axis=1)
    pattern = rng.integers(0, s * n + 1, size=count)
    dev = np.nonzero(pattern)[0]
    term, pos = np.divmod(pattern[dev] - 1, n)
    x[dev, term, pos] ^= 1
    return x


def groups_text(parts: list[np.ndarray]) -> bytes:
    """The CLI's group file format: per item one ``0``/``1`` line per part,
    items separated by a blank line.  ``parts[i]`` is (count, width_i)."""
    count = parts[0].shape[0]
    cols = []
    for p in parts:
        cols.append(p.astype(np.uint8) + ord("0"))
        cols.append(np.full((count, 1), ord("\n"), dtype=np.uint8))
    cols.append(np.full((count, 1), ord("\n"), dtype=np.uint8))
    return np.concatenate(cols, axis=1).tobytes()[:-1]


def shifted_code(code, rng: np.random.Generator):
    """An equivalent perfect code: a random subspace K of the null spaces of
    terminals 1..s-1, half their common dimension, is moved out of the last
    terminal's null space into terminal 0's.

    The terminals and the dimension of K are fixed because the reduction's
    cost depends on the resulting null-space dimensions (by about half at
    a = 5); the seed picks K, so every seed asks for the same work.
    """
    prof = equiv.profile(code)
    common = prof[1]
    for N in prof[2:]:
        common = gf2.subspace_intersect(common, N)
    K = gf2.random_subspace_of(common, common.dim // 2, rng)
    return equiv.shift_null_space(code, K, 0, code.s - 1)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Stream:
    """``encode`` then ``decode`` of seeded Hamming-source tuples."""

    name = "stream"
    why = (
        "encode then decode of 10^4 tuples at n = 85: the per-tuple path (text parse "
        "and format, mat_vec, hcms_decode, split/concat) with almost no elimination"
    )
    commands = ("encode", "decode")

    def __init__(self, workdir: Path, seed: int, tuples: int = 10_000):
        self.dir = Path(workdir)
        self.seed = seed
        self.tuples = tuples
        self.bundle = self.dir / f"gen_a{STREAM_A}.txt"
        self.source = self.dir / "source.txt"
        self.syndromes = self.dir / "syndromes.txt"
        self.encoded = self.dir / "encoded.txt"
        self.decoded = self.dir / "decoded.txt"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        gen = run_cli(["gen", "--a", str(STREAM_A), "-o", str(self.bundle)])
        if gen.problems():
            raise SetupError(f"gen --a {STREAM_A}: {gen.problems()}")
        code = bundleio.read_file(self.bundle).code
        rng = np.random.default_rng(self.seed)
        x = hamming_tuples(rng, self.tuples, code.s, code.n)
        # the reference syndromes come from a dense product, not from the
        # program's encoder, so the encode gate is independent of it
        y = [(x[:, i, :] @ H.to_array().T.astype(np.int64)) & 1 for i, H in enumerate(code.matrices)]
        self.source_bytes = groups_text([x[:, i, :] for i in range(code.s)])
        self.syndrome_bytes = groups_text(y)
        self.source.write_bytes(self.source_bytes)
        self.syndromes.write_bytes(self.syndrome_bytes)

    def load(self) -> None:
        """The gates' expected bytes, from the files a set-up in another
        process wrote."""
        self.source_bytes = self.source.read_bytes()
        self.syndrome_bytes = self.syndromes.read_bytes()

    def run_pass(self, tally: Tally, tracer=None) -> dict[str, float]:
        enc = run_cli(
            ["encode", str(self.bundle), "--input", str(self.source), "--output", str(self.encoded)],
            tracer,
        )
        problems = enc.problems(f"encoded={self.tuples}")
        if not problems:
            problems = file_problems(self.encoded, self.syndrome_bytes, "encoded syndromes")
        tally.record("encode", problems)
        # decode reads the reference syndromes, so its gate does not depend on encode's
        dec = run_cli(
            ["decode", str(self.bundle), "--input", str(self.syndromes), "--output", str(self.decoded)],
            tracer,
        )
        problems = dec.problems(f"decoded={self.tuples}", "path=algebraic")
        if not problems:
            problems = file_problems(self.decoded, self.source_bytes, "decoded tuples")
        tally.record("decode", problems)
        return {"encode": enc.seconds, "decode": dec.seconds}

    def rates(self, seconds: dict[str, float]) -> list[tuple[str, float, str]]:
        return [
            ("encode_tuples_per_s", self.tuples / seconds["encode"], "1/s"),
            ("decode_tuples_per_s", self.tuples / seconds["decode"], "1/s"),
        ]


class Certify:
    """Perfectness certification and the universality reduction."""

    name = "certify"
    why = (
        "gen+verify at a = 3..6 and reduce of shifted codes at a = 3..5: few large "
        "eliminations, null_space/complement, the equiv pipeline, bundles up to 7.5 MB"
    )
    commands = ("gen", "verify", "reduce")

    def __init__(
        self,
        workdir: Path,
        seed: int,
        gen_as: tuple[int, ...] = (3, 4, 5, 6),
        reduce_as: tuple[int, ...] = (3, 4, 5),
        roundtrip: int = 300,
    ):
        self.dir = Path(workdir)
        self.seed = seed
        self.gen_as = gen_as
        self.reduce_as = reduce_as
        self.roundtrip = roundtrip
        self.digests: dict[int, str] = {}

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        for a in self.reduce_as:
            code = shifted_code(hcms.hcms_for_a(a).code, rng)
            bundleio.write_code_file(self.dir / f"shifted_a{a}.txt", code)

    def load(self) -> None:
        """Nothing to read: the gates compare against fixed strings and the
        first pass's bundles."""

    def run_pass(self, tally: Tally, tracer=None) -> dict[str, float]:
        times = {}
        for a in self.gen_as:
            path = self.dir / f"gen_a{a}.txt"
            gen = run_cli(["gen", "--a", str(a), "-o", str(path)], tracer)
            problems = gen.problems(f"written={path}")
            if not problems:
                # gen output is byte-deterministic: every pass writes the same file
                digest = self.digests.setdefault(a, _digest(path))
                if _digest(path) != digest:
                    problems = ["bundle bytes changed between passes"]
            tally.record(f"gen a={a}", problems)
            ver = run_cli(["verify", str(path), "--kv"], tracer)
            tally.record(f"verify a={a}", ver.problems("compressible=true perfect=true"))
            times[f"gen a={a}"], times[f"verify a={a}"] = gen.seconds, ver.seconds
        for a in self.reduce_as:
            reduced = self.dir / f"reduced_a{a}.txt"
            red = run_cli(
                ["reduce", str(self.dir / f"shifted_a{a}.txt"), "-o", str(reduced), "--kv"], tracer
            )
            tally.record(f"reduce a={a}", red.problems("perfect=true"))
            rt = run_cli(
                [
                    "verify", str(reduced), "--kv",
                    "--roundtrip", str(self.roundtrip), "--seed", str(self.seed),
                ],
                tracer,
            )
            tally.record(
                f"roundtrip a={a}",
                rt.problems("perfect=true", f"roundtrip={self.roundtrip}/{self.roundtrip}"),
            )
            times[f"reduce a={a}"], times[f"roundtrip a={a}"] = red.seconds, rt.seconds
        return times

    def rates(self, seconds: dict[str, float]) -> list[tuple[str, float, str]]:
        return [
            ("gen_s", seconds["gen"], "s"),
            ("verify_s", seconds["verify"], "s"),
            ("reduce_s", seconds["reduce"], "s"),
            ("roundtrip_s", seconds["roundtrip"], "s"),
        ]


class Search:
    """The exhaustive (3, 5, 9) perfect-profile search, which finds nothing.

    The search space is fixed by (n, M), so the seed changes nothing here.
    """

    name = "search"
    why = (
        "search --n 5 --M 9: 3375 tiny eliminations that all collide, where per-call "
        "overhead and witness construction dominate; no kernel bandwidth, no text I/O"
    )
    commands = ("search",)

    def __init__(self, workdir: Path, seed: int):
        self.dir = Path(workdir)
        self.seed = seed

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)

    def load(self) -> None:
        """Nothing to read: the gate compares against fixed counts."""

    def run_pass(self, tally: Tally, tracer=None) -> dict[str, float]:
        argv = ["search", "--n", str(SEARCH_N), "--M", str(SEARCH_M), "--kv", "--jobs", "1"]
        run = run_cli(argv, tracer)
        tally.record("search", run.problems(f"triples_tested={SEARCH_TRIPLES} found=0"))
        return {"search": run.seconds}

    def rates(self, seconds: dict[str, float]) -> list[tuple[str, float, str]]:
        return [("search_triples_per_s", SEARCH_TRIPLES / seconds["search"], "1/s")]


WORKLOADS = {w.name: w for w in (Stream, Certify, Search)}
