"""Command-line surface: params, gen, encode, decode, verify, search, reduce.

All outputs are byte-deterministic given flags and --seed.  Failures print
``error=<TOKEN> <message>`` on stderr and exit nonzero.  HCMS_BUDGET
overrides the budget of ``search`` and bounds the N of ``verify --roundtrip
N`` (both 2^20 by default).  Every command that reads a bundle file
checks its sections first.  ``decode`` and ``verify
--roundtrip`` decode every compressible code, plain or bundle, through the
code's plan (:func:`codec.decoder`), which no budget bounds: a checked
bundle's plan is read off its sections, a plain code's is one elimination.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

import numpy as np

from . import bundleio, codec, equiv, ghcms, hcms, sources
from .errors import (
    BadArgumentError,
    BudgetExceededError,
    NotInImageError,
    NotPerfectError,
    SwError,
)
from .gf2 import format_matrix, rank


def _kv(pairs) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs)


def _intlist(vals) -> str:
    return ",".join(str(v) for v in vals)


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


# at a = 1000, n = (4^a - 1) / 3 already has 602 decimal digits; a larger a
# only prints longer numbers, and --scan prints one row per a
PARAMS_MAX_A = 1000


def cmd_params(args) -> int:
    if args.scan is not None and args.scan < 1:
        raise BadArgumentError(f"--scan must be >= 1, got {args.scan}")
    if max(args.a or 0, args.scan or 0) > PARAMS_MAX_A:
        raise BadArgumentError(f"--a and --scan must be <= {PARAMS_MAX_A}")
    avals = list(range(1, args.scan + 1)) if args.scan else [args.a]
    rows = []
    for a in avals:
        n, M = sources.perfect_params_for_a(a)
        rows.append((a, n, M, M - n, 3 * n - 2 * M))
    if args.kv:
        for a, n, M, d, c in rows:
            line = _kv([("a", a), ("n", n), ("M", M), ("M-n", d), ("3n-2M", c)])
            if args.cuvw:
                opts = sources.feasible_cuvw(n, M)
                line += " cuvw=" + "|".join(_intlist(r) for r in opts)
            print(line)
    else:
        print(f"{'a':>3} {'n':>6} {'M':>6} {'M-n':>6} {'3n-2M':>7}")
        for a, n, M, d, c in rows:
            print(f"{a:>3} {n:>6} {M:>6} {d:>6} {c:>7}")
            if args.cuvw:
                opts = sources.feasible_cuvw(n, M)
                print("      c,u,v,w: " + "  ".join("(" + _intlist(r) + ")" for r in opts))
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _split_arg(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise BadArgumentError(f"--split must be comma-separated integers, got {text!r}") from None


def cmd_gen(args) -> int:
    split = _split_arg(args.split) if args.split else None
    if args.trivial:
        P = hcms.hamming_matrix(2)
        Q = tuple(P.take_cols(j, j + 1) for j in range(3))
        bundle = ghcms.ghcms_build(Q, g_split=split)
    else:
        bundle = hcms.hcms_for_a(args.a, g_split=split)
    if not codec.is_perfect(bundle.code):
        raise NotPerfectError("generated bundle failed the perfectness check")
    bundleio.write_bundle(args.output, bundle)
    print(
        _kv(
            [
                ("written", args.output),
                ("kind", "hcms" if bundle.E is None else "ghcms"),
                ("s", bundle.s),
                ("n", bundle.n),
                ("M", bundle.M),
                ("m", _intlist(bundle.code.m)),
            ]
        )
    )
    return 0


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def _write_chunks(path, chunks) -> int:
    """Write chunks of groups in the group file format (blank line between
    groups); returns the number of groups."""
    count = 0
    with open(path, "wb") as fh:
        for parts in chunks:
            text = sources.format_chunk(parts)
            fh.write(text if count else text[1:])
            count += parts[0].shape[0]
    return count


def _check_not_input(args) -> None:
    """Writing the output would truncate the input before it is read."""
    if os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        raise BadArgumentError(f"--output {args.output} is the --input file")


def cmd_encode(args) -> int:
    _check_not_input(args)
    code = _checked_code(bundleio.read_file(args.bundle))
    if 0 in code.m:
        i = code.m.index(0) + 1
        raise BadArgumentError(f"terminal {i} has m_{i} = 0: its syndrome lines would be blank")
    with open(args.input, "rb") as fh:
        chunk = sources.chunk_tuples(code.s * code.n, sum(code.m))
        chunks = sources.iter_bit_chunks(fh, [code.n] * code.s, chunk)
        count = _write_chunks(args.output, (codec.encode_batch(code, x) for x in chunks))
    print(_kv([("encoded", count), ("written", args.output)]))
    return 0


def _checked_code(parsed: bundleio.ParsedFile) -> codec.SwCode:
    """The file's code, once a bundle file's sections pass the load-time
    checks, which attach the bundle whose sections its plan is read off; a
    plain code file has none."""
    if parsed.kind != "code":
        bundleio.build_bundle(parsed)
    return parsed.code


def _decoded(decoder: codec.CodePlan, chunks):
    """The decoded chunks; a syndrome tuple outside the image is named by
    its group's 1-based place in the input, not by its row in a chunk."""
    done = 0
    for y in chunks:
        try:
            yield decoder.decode_batch(y)
        except NotInImageError as exc:
            raise NotInImageError(
                f"group {done + exc.index + 1} of the input: syndrome tuple is not produced "
                "by any member of S",
                index=done + exc.index,
            ) from None
        done += y[0].shape[0]


def cmd_decode(args) -> int:
    _check_not_input(args)
    decoder = codec.decoder(_checked_code(bundleio.read_file(args.bundle)))
    with open(args.input, "rb") as fh:
        chunk = sources.chunk_tuples(decoder.s * decoder.n, sum(decoder.m))
        chunks = sources.iter_bit_chunks(fh, decoder.m, chunk)
        count = _write_chunks(args.output, _decoded(decoder, chunks))
    print(_kv([("decoded", count), ("path", "algebraic"), ("written", args.output)]))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


#: Members drawn per call in ``verify --roundtrip``.  The seeded draws of
#: ``sources.random_members`` depend on the batch size, so this fixes the
#: members a seed checks; it is not the chunk size of encode and decode.
ROUNDTRIP_BATCH = 256


def cmd_verify(args) -> int:
    if args.roundtrip < 0:
        raise BadArgumentError(f"--roundtrip must be >= 0, got {args.roundtrip}")
    if args.seed < 0:
        raise BadArgumentError(f"--seed must be >= 0, got {args.seed}")
    if args.roundtrip:
        budget = sources.env_budget(codec.DEFAULT_SEARCH_BUDGET)
        if args.roundtrip > budget:
            raise BudgetExceededError(f"--roundtrip {args.roundtrip} exceeds the budget {budget}")
    parsed = bundleio.read_file(args.bundle)
    code = _checked_code(parsed)
    # a perfect code has surjective matrices and is compressible, so only a
    # code that is not perfect needs its ranks and the collision search,
    # which also yields its witness
    perfect = codec.is_perfect(code)
    ranks = code.m if perfect else [rank(H) for H in code.matrices]
    print(
        _kv(
            [
                ("kind", parsed.kind),
                ("s", code.s),
                ("n", code.n),
                ("M", sum(code.m)),
                ("ranks", _intlist(ranks)),
                ("null_dims", _intlist(code.n - r for r in ranks)),
            ]
        )
    )
    collision = None if perfect else codec.find_collision(code)
    compressible = collision is None
    print(_kv([("compressible", str(compressible).lower()), ("perfect", str(perfect).lower())]))
    if collision is not None:
        a, b = collision
        print("counterexample (two members of S with equal syndromes):")
        for label, t in (("first", a), ("second", b)):
            print(f"  {label}: " + " ".join(v.to01() for v in t))

    ok = perfect
    if args.roundtrip and compressible:
        decoder = codec.decoder(code)
        rng = np.random.default_rng(args.seed)
        failures = 0
        # ROUNDTRIP_BATCH members at a time, drawn in order, so memory is bounded
        for start in range(0, args.roundtrip, ROUNDTRIP_BATCH):
            count = min(ROUNDTRIP_BATCH, args.roundtrip - start)
            parts = sources.random_members(code.s, code.n, count, rng)
            back = decoder.decode_batch(codec.encode_batch(code, parts))
            wrong = np.concatenate(back, axis=1) != np.concatenate(parts, axis=1)
            failures += int(wrong.any(axis=1).sum())
        print(
            _kv(
                [
                    ("roundtrip", f"{args.roundtrip - failures}/{args.roundtrip}"),
                    ("path", "algebraic"),
                    ("seed", args.seed),
                ]
            )
        )
        ok = ok and failures == 0
    if not ok:
        print("error=NOT_PERFECT verification failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    # explicit flag wins; otherwise HCMS_BUDGET overrides the default
    budget = args.budget if args.budget is not None else sources.env_budget(
        codec.DEFAULT_SEARCH_BUDGET
    )
    result = codec.search_perfect_null_spaces(
        args.n, args.M, s=args.s, budget=budget, jobs=args.jobs
    )
    print(
        _kv(
            [
                ("n", result.n),
                ("M", result.M),
                ("assignments_considered", result.assignments_considered),
                ("assignments_admissible", len(result.assignments_admissible)),
            ]
        )
    )
    for d in sorted(result.candidate_counts):
        print(_kv([("dim", d), ("admissible_subspaces", result.candidate_counts[d])]))
    print(
        _kv(
            [
                ("triples_tested", result.triples_tested),
                ("found", len(result.profiles)),
            ]
        )
    )
    if not result.profiles:
        print("none exists")
    else:
        for k, prof in enumerate(result.profiles):
            print(f"profile {k}: dims=" + _intlist(N.dim for N in prof))
            if not args.kv:
                for i, N in enumerate(prof):
                    print(f"  null space {i} basis:")
                    body = format_matrix(N.basis).rstrip("\n").replace("\n", "\n    ")
                    print("    " + body)
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def cmd_reduce(args) -> int:
    bundle, report = equiv.reduce_with_report(_checked_code(bundleio.read_file(args.bundle)))
    bundleio.write_bundle(args.output, bundle)
    print(_kv([("written", args.output), ("kind", "ghcms"), ("s", bundle.s), ("n", bundle.n)]))
    print(_kv([("input_null_dims", _intlist(report.input_profile_dims))]))
    print(_kv([("moved_residual_dims", _intlist(report.residual_dims))]))
    print(_kv([("normalized_null_dims", _intlist(report.normalized_profile_dims))]))
    if report.tail_intersection_dim is not None:
        # intersection over all but the last terminal; reported, not asserted
        print(_kv([("tail_intersection_dim", report.tail_intersection_dim)]))
    print(_kv([("output_rates", _intlist(report.output_rates))]))
    print(_kv([("perfect", str(report.perfect).lower())]))
    if not args.kv:
        print("hamming_column_permutation=" + _intlist(report.hamming_permutation))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A malformed command line is BAD_ARGUMENT, like any other failure."""

    def error(self, message):
        raise BadArgumentError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    ap = _Parser(
        prog="swhamming",
        description="Syndrome-based Slepian-Wolf codes for Hamming-correlated sources",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="perfect-parameter tables for three sources")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=int, help="single parameter value")
    g.add_argument("--scan", type=int, help="list a = 1..SCAN")
    p.add_argument("--cuvw", action="store_true", help="include feasible (c,u,v,w) rows")
    p.add_argument("--kv", action="store_true", help="key=value output")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gen", help="generate a construction bundle")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=int, help="construction parameter (>= 3)")
    g.add_argument("--trivial", action="store_true", help="the three length-1 sources bundle")
    p.add_argument("--split", help="comma-separated row split of T, e.g. 3,3,3")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="encode source tuples block-wise")
    p.add_argument("bundle")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode syndrome tuples")
    p.add_argument("bundle")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="compressibility / perfectness report")
    p.add_argument("bundle")
    p.add_argument(
        "--kv",
        action="store_true",
        help="accepted and ignored: verify prints the same key=value report either way",
    )
    p.add_argument("--roundtrip", type=int, default=0, help="sampled decode round-trips")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive perfect-profile search (s = 3)")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reduce", help="reduce a perfect code to the relaxed bundle form")
    p.add_argument("bundle")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=cmd_reduce)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SwError as exc:
        print(f"error={exc.token} {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error=IO {exc}", file=sys.stderr)
        return 2
    finally:
        # a command's code, plan and bundle refer to one another, so only the
        # cyclic collector frees them; they are young, and collecting the
        # young generations costs microseconds where a full collection costs ms
        gc.collect(1)


if __name__ == "__main__":
    sys.exit(main())
