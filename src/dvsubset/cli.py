"""Command-line interface.

Verbs: gen, color, goodness, find, verify, oracle, bounds, bench.  Point sets
travel as the text format (stdin by default, "-" explicitly, or a path);
results are JSON on stdout (CSV where tabular).  Exit codes: 0 success,
1 a search/verification reported failure, 2 usage errors.

Output on stdout is byte-deterministic for fixed flags and seed, with one
exception: `bench` prints its wall_time_s column on stdout.  Every other
wall-clock timing goes to stderr.  `color` writes every edge, one CSV row
at a time, so its memory stays O(n) however many edges there are.
Exact values print at any size: Python's cap on int-to-decimal digits holds
while input is parsed, and a handler lifts it to format its output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache, partial

from .bounds import (
    H_general_recurrence,
    H_simplex_upper,
    as_upper,
    expected_conflict_bound,
    g_upper,
    h_general_lower,
    h_simplex_lower,
)
from .coloring import build_coloring, goodness, write_coloring_csv
from .finder import (
    FindRequest,
    FindResult,
    GeneralPositionError,
    brute_force_max,
    find_subset,
    verify_subset,
)
from .generators import (
    gen_cocircular_plus_noise,
    gen_collinear,
    gen_grid,
    gen_parallel_lines,
    gen_random,
    gen_sphere2d,
)
from .geometry import format_pointset, load_pointset, parse_pointset
from .rainbow import ExtractionFailure

MODE_NAMES = {"auto": "auto", "locus": "locus_recursion", "fixed": "fixed_m"}
VARIANT_NAMES = {"h": "h", "hprime": "h_prime"}

# gen kind / bounds formula -> (library function, {flag: default} in the
# function's argument order).  A flag is an int, or a str where its default is
# one; a default of None makes it required.
GENERATORS = {
    "grid": (gen_grid, {"d": 2, "side": 4}),
    "random": (gen_random, {"d": 2, "n": 10, "coord-bound": 10**6, "seed": 0}),
    "parallel-lines": (gen_parallel_lines, {"d": 2, "n": 10}),
    "sphere2d": (gen_sphere2d, {"n": 10}),
    "collinear": (gen_collinear, {"n": 10, "noise": 0, "seed": 0}),
    "cocircular": (gen_cocircular_plus_noise, {"n-circle": 8, "n-noise": 0, "seed": 0}),
}
BOUNDS = {
    "g": (g_upper, {"k": None, "m": None, "t": None}),
    "H-simplex": (H_simplex_upper, {"d": None, "t": None}),
    "h-simplex": (h_simplex_lower, {"d": None, "n": None}),
    "h-general": (h_general_lower, {"a": None, "d": None, "n": None, "c": "1"}),
    "H-rec": (H_general_recurrence, {"a": None, "d": None, "t": None, "j": None, "base": 1}),
    "as": (as_upper, {"k": None, "m": None, "n": None, "s": None}),
    "expected": (expected_conflict_bound, {"n": None, "k": None, "m": None, "t": None}),
}


def _read_pointset(path):
    return parse_pointset(sys.stdin.read()) if path == "-" else load_pointset(path)


def _emit_json(payload, args, out):
    if getattr(args, "pretty", False):
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _config_echo(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _id_list(text):
    """verify's --subset: comma-separated integer ids, with no empty item."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated id list: {text!r}") from None


def _call(table, name, args):
    fn, flags = table[name]
    return fn(*(getattr(args, flag.replace("-", "_")) for flag in flags))


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_gen(args, out):
    out.write(format_pointset(_call(GENERATORS, args.kind, args)))
    return 0


def _cmd_color(args, out):
    pset = _read_pointset(args.input)
    sys.set_int_max_str_digits(0)
    write_coloring_csv(build_coloring(pset, args.a), out)
    return 0


def _cmd_goodness(args, out):
    report = goodness(build_coloring(_read_pointset(args.input), args.a), cap=args.cap)
    sys.set_int_max_str_digits(0)
    _emit_json({**report.to_json(), "config": _config_echo(args, ("a", "cap"))}, args, out)
    return 0


def _cmd_find(args, out):
    pset = _read_pointset(args.input)
    req = FindRequest(
        a=args.a,
        mode=MODE_NAMES[args.mode],
        m=args.m,
        variant=VARIANT_NAMES[args.variant],
        seed=args.seed,
        t_override=args.t,
        max_retries=args.max_retries,
        recursion_depth_cap=args.depth,
    )
    started = time.perf_counter()
    try:
        result = find_subset(pset, req)
    except GeneralPositionError as exc:
        payload = {
            "error": "general_position",
            "witness": list(exc.witness),
            "config": _config_echo(args, ("a", "mode", "variant", "seed", "t", "m")),
        }
        _emit_json(payload, args, out)
        return 1
    elapsed = time.perf_counter() - started
    print(f"find: {elapsed:.3f}s", file=sys.stderr)
    payload = result.to_json()
    payload["config"] = _config_echo(
        args, ("a", "mode", "variant", "seed", "t", "m", "max_retries", "depth")
    )
    _emit_json(payload, args, out)
    return 1 if isinstance(result, ExtractionFailure) else 0


def _cmd_verify(args, out):
    pset = _read_pointset(args.input)
    if args.from_json is None:
        ids = args.subset
    else:
        with open(args.from_json, "r", encoding="utf-8") as fh:
            found = json.load(fh)
        ids = found.get("subset") if isinstance(found, dict) else None
        if not (isinstance(ids, list) and all(type(i) is int for i in ids)):
            raise ValueError(f"{args.from_json} has no \"subset\" list of integer ids")
    report = verify_subset(pset, ids, args.a, VARIANT_NAMES[args.variant])
    sys.set_int_max_str_digits(0)
    config = _config_echo(args, ("a", "variant"))
    _emit_json({**report.to_json(), "subset": list(ids), "config": config}, args, out)
    return 0 if report.valid else 1


def _cmd_oracle(args, out):
    pset = _read_pointset(args.input)
    subset = brute_force_max(
        pset, args.a, VARIANT_NAMES[args.variant], max_points=args.max_n
    )
    payload = {
        "subset": subset,
        "size": len(subset),
        "config": _config_echo(args, ("a", "variant", "max_n")),
    }
    _emit_json(payload, args, out)
    return 0


def _cmd_bounds(args, out):
    if args.pretty and args.format != "json":
        raise ValueError("--pretty needs --format json")
    value = _call(BOUNDS, args.formula, args)  # parses --c under the digit cap
    sys.set_int_max_str_digits(0)
    if args.format == "json":
        _emit_json({"formula": args.formula, "value": str(value)}, args, out)
    else:
        out.write(f"{value}\n")
    return 0


BENCH_SUITES = {
    "grids-2d": [(f"grid-{side}", partial(gen_grid, 2, side)) for side in (3, 4, 6, 8, 10)],
    "random-2d": [
        (f"random-{n}", partial(gen_random, 2, n, 10**6, seed))
        for n, seed in ((50, 1), (100, 2), (200, 3))
    ],
}


def _cmd_bench(args, out):
    if args.budget < 0:
        raise ValueError(f"budget must be >= 0, got {args.budget}")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance", "n", "a", "d", "observed_m", "t_target", "subset_size", "retries",
                     "distinct_volumes", "wall_time_s"])
    for name, build in BENCH_SUITES[args.suite][: args.budget]:
        pset = build()
        started = time.perf_counter()
        coloring = build_coloring(pset, 2)
        distinct = len({raw for _, raw in coloring.raw_items() if raw})
        result = find_subset(pset, FindRequest(a=2, mode="auto", seed=args.seed))
        elapsed = time.perf_counter() - started
        if isinstance(result, FindResult):
            found = [result.observed_m, result.t_target, len(result.subset), result.stats.get("retries_used", 0)]
        else:  # an ExtractionFailure: no m or t to report, and its attempts as retries
            found = [-1, -1, 0, result.attempts]
        writer.writerow([name, len(pset), 2, pset.dimension, *found, distinct, f"{elapsed:.3f}"])
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

class _FlagBeforeName(argparse.Action):
    """A gen or bounds flag given before the kind or formula, which metavar names."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"flags follow the {self.metavar}: put {option_string} after it")


def _add_table(parser, dest, table, shared):
    """One sub-parser per table entry, taking the `shared` {flag: keywords}
    and only the flags its function reads; any of these flags given before
    the entry's name is a usage error that says so."""
    entries = parser.add_subparsers(dest=dest, required=True)
    for name, (_, flags) in table.items():
        p = entries.add_parser(name)
        for flag, keywords in shared.items():
            p.add_argument(f"--{flag}", **keywords)
        for flag, default in flags.items():
            p.add_argument(
                f"--{flag}",
                type=str if isinstance(default, str) else int,
                default=default,
                required=default is None,
            )
    for flag in sorted({flag for _, flags in table.values() for flag in flags} | set(shared)):
        parser.add_argument(
            f"--{flag}", nargs="?", action=_FlagBeforeName, metavar=dest,
            default=argparse.SUPPRESS, help=argparse.SUPPRESS,
        )


@cache
def build_parser():
    """The CLI's parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="dvsubset",
        description="Find point subsets whose simplex volumes are pairwise distinct.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, pretty=True):
        p.add_argument("input", nargs="?", default="-", help="point-set file or - for stdin")
        if pretty:
            p.add_argument("--pretty", action="store_true")

    g = sub.add_parser("gen", help="emit a generated point set")
    _add_table(g, "kind", GENERATORS, {})

    c = sub.add_parser("color", help="dump the full edge coloring as CSV")
    c.add_argument("--a", type=int, required=True)
    common(c, pretty=False)

    go = sub.add_parser("goodness", help="largest volume class over any (a-1)-tuple")
    go.add_argument("--a", type=int, required=True)
    go.add_argument("--cap", type=int, default=None)
    common(go)

    f = sub.add_parser("find", help="search for a distinct-volume subset")
    f.add_argument("--a", type=int, required=True)
    f.add_argument("--mode", choices=tuple(MODE_NAMES), default="auto")
    f.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="h")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--t", type=int, default=None)
    f.add_argument("--m", type=int, default=None)
    f.add_argument("--max-retries", type=int, default=64)
    f.add_argument("--depth", type=int, default=None)
    common(f)

    v = sub.add_parser("verify", help="check a subset for distinct volumes")
    v.add_argument("--a", type=int, required=True)
    v.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="h")
    ids = v.add_mutually_exclusive_group(required=True)
    ids.add_argument("--subset", type=_id_list, help="comma-separated ids")
    ids.add_argument("--from-json", type=str, help="find output file")
    common(v)

    o = sub.add_parser("oracle", help="exhaustive maximum subset (small n only)")
    o.add_argument("--a", type=int, required=True)
    o.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="h")
    o.add_argument("--max-n", type=int, default=None)
    common(o)

    output = {
        "format": {"choices": ("text", "json"), "default": "text"},
        "pretty": {"action": "store_true"},
    }
    b = sub.add_parser("bounds", help="closed-form bound values")
    _add_table(b, "formula", BOUNDS, output)

    be = sub.add_parser("bench", help="run a benchmark suite, CSV to stdout")
    be.add_argument("--suite", choices=tuple(BENCH_SUITES), default="grids-2d")
    be.add_argument("--budget", type=int, default=100, help="max instances; 0 = header only")
    be.add_argument("--seed", type=int, default=0)

    return parser


HANDLERS = {
    "gen": _cmd_gen,
    "color": _cmd_color,
    "goodness": _cmd_goodness,
    "find": _cmd_find,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
}


def run(argv, out=None):
    """Parse argv and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    cap = sys.get_int_max_str_digits()
    try:
        return HANDLERS[args.cmd](args, out)
    except (ValueError, OSError) as exc:
        print(f"dvsubset {args.cmd}: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(cap)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
