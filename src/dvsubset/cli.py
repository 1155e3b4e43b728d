"""Command-line interface.

Verbs: gen, color, goodness, find, verify, oracle, bounds, bench.  Point sets
travel as the text format (stdin by default, "-" explicitly, or a path);
results are JSON on stdout (CSV where tabular).  Exit codes: 0 success,
1 a search/verification reported failure, 2 usage errors.

Output on stdout is byte-deterministic for fixed flags and seed; wall-clock
timings go to stderr only.  `color` writes every edge; it warns on stderr
when C(n, a) exceeds --budget-edges, and still runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from math import comb

from .bounds import (
    H_general_recurrence,
    H_simplex_upper,
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
from .generators import GenSpec
from .geometry import format_pointset, parse_pointset
from .rainbow import ExtractionFailure, as_upper, expected_conflict_bound

DEFAULT_EDGE_BUDGET = 50_000_000

MODE_NAMES = {"auto": "auto", "locus": "locus_recursion", "fixed": "fixed_m"}
VARIANT_NAMES = {"h": "h", "hprime": "h_prime"}


def _read_pointset(path):
    if path == "-":
        return parse_pointset(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pointset(fh.read())


def _emit_json(payload, args, out):
    if getattr(args, "pretty", False):
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _config_echo(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_gen(args, out):
    if args.kind == "grid":
        kind, params = "grid", {"d": args.d, "side": args.side}
    elif args.kind == "random":
        kind, params = "random", {
            "d": args.d,
            "n": args.n,
            "coord_bound": args.coord_bound,
            "seed": args.seed,
        }
    elif args.kind == "parallel-lines":
        kind, params = "parallel_lines", {"d": args.d, "n": args.n}
    elif args.kind == "sphere2d":
        kind, params = "sphere2d", {"n": args.n}
    elif args.kind == "collinear":
        kind, params = "collinear", {"n_line": args.n, "n_noise": args.noise, "seed": args.seed}
    else:
        kind, params = "cocircular_plus_noise", {
            "n_circle": args.n_circle,
            "n_noise": args.n_noise,
            "seed": args.seed,
        }
    out.write(format_pointset(GenSpec(kind, params).build()))
    return 0


def _cmd_color(args, out):
    pset = _read_pointset(args.input)
    edges = comb(len(pset), args.a)
    if edges > args.budget_edges:
        print(
            f"warning: C({len(pset)},{args.a}) = {edges} edges exceeds budget {args.budget_edges}",
            file=sys.stderr,
        )
    coloring = build_coloring(pset, args.a)
    write_coloring_csv(coloring, out)
    return 0


def _cmd_goodness(args, out):
    pset = _read_pointset(args.input)
    coloring = build_coloring(pset, args.a)
    report = goodness(coloring, cap=args.cap)
    payload = report.to_json()
    payload["config"] = _config_echo(args, ("a", "cap"))
    _emit_json(payload, args, out)
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
    if args.subset:
        ids = [int(x) for x in args.subset.split(",") if x != ""]
    elif args.from_json:
        with open(args.from_json, "r", encoding="utf-8") as fh:
            found = json.load(fh)
        ids = found.get("subset") if isinstance(found, dict) else None
        if not (isinstance(ids, list) and all(type(i) is int for i in ids)):
            print(
                f"verify: {args.from_json} has no \"subset\" list of integer ids",
                file=sys.stderr,
            )
            return 2
    else:
        print("verify: need --subset or --from-json", file=sys.stderr)
        return 2
    report = verify_subset(pset, ids, args.a, VARIANT_NAMES[args.variant])
    payload = report.to_json()
    payload["subset"] = list(ids)
    payload["config"] = _config_echo(args, ("a", "variant"))
    _emit_json(payload, args, out)
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
    formula = args.formula
    try:
        if formula == "g":
            value = g_upper(args.k, args.m, args.t)
        elif formula == "H-simplex":
            value = H_simplex_upper(args.d, args.t)
        elif formula == "h-simplex":
            value = h_simplex_lower(args.d, args.n)
        elif formula == "h-general":
            value = h_general_lower(args.a, args.d, args.n, args.c)
        elif formula == "H-rec":
            value = H_general_recurrence(args.a, args.d, args.t, args.j, args.base)
        elif formula == "as":
            value = as_upper(args.k, args.m, args.n, args.s)
        elif formula == "expected":
            value = expected_conflict_bound(args.n, args.k, args.m, args.t)
        else:
            print(f"bounds: unknown formula {formula!r}", file=sys.stderr)
            return 2
    except TypeError:
        print(f"bounds: missing flags for formula {formula!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json({"formula": formula, "value": str(value)}, args, out)
    else:
        out.write(f"{value}\n")
    return 0


BENCH_SUITES = {
    "grids-2d": [
        ("grid-3", GenSpec("grid", {"d": 2, "side": 3})),
        ("grid-4", GenSpec("grid", {"d": 2, "side": 4})),
        ("grid-6", GenSpec("grid", {"d": 2, "side": 6})),
        ("grid-8", GenSpec("grid", {"d": 2, "side": 8})),
        ("grid-10", GenSpec("grid", {"d": 2, "side": 10})),
    ],
    "random-2d": [
        ("random-50", GenSpec("random", {"d": 2, "n": 50, "coord_bound": 10**6, "seed": 1})),
        ("random-100", GenSpec("random", {"d": 2, "n": 100, "coord_bound": 10**6, "seed": 2})),
        ("random-200", GenSpec("random", {"d": 2, "n": 200, "coord_bound": 10**6, "seed": 3})),
    ],
}


def _cmd_bench(args, out):
    if args.suite not in BENCH_SUITES:
        print(f"bench: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "instance",
            "n",
            "a",
            "d",
            "observed_m",
            "t_target",
            "subset_size",
            "retries",
            "distinct_volumes",
            "wall_time_s",
        ]
    )
    rows = BENCH_SUITES[args.suite][: max(args.budget, 0)]
    for name, spec in rows:
        pset = spec.build()
        started = time.perf_counter()
        coloring = build_coloring(pset, 2)
        distinct = len({raw for _, raw in coloring.raw_items() if raw})
        result = find_subset(pset, FindRequest(a=2, mode="auto", seed=args.seed))
        elapsed = time.perf_counter() - started
        if isinstance(result, FindResult):
            size = len(result.subset)
            retries = result.stats.get("retries_used", 0)
            m_obs = result.observed_m
            t_target = result.t_target
        else:
            size = 0
            retries = result.attempts
            m_obs = -1
            t_target = -1
        writer.writerow(
            [name, len(pset), 2, pset.dimension, m_obs, t_target, size, retries, distinct, f"{elapsed:.3f}"]
        )
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="dvsubset",
        description="Find point subsets whose simplex volumes are pairwise distinct.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, input_arg=True):
        if input_arg:
            p.add_argument("input", nargs="?", default="-", help="point-set file or - for stdin")
        p.add_argument("--pretty", action="store_true")

    g = sub.add_parser("gen", help="emit a generated point set")
    g.add_argument(
        "kind",
        choices=("grid", "random", "parallel-lines", "sphere2d", "collinear", "cocircular"),
    )
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--side", type=int, default=4)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--coord-bound", type=int, default=10**6)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=int, default=0)
    g.add_argument("--n-circle", type=int, default=8)
    g.add_argument("--n-noise", type=int, default=0)
    common(g, input_arg=False)

    c = sub.add_parser("color", help="dump the full edge coloring as CSV")
    c.add_argument("--a", type=int, required=True)
    c.add_argument("--budget-edges", type=int, default=DEFAULT_EDGE_BUDGET)
    common(c)

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
    v.add_argument("--subset", type=str, default=None, help="comma-separated ids")
    v.add_argument("--from-json", type=str, default=None, help="find output file")
    common(v)

    o = sub.add_parser("oracle", help="exhaustive maximum subset (small n only)")
    o.add_argument("--a", type=int, required=True)
    o.add_argument("--variant", choices=tuple(VARIANT_NAMES), default="h")
    o.add_argument("--max-n", type=int, default=None)
    common(o)

    b = sub.add_parser("bounds", help="closed-form bound values")
    b.add_argument(
        "formula",
        choices=("g", "H-simplex", "h-simplex", "h-general", "H-rec", "as", "expected"),
    )
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--m", type=int, default=None)
    b.add_argument("--t", type=int, default=None)
    b.add_argument("--d", type=int, default=None)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--s", type=int, default=None)
    b.add_argument("--a", type=int, default=None)
    b.add_argument("--j", type=int, default=None)
    b.add_argument("--c", type=str, default="1")
    b.add_argument("--base", type=int, default=1)
    b.add_argument("--format", choices=("text", "json"), default="text")
    common(b, input_arg=False)

    be = sub.add_parser("bench", help="run a benchmark suite, CSV to stdout")
    be.add_argument("--suite", choices=tuple(BENCH_SUITES), default="grids-2d")
    be.add_argument("--budget", type=int, default=100, help="max instances; 0 = header only")
    be.add_argument("--seed", type=int, default=0)
    common(be, input_arg=False)

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
    try:
        return HANDLERS[args.cmd](args, out)
    except (ValueError, OSError) as exc:
        print(f"dvsubset {args.cmd}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
