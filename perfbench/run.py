"""dvsubset benchmark: one workload, one process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload a2-auto --seed 0 --seconds 20 --trace 0

The benchmark imports dvsubset from ./src and drives it only through its
public functions and the CLI's `run`.  A solve is one `find` on one instance,
or one crosscheck batch.  Solves run back to back in this single process,
with no threads and pinned to one CPU, for --seconds, always finishing the
current round (one instance of each kind) and solving every instance at
least once.  Each answer is checked by the independent checker in
checker.py, outside the timed region.

--trace 0 times the solves with nothing patched and reports the end-to-end
metrics.  --trace 1 solves each instance twice in turn, once untraced and
once with spans recorded at every layer boundary (tracing.py), and reports
the per-layer metrics plus the tracing overhead: the traced median minus the
untraced median.  It then measures coloring allocations under tracemalloc
in a separate pass, and writes the spans to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every answer passed the checker,
1 when any was rejected, 2 on a usage error or when ./src/dvsubset is absent.
"""

import argparse
import gc
import gzip
import importlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from types import SimpleNamespace

import checker
from tracing import Patches, Tracer, instrument, self_times
from workloads import WORKLOADS, Failed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

# the benchmark's own calls into each layer: the root spans of a solve
API_SPANS = {
    "cli_run": "cli.run",
    "PointSet": "geometry.PointSet",
    "find_subset": "finder.find_subset",
    "squared_volume": "geometry.squared_volume",
    "squared_volume_cm": "geometry.squared_volume_cm",
    "affine_rank": "geometry.affine_rank",
}

# per-layer time metric -> the span names whose self time it sums
SELF_TIME_SPANS = {
    "coloring.build_s": ("coloring.build_coloring",),
    "coloring.goodness_s": ("coloring.goodness",),
    "geometry.gram_det_s": ("geometry.edge_gram_det",),
    "geometry.denominator_s": ("geometry.edge_det_denominator",),
    "geometry.gram_route_s": ("geometry.squared_volume",),
    "geometry.cm_s": ("geometry.squared_volume_cm",),
    "geometry.rank_s": ("geometry.affine_rank",),
    "rainbow.extract_s": ("rainbow.extract_rainbow", "rainbow.extract_rainbow_fast"),
    "rainbow.bad_edge_scan_s": ("rainbow.find_bad_edge",),
    "finder.verify_s": ("finder.verify_subset",),
    "finder.self_s": ("finder.find_subset",),
    "cli.parse_s": ("geometry.parse_pointset",),
    "cli.self_s": ("cli.run",),
}


def metric_units():
    """(end-to-end, per-layer) metric name -> unit maps, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_dvsubset():
    """Import dvsubset afresh from ./src, as a new process would."""
    for name in [n for n in sys.modules if n == "dvsubset" or n.startswith("dvsubset.")]:
        del sys.modules[name]
    dv = importlib.import_module("dvsubset")
    importlib.import_module("dvsubset.cli")
    return {"dvsubset": dv, **{m: sys.modules[f"dvsubset.{m}"] for m in (
        "cli", "coloring", "finder", "generators", "geometry", "rainbow")}}


def setup(workload, seed):
    """Import and instance generation, SETUP_REPEATS times; medians of both clocks."""
    totals, gens = [], []
    for _ in range(SETUP_REPEATS):
        spent = [0.0]
        start = time.perf_counter()
        modules = import_dvsubset()
        dv = modules["dvsubset"]

        def gen(name, *args):
            t0 = time.perf_counter()
            result = getattr(dv, name)(*args)
            spent[0] += time.perf_counter() - t0
            return result

        instances = workload.make(dv, seed, gen)
        totals.append(time.perf_counter() - start)
        gens.append(spent[0])
    return modules, instances, statistics.median(totals), statistics.median(gens)


def make_api(modules):
    geometry, finder = modules["geometry"], modules["finder"]
    return SimpleNamespace(
        cli_run=modules["cli"].run,
        PointSet=geometry.PointSet,
        find_subset=finder.find_subset,
        FindRequest=finder.FindRequest,
        squared_volume=geometry.squared_volume,
        squared_volume_cm=geometry.squared_volume_cm,
        affine_rank=geometry.affine_rank,
    )


def solve_once(workload, api, inst):
    """(seconds, outcome, error) of one timed solve."""
    start = time.perf_counter()
    try:
        outcome, error = workload.solve(api, inst), None
    except Exception as exc:  # a crashing solve is a failed solve, timed like any other
        outcome, error = None, exc
    return time.perf_counter() - start, outcome, error


def run_rounds(workload, instances, seconds, step):
    """Call step on instances in order, at least once each, until `seconds` pass at a round boundary."""
    start = time.perf_counter()
    i = 0
    while True:
        step(instances[i % len(instances)])
        i += 1
        if i % workload.kinds == 0 and i >= len(instances) and time.perf_counter() - start >= seconds:
            return


def check(inst, answer):
    if answer.subset is None:
        for points, gram, cm, rank in answer.routes:
            reason = checker.check_routes(points, gram, cm, rank)
            if reason:
                return reason
        return None
    return checker.check_subset(inst.rows, answer.a, answer.subset, answer.certificate, answer.variant)


class Tally:
    """Failures, rejections and answer sizes of one run's solves."""

    def __init__(self, workload):
        self.workload = workload
        self.failed = 0
        self.rejected = 0
        self.sizes = {}  # instance index -> answer size; each instance counts once
        self._verdicts = {}  # a repeat answer to an instance is checked once

    def add(self, inst, outcome, error):
        """Read and check one solve's outcome; the Answer, or None when it failed."""
        answer = None
        if error is None:
            try:
                answer = self.workload.read(inst, outcome)
            except Failed:
                pass
            except Exception as exc:  # malformed output is a failed solve
                error = exc
        if error is not None and self.failed == 0:
            traceback.print_exception(error, file=sys.stderr)
        if answer is not None:
            key = (inst.index, answer.key())
            if key not in self._verdicts:
                self._verdicts[key] = check(inst, answer)
            reason = self._verdicts[key]
            if reason:
                print(f"checker rejected instance {inst.index} ({inst.kind}): {reason}", file=sys.stderr)
                self.rejected += 1
                answer = None
        if answer is None:
            self.failed += 1
        else:
            self.sizes.setdefault(inst.index, answer.size)
        return answer


def tail(times):
    """(value, percentile, solves): the highest percentile with TAIL_BEYOND solves beyond it."""
    n = len(times)
    ordered = sorted(times)
    pct = 100 * (n - TAIL_BEYOND) // n
    if pct < 1:
        return ordered[-1], 100, n
    rank = -(-pct * n // 100)  # nearest rank, 1-based
    return ordered[rank - 1], pct, n


def end_to_end(times, tally, setup_s):
    value, pct, n = tail(times)
    sizes = tally.sizes.values()
    return {
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": value,
        # completed solves over the wall time spent solving; checks are not in it
        "solves_per_s": (len(times) - tally.failed) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answer_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "setup_s": setup_s,
    }, {"solve_s_tail": f"p{pct} of {n} solves"}


def alloc_pass(workload, api, modules, instances):
    """Peak MB allocated from the start of each coloring build to the end of its goodness scan."""
    finder = modules["finder"]
    state = {"base": 0, "peak": 0}

    def watch(fn, opens):
        def watched(*args, **kwargs):
            if opens:
                state["base"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                state["peak"] = max(state["peak"], tracemalloc.get_traced_memory()[1] - state["base"])

        return watched

    patches = Patches()
    for attr, opens in (("build_coloring", True), ("goodness", False)):
        if hasattr(finder, attr):
            patches.add(finder, attr, watch(getattr(finder, attr), opens))
    patches.install()
    tracemalloc.start()
    try:
        for inst in instances[: workload.kinds]:
            solve_once(workload, api, inst)
    finally:
        tracemalloc.stop()
        patches.uninstall()
    return state["peak"] / 2**20


def per_layer(tracer, done, solves, extra):
    """Per-solve means over the traced solves; done holds their checked find answers."""
    selfs = {}
    calls = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        selfs[span.name] = selfs.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
    counts = tracer.counts
    metrics = {m: sum(selfs.get(s, 0.0) for s in names) / solves for m, names in SELF_TIME_SPANS.items()}
    samples = counts["rainbow.samples"]
    metrics.update(
        {
            "coloring.edges_colored": counts["coloring.edges_colored"] / solves,
            "coloring.builds": calls.get("coloring.build_coloring", 0) / solves,
            "geometry.gram_det_calls": calls.get("geometry.edge_gram_det", 0) / solves,
            "rainbow.samples": samples / solves,
            "rainbow.accept_ratio": counts["rainbow.accepted"] / samples if samples else 0.0,
            "rainbow.conflict_pairs": counts["rainbow.conflict_pairs"] / solves,
            "finder.verify_edges": counts["finder.verify_edges"] / solves,
            "finder.recursion_levels": statistics.fmean(a.levels for a in done) if done else 0.0,
            "finder.whole_set_ratio": statistics.fmean(a.whole_set for a in done) if done else 0.0,
        }
    )
    metrics.update(extra)
    return metrics


def layer_shares(tracer, traced_wall):
    """Share of traced solve time per layer (self time), the rest being the benchmark's own."""
    shares = {}
    roots = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer = span.name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + own
        if span.parent is None:
            roots += span.end - span.start
    shares["bench"] = traced_wall - roots
    return {k: v / traced_wall for k, v in sorted(shares.items())}


def write_spans(tracer, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.csv.gz"
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("id,name,start,end,parent,solve\n")
        for i, s in enumerate(tracer.spans):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.solve}\n")
    return path


def report(args, attempted, tally, metrics, units, notes):
    metrics = {name: metrics[name] for name in units}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  solves {attempted}  failed {tally.failed}  rejected {tally.rejected}  "
          f"fail_ratio {tally.failed / attempted:.4f}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {value:>14.6g} {units[name]}{note}")
    result = {
        "correct": tally.rejected == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.rejected == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dvsubset" / "__init__.py").is_file():
        print(f"perfbench: no dvsubset package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_units, layer_units = metric_units()
    if hasattr(os, "sched_setaffinity"):
        # one single-threaded process: keep it on one CPU, so that a run does not
        # land on CPUs of different speed from one run to the next
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    modules, instances, setup_s, gen_s = setup(workload, args.seed)
    api = make_api(modules)
    solve_once(workload, api, instances[0])  # warm-up: lazy imports and caches, not timed
    # the benchmark's own instance store is no user's heap: keep it out of the collector's scans
    gc.collect()
    gc.freeze()

    tally = Tally(workload)
    times = []
    if not args.trace:
        def step(inst):
            secs, outcome, error = solve_once(workload, api, inst)
            times.append(secs)
            tally.add(inst, outcome, error)

        run_rounds(workload, instances, args.seconds, step)
        metrics, notes = end_to_end(times, tally, setup_s)
        return report(args, len(times), tally, metrics, end_units, notes)

    tracer = Tracer()
    instrument(tracer, modules, api, API_SPANS)
    plain, traced, traced_answers = [], [], []

    def untraced(inst):
        secs, outcome, error = solve_once(workload, api, inst)
        plain.append(secs)
        tally.add(inst, outcome, error)

    def traced_solve(inst):
        tracer.solve = len(traced)
        tracer.install()
        try:
            secs, outcome, error = solve_once(workload, api, inst)
        finally:
            tracer.uninstall()
        traced.append(secs)
        answer = tally.add(inst, outcome, error)
        if answer is not None and answer.subset is not None:
            traced_answers.append(answer)

    def paired(inst):
        # alternate which of the pair runs first, so order effects cancel in the overhead
        first, second = (untraced, traced_solve) if len(plain) % 2 == 0 else (traced_solve, untraced)
        first(inst)
        second(inst)

    run_rounds(workload, instances, args.seconds, paired)
    extra = {"coloring.peak_alloc_mb": 0.0, "geometry.scale_digits": 0.0}
    if workload.finds:
        PointSet = modules["geometry"].PointSet
        extra["coloring.peak_alloc_mb"] = alloc_pass(workload, api, modules, instances)
        extra["geometry.scale_digits"] = statistics.fmean(len(str(PointSet(i.d, i.rows).scale)) for i in instances)
    extra.update({
        "generators.build_s": gen_s,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    metrics = per_layer(tracer, traced_answers, len(traced), extra)
    shares = layer_shares(tracer, sum(traced))
    path = write_spans(tracer, args.workload, args.seed)
    print("layer shares of traced solve time: "
          + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"untraced p50 {statistics.median(plain):.6g} s, traced p50 {statistics.median(traced):.6g} s, "
          f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    return report(args, len(plain) + len(traced), tally, metrics, layer_units, {})


if __name__ == "__main__":
    sys.exit(main())
