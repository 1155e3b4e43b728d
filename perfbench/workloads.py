"""The benchmark's workloads: seeded instance lists and one solve per instance.

`make(dv, seed, gen)` turns the workload seed into a fixed instance list;
no instance is filtered by its outcome.  `gen(name, *args)` calls the
dvsubset generator of that name and times it.  `solve(api, inst)` is the
timed part.  It starts from the instance's rows or text, so every solve
builds a fresh PointSet and pays the lazily cached integer scale, as a user
does.  `read(inst, outcome)` turns the outcome into an Answer outside the
timed region, and raises Failed when the solve produced no answer.

A round is one instance of each kind in order.  Runs stop only at round
boundaries, so each kind carries the same weight in every run.
"""

import contextlib
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction


class Failed(Exception):
    """The solve returned without an answer (an ExtractionFailure or a nonzero exit)."""


@dataclass
class Instance:
    index: int
    kind: str
    d: int
    rows: list  # Fraction coordinate tuples (crosscheck: simplices): the solver's input and the checker's
    params: dict  # FindRequest fields
    text: str = None  # point-set text, for solves that go through the CLI


@dataclass
class Answer:
    a: int = None
    subset: list = None
    certificate: str = None
    variant: str = "h"
    levels: int = 0
    whole_set: bool = False
    routes: list = field(default_factory=list)  # crosscheck: (points, gram, cm, rank)

    def key(self):
        """What a repeat solve of the same instance must reproduce exactly."""
        if self.subset is None:
            return tuple(r[1:] for r in self.routes)
        return (tuple(self.subset), self.certificate)

    @property
    def size(self):
        """|subset|; for a crosscheck batch, the mean points per simplex."""
        if self.subset is None:
            return sum(len(r[0]) for r in self.routes) / len(self.routes)
        return len(self.subset)


def _seeds(dv, seed, count):
    rng = dv.SplitMix64(seed)
    return [rng.next_u64() >> 32 for _ in range(count)]


def _find(api, inst):
    pset = api.PointSet(inst.d, inst.rows)
    return api.find_subset(pset, api.FindRequest(**inst.params))


def _read_find(inst, outcome):
    if not hasattr(outcome, "subset"):
        raise Failed(type(outcome).__name__)
    return Answer(
        a=inst.params["a"],
        subset=list(outcome.subset),
        certificate=outcome.certificate,
        variant=inst.params.get("variant", "h"),
        levels=len(outcome.recursion_trace),
        whole_set=bool(outcome.stats.get("whole_set")),
    )


# ---------------------------------------------------------------------------
# a2-auto: the README quick start through the CLI find verb

A2_POINTS = 400


def _make_a2(dv, seed, gen):
    out = []
    for i, s in enumerate(_seeds(dv, seed, 16)):
        pset = gen("gen_random", 2, A2_POINTS, 2000, s)
        rows = [p.coords for p in pset]
        text = dv.format_pointset(pset)
        out.append(Instance(i, "random", 2, rows, {"a": 2, "mode": "auto", "seed": s}, text))
    return out


def _solve_cli(api, inst):
    argv = ["find", "-", "--a", "2", "--mode", "auto", "--seed", str(inst.params["seed"])]
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(inst.text)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = api.cli_run(argv, out)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _read_cli(inst, outcome):
    code, text = outcome
    if code != 0:
        raise Failed(f"dvsubset find exited with {code}")
    result = json.loads(text)
    return Answer(
        a=2,
        subset=result["subset"],
        certificate=result["certificate"],
        levels=len(result["recursion_trace"]),
        whole_set=bool(result["stats"].get("whole_set")),
    )


# ---------------------------------------------------------------------------
# a3-mixed: a = d+1 = 3 in the plane, one denominator per coordinate

A3_POINTS = 45


def _make_a3(dv, seed, gen):
    out = []
    for i, s in enumerate(_seeds(dv, seed, 8)):
        rng = dv.SplitMix64(s)
        rows, seen = [], set()
        while len(rows) < A3_POINTS:
            p = tuple(Fraction(rng.below(2001) - 1000, 1 + rng.below(5000)) for _ in range(2))
            if p not in seen:
                seen.add(p)
                rows.append(p)
        out.append(Instance(i, "mixed", 2, rows, {"a": 3, "mode": "auto", "seed": s}))
    return out


# ---------------------------------------------------------------------------
# rainbow-locus: fixed_m near the extraction edge, alternated with sphere recursion

LOCUS_PAIRS = 32


def _make_locus(dv, seed, gen):
    out = []
    seeds = _seeds(dv, seed, 2 * LOCUS_PAIRS)
    for i, s in enumerate(seeds):
        if i % 2 == 0:
            pset = gen("gen_random", 2, 300, 300, s)
            params = {"a": 2, "mode": "fixed_m", "m": 4, "t_override": 20, "seed": s}
            kind = "random-fixed_m"
        else:
            pset = gen("gen_cocircular_plus_noise", 60, 200, s)
            # 2t >= n: the sample is the whole set, so the centre is always in it
            params = {"a": 2, "mode": "locus_recursion", "m": 5, "t_override": 131, "seed": s}
            kind = "cocircular-locus"
        out.append(Instance(i, kind, 2, [p.coords for p in pset], params))
    return out


# ---------------------------------------------------------------------------
# crosscheck: the independent volume routes and affine rank on small simplices

SHAPES = ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5))
BATCH = 300


def _simplex(rng, a, d, degenerate):
    pts = []
    while len(pts) < a:
        p = tuple(Fraction(rng.below(17) - 8, 1 + rng.below(6)) for _ in range(d))
        if p not in pts:
            pts.append(p)
    if degenerate and a >= 3:
        # the last vertex becomes an affine combination of the others
        w = [Fraction(rng.below(5) - 2, 1 + rng.below(3)) for _ in range(a - 1)]
        w[0] += 1 - sum(w)
        combo = tuple(sum(wi * pts[i][j] for i, wi in enumerate(w)) for j in range(d))
        if combo not in pts[:-1]:
            pts[-1] = combo
    return pts


def _make_cross(dv, seed, gen):
    # every batch mixes all eight shapes, so batches cost alike and the median is stable
    out = []
    for i, s in enumerate(_seeds(dv, seed, 16)):
        rng = dv.SplitMix64(s)
        batch = []
        for k in range(BATCH):
            a, d = SHAPES[k % len(SHAPES)]
            batch.append(_simplex(rng, a, d, (k // len(SHAPES)) % 4 == 3))
        out.append(Instance(i, "mixed-shapes", None, batch, {}))
    return out


def _solve_cross(api, inst):
    return [
        (pts, api.squared_volume(pts), api.squared_volume_cm(pts), api.affine_rank(pts))
        for pts in inst.rows
    ]


def _read_cross(inst, outcome):
    return Answer(routes=outcome)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: int  # instance kinds per round
    finds: bool  # solves call find_subset, so they build colorings
    make: object
    solve: object
    read: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("a2-auto", 1, True, _make_a2, _solve_cli, _read_cli),
        Workload("a3-mixed", 1, True, _make_a3, _find, _read_find),
        Workload("rainbow-locus", 2, True, _make_locus, _find, _read_find),
        Workload("crosscheck", 1, False, _make_cross, _solve_cross, _read_cross),
    )
}
