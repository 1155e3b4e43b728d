"""Top-level search for subsets whose simplex volumes are pairwise distinct.

Two problem variants share one machinery. Variant "h" asks for a subset in
which all nonzero squared a-point volumes are distinct (degenerate simplices
are allowed, even all of them). Variant "h_prime" additionally requires the
whole input in general position and no degenerate simplex inside the answer.

Modes:

* auto: measure the coloring's actual goodness m, aim for the largest t with
  4*m*t^(2a-1) <= n, and run plain rainbow extraction.
* fixed_m: trust a caller-supplied budget m and run the extraction that
  watches for bad edges.
* locus_recursion: like fixed_m but with a per-level default budget; a bad
  edge hands back a structured locus to recurse into. For a=2 the locus is a
  sphere around the witness point (recurse on it, dimension drops morally by
  one). For a=d+1 the locus is a pair of parallel hyperplanes: if one side
  already holds t points those points alone answer the h variant, since every
  simplex inside a hyperplane is degenerate (certificate "all_zero").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from .bounds import int_nth_root
from .coloring import ColorKey, build_coloring, goodness
from .geometry import det_bareiss, edge_det_denominator, edge_gram_det, squared_volume
from .rainbow import BadEdgeWitness, ExtractionFailure, RainbowResult, extract_rainbow
from .rng import derive_seed

MODES = ("auto", "fixed_m", "locus_recursion")
VARIANTS = ("h", "h_prime")

# exhaustive-search guards, overridable per call
DEFAULT_ORACLE_LIMITS = {2: 12, 3: 10}
_ORACLE_FALLBACK_LIMIT = 9


class GeneralPositionError(ValueError):
    """Raised when variant h_prime meets a degenerate a-subset in the input."""

    def __init__(self, witness):
        super().__init__(f"input not in general position, witness edge {witness}")
        self.witness = witness


@dataclass
class VerifyReport:
    valid: bool
    duplicate_groups: list  # (ColorKey, [edges]) for repeated nonzero volumes
    zero_edges: int

    def to_json(self):
        return {
            "valid": self.valid,
            "duplicate_groups": [
                {"color": key.to_json(), "edges": [list(e) for e in edges]}
                for key, edges in self.duplicate_groups
            ],
            "zero_edges": self.zero_edges,
        }


@dataclass
class FindRequest:
    a: int
    mode: str = "auto"
    m: int | None = None
    variant: str = "h"
    seed: int = 0
    t_override: int | None = None
    max_retries: int = 64
    recursion_depth_cap: int | None = None  # defaults to the dimension


@dataclass
class FindResult:
    subset: list
    certificate: str  # "rainbow" | "all_zero"
    t_target: int
    observed_m: int
    recursion_trace: list  # [{"locus": "sphere"|"hyperplane", "ids": [...]}]
    seed: int
    stats: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "subset": list(self.subset),
            "certificate": self.certificate,
            "t_target": self.t_target,
            "observed_m": self.observed_m,
            "recursion_trace": self.recursion_trace,
            "seed": self.seed,
            "stats": self.stats,
        }


def verify_subset(pset, subset, a, variant="h"):
    """Exact check of a candidate answer over all of its a-subsets."""
    n = len(pset)
    ids = list(subset)
    if len(ids) != len(set(ids)):
        raise ValueError("subset ids must be distinct")
    if any(not 0 <= i < n for i in ids):
        raise ValueError("subset ids out of range")
    if len(ids) < a:
        raise ValueError(f"subset needs at least a={a} ids")
    if not 2 <= a <= pset.dimension + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={pset.dimension}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    den = edge_det_denominator(pset, a)
    groups = {}
    zero_edges = 0
    for edge in combinations(sorted(ids), a):
        det = edge_gram_det(pset, edge)
        if det == 0:
            zero_edges += 1
        else:
            groups.setdefault(det, []).append(edge)
    duplicates = [
        (ColorKey.from_det(det, den), edges)
        for det, edges in sorted(groups.items())
        if len(edges) > 1
    ]
    valid = not duplicates and (variant == "h" or zero_edges == 0)
    return VerifyReport(valid, duplicates, zero_edges)


def general_position_check(pset, a):
    """(True, None) iff every a-subset spans affine rank a-1; else a witness edge.

    Exhaustive over C(n, a) subsets, exact integer determinants.
    """
    n = len(pset)
    if not 2 <= a <= pset.dimension + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={pset.dimension}")
    if n < a:
        return True, None
    for edge in combinations(range(n), a):
        if edge_gram_det(pset, edge) == 0:
            return False, edge
    return True, None


# ---------------------------------------------------------------------------
# find_subset

def _target_t(n, m, a, t_override):
    """Largest t with 4*m*t^(2a-1) <= n, clamped into [a, n]; overrides too."""
    if t_override is not None:
        t = t_override
    else:
        t = int_nth_root(n // (4 * m), 2 * a - 1)
    return max(a, min(t, n))


def _level_budget(n, a):
    """Default per-level class budget: max(a, floor(n^((2a-2)/(2a-1)) / 4))."""
    return max(a, int_nth_root(n ** (2 * a - 2), 2 * a - 1) // 4)


def _is_rainbow(raws, variant):
    """True when no nonzero raw volume repeats and, under h_prime, none is zero.

    Reads the values once, stopping at the first repeat.
    """
    seen = set()
    for raw in raws:
        if not raw:
            if variant == "h_prime":
                return False
            continue
        if raw in seen:
            return False
        seen.add(raw)
    return True


def _split_by_hyperplane(pset, anchor, candidates):
    """Partition candidates by orientation against the anchor's hyperplane.

    Points exactly on the hyperplane land on neither side.  Signs come from
    integer determinants on the scaled coordinates, so the split is exact.
    """
    vecs = pset.scaled
    s0 = vecs[anchor[0]]
    base = [
        [x - y for x, y in zip(vecs[i], s0)] for i in anchor[1:]
    ]
    pos, neg = [], []
    for v in candidates:
        rows = [row[:] for row in base]
        rows.append([x - y for x, y in zip(vecs[v], s0)])
        sign = det_bareiss(rows)
        if sign > 0:
            pos.append(v)
        elif sign < 0:
            neg.append(v)
    return pos, neg


def _result(pset, req, subset, certificate, t, m_obs, trace, extra, report=None):
    """FindResult for a subset that passes verify_subset (report: its check, if run)."""
    if report is None:
        report = verify_subset(pset, subset, req.a, req.variant)
    if not report.valid:
        raise RuntimeError("internal error: search produced an invalid subset")
    stats = {
        "n": len(pset),
        "a": req.a,
        "d": pset.dimension,
        "mode": req.mode,
        "variant": req.variant,
    }
    stats.update(extra)
    return FindResult(list(subset), certificate, t, m_obs, list(trace), req.seed, stats)


def _solve(pset, req, coloring, m_obs, budget=None):
    """The whole set when it is rainbow already, else one extraction.

    Without a budget (auto, and fixed/locus when no locus applies) t follows
    the observed goodness.  With one, t follows the budget and the extraction
    watches for bad edges, so a BadEdgeWitness may come back.
    """
    n = len(pset)
    m = m_obs if budget is None else budget
    t = _target_t(n, m, req.a, req.t_override)
    # m_obs >= 2 already names two edges of one color
    if m_obs <= 1:
        report = verify_subset(pset, range(n), req.a, req.variant)
        if report.valid:
            return _result(
                pset, req, list(range(n)), "rainbow", t, m_obs, [], {"whole_set": True}, report
            )
    outcome = extract_rainbow(
        coloring, t, m, req.seed, req.max_retries, watch=budget is not None
    )
    if not isinstance(outcome, RainbowResult):
        return outcome
    extra = {} if budget is None else {"m_budget": budget}
    extra["retries_used"] = outcome.retries_used
    extra["conflicts_in_accepted_sample"] = outcome.conflicts_in_accepted_sample
    return _result(pset, req, outcome.subset, "rainbow", t, m_obs, [], extra)


def _run(pset, req, depth):
    a = req.a
    n = len(pset)
    d = pset.dimension
    if req.variant == "h_prime":
        ok, witness = general_position_check(pset, a)
        if not ok:
            raise GeneralPositionError(witness)
    coloring = build_coloring(pset, a)
    m_obs = goodness(coloring).observed_m
    if req.mode == "auto":
        return _solve(pset, req, coloring, m_obs)
    if req.mode == "fixed_m":
        if req.m is None:
            raise ValueError("fixed_m mode requires m")
        budget = req.m
    else:
        budget = req.m if req.m is not None else _level_budget(n, a)
    witness = _solve(pset, req, coloring, m_obs, budget)
    if not isinstance(witness, BadEdgeWitness):
        return witness  # a FindResult or an ExtractionFailure
    t = _target_t(n, budget, a, req.t_override)
    if a == 2 and depth > 0:
        # sphere locus: every extension at one exact squared distance from the anchor
        center = pset[witness.tuple_ids[0]]
        radius_sq = witness.color.volume()
        for v in witness.extensions:
            assert squared_volume([center, pset[v]]) == radius_sq
        carried = list(witness.extensions)
        child_req = replace(
            req,
            t_override=None,
            seed=derive_seed(req.seed, len(carried)),
            recursion_depth_cap=depth - 1,
        )
        child = _run(pset.subset(carried), child_req, depth - 1)
        if isinstance(child, ExtractionFailure):
            return child
        mapped = [carried[v] for v in child.subset]
        trace = [{"locus": "sphere", "ids": carried}]
        for entry in child.recursion_trace:
            trace.append(
                {"locus": entry["locus"], "ids": [carried[v] for v in entry["ids"]]}
            )
        return _result(
            pset,
            req,
            mapped,
            child.certificate,
            t,
            m_obs,
            trace,
            {"m_budget": budget, "child_stats": child.stats},
        )
    if a == d + 1 and a >= 3:
        pos, neg = _split_by_hyperplane(pset, witness.tuple_ids, witness.extensions)
        larger = pos if len(pos) >= len(neg) else neg
        if req.variant == "h" and len(larger) >= t:
            side = sorted(larger)
            return _result(
                pset,
                req,
                side[:t],
                "all_zero",
                t,
                m_obs,
                [{"locus": "hyperplane", "ids": side}],
                {"m_budget": budget, "side_size": len(side)},
            )
    return _solve(pset, req, coloring, m_obs)


def find_subset(pset, req):
    """Search the point set for a subset with pairwise distinct simplex volumes.

    Returns FindResult (whose subset always passes verify_subset) or an
    ExtractionFailure with the best sample's diagnostics.  Raises
    GeneralPositionError when variant h_prime meets a degenerate input and
    ValueError on malformed requests.
    """
    a = req.a
    d = pset.dimension
    n = len(pset)
    if not 2 <= a <= d + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={d}")
    if n < a:
        raise ValueError(f"need at least a={a} points, got {n}")
    if req.mode not in MODES:
        raise ValueError(f"unknown mode {req.mode!r}")
    if req.variant not in VARIANTS:
        raise ValueError(f"unknown variant {req.variant!r}")
    if req.max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if req.t_override is not None and req.t_override < 1:
        raise ValueError("t_override must be >= 1")
    if req.m is not None and req.m < 1:
        raise ValueError("m must be >= 1")
    depth = req.recursion_depth_cap if req.recursion_depth_cap is not None else d
    return _run(pset, req, depth)


# ---------------------------------------------------------------------------
# exhaustive oracle and greedy growth

def brute_force_max(pset, a, variant="h", max_points=None):
    """Lexicographically least maximum valid subset, by exhaustive search.

    Sizes are tried from n downward, candidates of one size in lexicographic
    order, so the answer is deterministic.  Guarded to small n (default 12
    for a=2, 10 for a=3, 9 otherwise) because the scan is exponential.
    """
    n = len(pset)
    if not 2 <= a <= pset.dimension + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={pset.dimension}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    limit = (
        max_points
        if max_points is not None
        else DEFAULT_ORACLE_LIMITS.get(a, _ORACLE_FALLBACK_LIMIT)
    )
    if n > limit:
        raise ValueError(f"exhaustive search capped at {limit} points for a={a}")
    if n < a:
        return list(range(n))
    dets = {e: edge_gram_det(pset, e) for e in combinations(range(n), a)}
    for size in range(n, a - 1, -1):
        for combo in combinations(range(n), size):
            if _is_rainbow((dets[e] for e in combinations(combo, a)), variant):
                return list(combo)
    # only reachable under h_prime when every single a-subset is degenerate
    return list(range(min(n, a - 1)))


def greedy_augment(pset, subset, a, variant="h"):
    """Grow a valid subset by repeatedly adding the smallest id that keeps it valid.

    Seeds smaller than a are allowed: with no a-subsets inside they are
    trivially valid.
    """
    n = len(pset)
    chosen = sorted(subset)
    if len(chosen) >= a:
        report = verify_subset(pset, chosen, a, variant)
        if not report.valid:
            raise ValueError("input subset fails verification")
    else:
        if len(set(chosen)) != len(chosen):
            raise ValueError("subset ids must be distinct")
        if any(not 0 <= i < n for i in chosen):
            raise ValueError("subset ids out of range")
    members = set(chosen)
    seen = set()
    for edge in combinations(chosen, a):
        det = edge_gram_det(pset, edge)
        if det:
            seen.add(det)
    while True:
        added = False
        for v in range(n):
            if v in members:
                continue
            fresh = set()
            ok = True
            for anchor in combinations(chosen, a - 1):
                det = edge_gram_det(pset, anchor + (v,))
                if det == 0:
                    if variant == "h_prime":
                        ok = False
                        break
                    continue
                if det in seen or det in fresh:
                    ok = False
                    break
                fresh.add(det)
            if ok:
                members.add(v)
                chosen.append(v)
                chosen.sort()
                seen |= fresh
                added = True
                break
        if not added:
            return chosen
