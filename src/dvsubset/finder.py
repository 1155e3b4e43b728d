"""Top-level search for subsets whose simplex volumes are pairwise distinct.

Two problem variants share one machinery. Variant "h" asks for a subset in
which all nonzero squared a-point volumes are distinct (degenerate simplices
are allowed, even all of them). Variant "h_prime" additionally requires the
whole input in general position and no degenerate simplex inside the answer.

Every mode first reads the edges once, by `distinct_zeros`, which stops at
the first repeated volume, or under h_prime the first zero.  When none does,
the whole set is the answer, of goodness 1 (an anchor class holds one edge);
only otherwise is m measured in full and a subset searched for.

Modes:

* auto: aim for the largest t with 4*m*t^(2a-1) <= n, m the observed
  goodness, and run plain rainbow extraction; a request m or depth cap is
  an error.
* locus_recursion: aim t at a class budget m (the caller's, or a per-level
  default) and watch the extraction for bad edges; a bad edge hands back a
  structured locus to recurse into. For a=2 the locus is a sphere around the
  witness point (recurse on it, dimension drops morally by one, to a depth
  cap that a >= 3 rejects, reading none). For a=d+1 the locus is a pair of
  parallel hyperplanes, split by the coloring's `sides`: if one side already
  holds t points those points alone answer the h variant, since every
  simplex inside a hyperplane is degenerate (certificate "all_zero").
* fixed_m: locus_recursion with a required m.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import combinations

from .bounds import int_nth_root
from .coloring import Coloring, build_coloring, distinct_raws, distinct_zeros, goodness, repeated
from .geometry import check_a, squared_volume
from .rainbow import BadEdgeWitness, ExtractionFailure, extract_rainbow
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
        return asdict(self)


def _checked_ids(pset, subset, a):
    """The subset's ids as a list; ValueError unless they are distinct ids of
    the set and 2 <= a <= d+1."""
    n = len(pset)
    ids = list(subset)
    if len(ids) != len(set(ids)):
        raise ValueError("subset ids must be distinct")
    if any(not 0 <= i < n for i in ids):
        raise ValueError("subset ids out of range")
    check_a(a, pset.dimension)
    return ids


def verify_subset(pset, subset, a, variant="h"):
    """Exact check of a candidate answer over all of its a-subsets.

    One scan stops at the first repeated volume (or, under h_prime, the
    first degenerate edge); the subset is valid exactly when it reads every
    edge.  Only a subset that fails is read again, to group its repeated
    volumes.
    """
    ids = sorted(_checked_ids(pset, subset, a))
    if len(ids) < a:
        raise ValueError(f"subset needs at least a={a} ids")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    coloring = Coloring(a, pset)
    zero_edges = distinct_zeros(coloring, None if len(ids) == len(pset) else ids, variant == "h_prime")
    if zero_edges is not None:
        return VerifyReport(True, [], zero_edges)
    zero_edges, groups = repeated(coloring, ids)
    duplicates = [(coloring.volume_key(raw), edges) for raw, edges in sorted(groups.items())]
    return VerifyReport(False, duplicates, zero_edges)


def general_position_check(pset, a):
    """(True, None) iff every a-subset spans affine rank a-1; else a witness edge.

    Reads all C(n, a) edges at a >= 3 (`find`, after its h_prime scan fails),
    the first zero edge in combinations order the witness; none at a=2.
    """
    if a == 2:
        return True, None
    for edge, raw in Coloring(a, pset).raw_items():
        if raw == 0:
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


def _result(pset, req, subset, certificate, t, m_obs, trace, extra):
    """FindResult for a subset that find_subset then verifies."""
    stats = {
        "n": len(pset),
        "a": req.a,
        "d": pset.dimension,
        "mode": req.mode,
        "variant": req.variant,
    }
    stats.update(extra)
    return FindResult(list(subset), certificate, t, m_obs, list(trace), req.seed, stats)


def _run(pset, req):
    """One search level on pset: a FindResult, or an ExtractionFailure.

    The whole set answers when `distinct_zeros` finds no repeated volume (nor,
    under h_prime, a zero: general position, else a witness is sought); with
    one edge per class, goodness with cap 0 gives m = 1.  Otherwise t follows
    the class budget (the request's m, else the level default), or in auto
    mode the observed goodness m_obs, and one extraction runs, watching for
    bad edges only when m_obs exceeds the budget: otherwise no class anywhere
    does.  A bad edge hands on its locus: at a=2 with depth left its sphere is
    the next level; at a=d+1 under variant h a hyperplane side of t points
    answers "all_zero".  When neither answers, t follows m_obs (no `m_budget`
    stat) and an unwatched extraction resumes after the witness's sample.
    """
    a = req.a
    n = len(pset)
    depth = req.recursion_depth_cap
    coloring = build_coloring(pset, a)
    rainbow = distinct_zeros(coloring, None, req.variant == "h_prime") is not None
    if not rainbow and req.variant == "h_prime":
        ok, witness = general_position_check(pset, a)
        if not ok:
            raise GeneralPositionError(witness)
    m_obs = goodness(coloring, 0 if rainbow else None).observed_m
    budget = None if req.mode == "auto" else req.m or _level_budget(n, a)
    t = _target_t(n, m_obs if budget is None else budget, a, req.t_override)
    if rainbow:
        return _result(pset, req, list(range(n)), "rainbow", t, m_obs, [], {"whole_set": True})
    extra = {} if budget is None else {"m_budget": budget}
    watch = budget if budget is not None and m_obs > budget else None
    outcome = extract_rainbow(coloring, t, req.seed, req.max_retries, watch)
    if isinstance(outcome, BadEdgeWitness):
        witness = outcome
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
            child = _run(pset.subset(carried), child_req)
            if isinstance(child, ExtractionFailure):
                return child
            mapped = [carried[v] for v in child.subset]
            trace = [{"locus": "sphere", "ids": carried}] + [
                {"locus": e["locus"], "ids": [carried[v] for v in e["ids"]]}
                for e in child.recursion_trace
            ]
            extra["child_stats"] = child.stats
            return _result(pset, req, mapped, child.certificate, t, m_obs, trace, extra)
        if a == pset.dimension + 1 and a >= 3 and req.variant == "h":
            pos, neg = coloring.sides(witness.tuple_ids, witness.extensions)
            larger = pos if len(pos) >= len(neg) else neg
            if len(larger) >= t:
                side = sorted(larger)
                trace = [{"locus": "hyperplane", "ids": side}]
                extra["side_size"] = len(side)
                return _result(pset, req, side[:t], "all_zero", t, m_obs, trace, extra)
        t = _target_t(n, m_obs, a, req.t_override)
        extra = {}
        outcome = extract_rainbow(coloring, t, req.seed, req.max_retries, first=witness.attempt + 1)
    if isinstance(outcome, ExtractionFailure):
        return outcome
    extra["retries_used"] = outcome.retries_used
    extra["conflicts_in_accepted_sample"] = outcome.conflicts_in_accepted_sample
    return _result(pset, req, outcome.subset, "rainbow", t, m_obs, [], extra)


def find_subset(pset, req):
    """Search the point set for a subset with pairwise distinct simplex volumes.

    Returns FindResult (whose subset always passes verify_subset) or an
    ExtractionFailure with the best sample's diagnostics.  Raises
    GeneralPositionError when `_run`'s h_prime scan meets a degenerate input
    and ValueError on malformed requests.
    """
    if req.mode not in MODES:
        raise ValueError(f"unknown mode {req.mode!r}")
    if req.mode == "fixed_m" and req.m is None:
        raise ValueError("fixed_m mode requires m")
    if req.mode == "auto" and (req.m is not None or req.recursion_depth_cap is not None):
        raise ValueError("auto mode reads neither m nor recursion_depth_cap")
    if req.variant not in VARIANTS:
        raise ValueError(f"unknown variant {req.variant!r}")
    if req.max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if req.t_override is not None and req.t_override < 1:
        raise ValueError("t_override must be >= 1")
    if req.m is not None and req.m < 1:
        raise ValueError("m must be >= 1")
    if req.a >= 3 and req.recursion_depth_cap is not None:
        raise ValueError("recursion_depth_cap caps the a=2 sphere recursion; a >= 3 reads none")
    if req.recursion_depth_cap is None:
        req = replace(req, recursion_depth_cap=pset.dimension)
    elif req.recursion_depth_cap < 0:
        raise ValueError("recursion_depth_cap must be >= 0")
    result = _run(pset, req)
    # verified once, on the input set; a recursion's answer is not checked on its child set
    if isinstance(result, FindResult) and not verify_subset(
        pset, result.subset, req.a, req.variant
    ).valid:
        raise RuntimeError("internal error: search produced an invalid subset")
    return result


# ---------------------------------------------------------------------------
# exhaustive oracle and greedy growth

def brute_force_max(pset, a, variant="h", max_points=None):
    """Lexicographically least maximum valid subset, by exhaustive search.

    Sizes are tried from n downward, candidates of one size in lexicographic
    order, so the answer is deterministic; a size below a holds no a-subset
    and always passes.  Guarded to small n (default 12 for a=2, 10 for a=3,
    9 otherwise) because the scan is exponential.
    """
    n = len(pset)
    check_a(a, pset.dimension)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    limit = (
        max_points
        if max_points is not None
        else DEFAULT_ORACLE_LIMITS.get(a, _ORACLE_FALLBACK_LIMIT)
    )
    if n > limit:
        raise ValueError(f"exhaustive search capped at {limit} points for a={a}")
    dets = dict(Coloring(a, pset).raw_items())
    no_zeros = variant == "h_prime"
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            seen = {0} if no_zeros else set()  # distinct_raws' rule, edge by edge
            for raw in map(dets.__getitem__, combinations(combo, a)):
                if raw in seen:  # a repeated nonzero raw, or 0 under h_prime
                    break
                if raw:
                    seen.add(raw)
            else:
                return list(combo)


def greedy_augment(pset, subset, a, variant="h"):
    """Grow a valid subset by repeatedly adding the smallest id that keeps it valid.

    Seeds smaller than a are allowed: with no a-subsets inside they are
    trivially valid.  One anchor row is kept per (a-1)-tuple of the chosen
    set, so a candidate's edges into the set are one read per row.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    chosen = sorted(_checked_ids(pset, subset, a))
    coloring = Coloring(a, pset)
    seen = set()  # the nonzero raws inside the chosen set
    if distinct_zeros(coloring, chosen, variant == "h_prime", seen) is None:
        raise ValueError("input subset fails verification")
    rows = [coloring.row(anchor) for anchor in combinations(chosen, a - 1)]
    # an id rejected once stays rejected, since its repeated or zero volume
    # stays inside every larger set: one ascending pass adds the same ids as
    # a rescan from id 0 after every addition
    for v in range(len(pset)):
        if v in chosen:
            continue
        fresh = set()  # the nonzero raws of v's edges into the chosen set
        raws = [row[v] for row in rows]
        if distinct_raws(fresh, raws, variant == "h_prime") is not None and seen.isdisjoint(fresh):
            rows += [coloring.row(anchor + (v,)) for anchor in combinations(chosen, a - 2)]
            seen |= fresh
            chosen.append(v)
    return sorted(chosen)
