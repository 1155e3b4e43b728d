"""Random-sample rainbow extraction with conflict deletion and bad-edge scans.

The sampling game: draw about 2t vertices, count pairs of same-colored edges
inside the sample, and if there are at most t of them delete one vertex per
pair to leave a rainbow subset of size >= t.  With ground sets of size
n >= 4*m*t^(2a-1) the expected pair count is at most 4*m*t^(2a)/n <= t, so a
handful of retries succeeds with high probability.

With watch=True each sample is first scanned for a "bad" edge: one whose
(a-1)-tuple sits in more than m same-colored edges over the whole ground set.
Such a witness hands the caller a large structured set (a sphere or a
hyperplane locus) to recurse into instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

from .coloring import ColorKey, anchor_classes, largest_class
from .rng import SplitMix64, derive_seed


@dataclass
class ConflictStats:
    sample: list
    pairs: list  # (edge1, edge2, intersection_size), edges sorted id tuples
    per_s_counts: list  # indexed by s = 0..a-1

    @property
    def count(self):
        return len(self.pairs)

    def to_json(self):
        return {
            "sample": list(self.sample),
            "pairs": [[list(e1), list(e2), s] for e1, e2, s in self.pairs],
            "per_s_counts": list(self.per_s_counts),
        }


@dataclass
class RainbowResult:
    subset: list
    retries_used: int
    seed: int
    conflicts_in_accepted_sample: int

    def to_json(self):
        return {
            "subset": list(self.subset),
            "retries_used": self.retries_used,
            "seed": self.seed,
            "conflicts_in_accepted_sample": self.conflicts_in_accepted_sample,
        }


@dataclass
class BadEdgeWitness:
    edge: tuple
    tuple_ids: tuple
    color: ColorKey
    extensions: list

    def to_json(self):
        return {
            "edge": list(self.edge),
            "tuple": list(self.tuple_ids),
            "color": self.color.to_json(),
            "extensions": list(self.extensions),
        }


@dataclass
class ExtractionFailure:
    attempts: int
    best_stats: ConflictStats
    seeds_tried: list = field(default_factory=list)

    def to_json(self):
        return {
            "failure": True,
            "attempts": self.attempts,
            "best_sample": list(self.best_stats.sample),
            "pair_count": self.best_stats.count,
            "per_s_counts": list(self.best_stats.per_s_counts),
            "seeds_tried": list(self.seeds_tried),
        }


def expected_conflict_bound(n, k, m, t):
    """Exact bound 4*m*t^(2k)/n on the expected same-color pair count in a sample."""
    if n < 1 or k < 2 or m < 1 or t < 1:
        raise ValueError("need n >= 1, k >= 2, m >= 1, t >= 1")
    return Fraction(4 * m * t ** (2 * k), n)


def as_upper(k, m, n, s):
    """Bound m*n^(2k-s-1) / (2*s!*((k-s)!)^2) on same-color edge pairs sharing s vertices."""
    if not 0 <= s <= k - 1:
        raise ValueError(f"s must be in 0..{k - 1}")
    if k < 2 or m < 1 or n < 1:
        raise ValueError("need k >= 2, m >= 1, n >= 1")
    return Fraction(m * n ** (2 * k - s - 1), 2 * factorial(s) * factorial(k - s) ** 2)


def _conflicts_within(coloring, ids):
    """All unordered pairs of same-colored edges inside ids, with per-s tallies."""
    a = coloring.a
    groups = {}
    for edge, raw in coloring.raw_items(ids):
        if raw:
            groups.setdefault(raw, []).append(edge)
    pairs = []
    per_s = [0] * a
    for edges in groups.values():
        if len(edges) < 2:
            continue
        for e1, e2 in combinations(edges, 2):
            s = len(set(e1) & set(e2))
            pairs.append((e1, e2, s))
            per_s[s] += 1
    return pairs, per_s


def sample_conflicts(coloring, t, seed):
    """Draw 2t ids without replacement and enumerate same-color edge pairs."""
    n = len(coloring.pset)
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 2 * t:
        raise ValueError(f"need n >= 2t, got n={n}, t={t}")
    ids = SplitMix64(seed).sample(n, 2 * t)
    pairs, per_s = _conflicts_within(coloring, ids)
    return ConflictStats(ids, pairs, per_s)


def _delete_conflicts(sample, pairs):
    """Greedy max-coverage deletion: kill every pair, fewest vertices first.

    A vertex covers a pair if it lies in either edge; ties break to the
    smallest id so the result is deterministic.
    """
    alive = set(sample)
    remaining = list(pairs)
    while remaining:
        cover = {}
        for e1, e2, _ in remaining:
            for v in set(e1) | set(e2):
                cover[v] = cover.get(v, 0) + 1
        victim = max(cover, key=lambda v: (cover[v], -v))
        alive.discard(victim)
        remaining = [
            (e1, e2, s)
            for e1, e2, s in remaining
            if victim not in e1 and victim not in e2
        ]
    return sorted(alive)


def extract_rainbow(coloring, t, m, seed, max_retries=64, watch=False):
    """Las-Vegas search for a rainbow subset of size >= t.

    Draws samples of size min(2t, n) with deterministic per-attempt seeds,
    accepts the first whose same-color pair count is at most min(t, size-t),
    and deletes one vertex per conflicting pair.  Returns RainbowResult, or
    ExtractionFailure carrying the best sample seen.  t <= a is trivially
    rainbow (no two a-edges fit), so the first t ids are returned outright.

    The budget m is not used by the acceptance rule.  With watch=True each
    sample is first scanned by find_bad_edge, and the first (a-1)-tuple whose
    volume class over the full ground set exceeds m is returned as a
    BadEdgeWitness.
    """
    n = len(coloring.pset)
    a = coloring.a
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    if t <= a:
        return RainbowResult(list(range(t)), 0, seed, 0)
    size = min(2 * t, n)
    accept = min(t, size - t)
    best = None
    seeds_tried = []
    for attempt in range(max_retries):
        attempt_seed = derive_seed(seed, attempt)
        seeds_tried.append(attempt_seed)
        ids = SplitMix64(attempt_seed).sample(n, size)
        if watch:
            witness = find_bad_edge(coloring, ids, m)
            if witness is not None:
                assert len(witness.extensions) > m
                return witness
        pairs, per_s = _conflicts_within(coloring, ids)
        stats = ConflictStats(ids, pairs, per_s)
        if len(pairs) <= accept:
            subset = _delete_conflicts(ids, pairs)
            leftover, _ = _conflicts_within(coloring, subset)
            assert not leftover, "deletion left a same-colored edge pair"
            assert len(subset) >= t
            return RainbowResult(subset, attempt, seed, len(pairs))
        if best is None or len(pairs) < len(best.pairs):
            best = stats
    return ExtractionFailure(max_retries, best, seeds_tried)


def find_bad_edge(coloring, ids, m):
    """First (a-1)-tuple inside ids whose volume class over the whole ground
    set exceeds m; None when every class is small.

    Tuples are scanned in lexicographic order, one anchor row of n values
    each; among a tuple's oversized classes the largest wins, ties to the
    smaller color key.
    """
    for anchor in combinations(sorted(ids), coloring.a - 1):
        row, counts, size = anchor_classes(coloring, anchor)
        if size > m:
            key, extensions = largest_class(coloring, row, counts, size)
            edge = tuple(sorted(anchor + (extensions[0],)))
            return BadEdgeWitness(edge, anchor, key, extensions)
    return None
