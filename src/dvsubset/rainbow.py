"""Random-sample rainbow extraction with conflict deletion and bad-edge scans.

The sampling game: draw about 2t vertices, count pairs of same-colored edges
inside the sample, and if there are at most t of them delete one vertex per
pair to leave a rainbow subset of size >= t.  With ground sets of size
n >= 4*m*t^(2a-1) the expected pair count is at most 4*m*t^(2a)/n <= t, so a
handful of retries succeeds with high probability.  The bounds themselves
live in `bounds`; this module only plays the game.

With a class budget m to watch for, each sample is first scanned for a
"bad" edge: one whose (a-1)-tuple sits in more than m same-colored edges over
the whole ground set.  Such a witness hands the caller a large structured set
(a sphere or a hyperplane locus) to recurse into instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations

from .coloring import ColorKey, _largest_class, distinct_zeros, repeated
from .rng import SplitMix64, derive_seed


@dataclass
class ConflictStats:
    sample: list
    pairs: list  # (edge1, edge2, intersection_size), edges sorted id tuples
    per_s_counts: list  # indexed by s = 0..a-1

    @property
    def count(self):
        return len(self.pairs)


@dataclass
class RainbowResult:
    subset: list
    retries_used: int
    conflicts_in_accepted_sample: int


@dataclass
class BadEdgeWitness:
    edge: tuple
    tuple_ids: tuple
    color: ColorKey
    extensions: list
    attempt: int = 0  # the extraction attempt whose sample held the edge


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


def _conflicts_within(coloring, ids):
    """All unordered pairs of same-colored edges inside ids, with per-s tallies."""
    pairs = []
    per_s = [0] * coloring.a
    for edges in repeated(coloring, ids)[1].values():
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

    A vertex covers a pair if it lies in either edge, and the vertex covering
    the most live pairs goes first; ties break to the smallest id so the
    result is deterministic.  Counts drop as pairs die, and a lazy max-heap
    on (count, -id) skips the entries whose count has dropped since.
    """
    covers = [set(e1) | set(e2) for e1, e2, _ in pairs]
    pairs_of = {}
    for k, verts in enumerate(covers):
        for v in verts:
            pairs_of.setdefault(v, []).append(k)
    count = {v: len(ks) for v, ks in pairs_of.items()}
    heap = [(-c, v) for v, c in count.items()]
    heapify(heap)
    alive = set(sample)
    while heap:
        c, victim = heappop(heap)
        if -c != count[victim]:
            continue
        alive.discard(victim)
        for k in pairs_of[victim]:
            for v in covers[k]:
                count[v] -= 1
                if count[v]:
                    heappush(heap, (-count[v], v))
            covers[k] = ()  # the pair is dead
    return sorted(alive)


def extract_rainbow(coloring, t, seed, max_retries=64, watch=None, first=0):
    """Las-Vegas search for a rainbow subset of size >= t.

    Draws samples of size min(2t, n) with deterministic per-attempt seeds,
    derive_seed(seed, attempt) for max_retries attempts from `first` on,
    accepts the first whose same-color pair count is at most min(t, size-t),
    and deletes one vertex per conflicting pair.  Returns RainbowResult, or
    ExtractionFailure carrying the best sample seen, whose redraws (every one
    when 2t >= n) count but are not scanned again.  t <= a is trivially
    rainbow (no two a-edges fit), so the first t ids are returned outright.

    `watch` is a class budget m, or None to watch for nothing; it never
    changes the acceptance rule.  Watching, each sample is first scanned by
    find_bad_edge, and the first (a-1)-tuple whose volume class over the full
    ground set exceeds m is returned as a BadEdgeWitness that names its
    attempt.
    """
    n = len(coloring.pset)
    a = coloring.a
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < t:
        raise ValueError(f"need n >= t, got n={n}, t={t}")
    if t <= a:
        return RainbowResult(list(range(t)), 0, 0)
    size = min(2 * t, n)
    accept = min(t, size - t)
    best = None
    seeds_tried = []
    for attempt in range(first, first + max_retries):
        attempt_seed = derive_seed(seed, attempt)
        seeds_tried.append(attempt_seed)
        ids = SplitMix64(attempt_seed).sample(n, size)
        if best is not None and ids == best.sample:
            continue  # already scanned: no bad edge, too many conflicts
        if watch is not None:
            witness = find_bad_edge(coloring, ids, watch)
            if witness is not None:
                assert len(witness.extensions) > watch
                witness.attempt = attempt
                return witness
        pairs, per_s = _conflicts_within(coloring, ids)
        stats = ConflictStats(ids, pairs, per_s)
        if len(pairs) <= accept:
            subset = _delete_conflicts(ids, pairs)
            assert distinct_zeros(coloring, subset) is not None, "deletion left a repeated volume"
            assert len(subset) >= t
            return RainbowResult(subset, attempt, len(pairs))
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
    found = _largest_class(coloring, combinations(sorted(ids), coloring.a - 1), cap=m)
    if found is None or found[0] <= m:
        return None
    _, anchor, key, extensions = found
    edge = tuple(sorted(anchor + (extensions[0],)))
    return BadEdgeWitness(edge, anchor, key, extensions)
