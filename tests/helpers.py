"""Shared independent oracles for the test suite.

Everything here is deliberately naive: straight Fraction arithmetic, full
enumeration, no reuse of the package's determinant or coloring machinery
beyond consuming its public outputs.  `judge` alone calls the package's two
single-simplex volume routes, Gram and Cayley-Menger, which must agree;
neither reads the coloring's rows that `find` and `verify_subset` read.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from dvsubset.geometry import squared_volume, squared_volume_cm


def frac_coords(rows):
    return [tuple(Fraction(c) for c in row) for row in rows]


def sq_dist(p, q):
    return sum((x - y) ** 2 for x, y in zip(p, q))


def tri_area_sq(p, q, r):
    """Squared triangle area by the shoelace cross product, 2-D only."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])
    return Fraction(cross * cross, 4)


def det_perm_expansion(rows):
    """Determinant as the signed sum over all permutations; tiny matrices only."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += -prod if inversions % 2 else prod
    return total


def pair_distance_census(coords):
    """Multiset of exact squared pairwise distances, as a value -> count dict."""
    census = {}
    for p, q in combinations(coords, 2):
        v = sq_dist(p, q)
        census[v] = census.get(v, 0) + 1
    return census


def edge_colors(coloring):
    """{edge: color_of(edge)} over every edge, in combinations order."""
    n = len(coloring.pset)
    return {edge: coloring.color_of(edge) for edge in combinations(range(n), coloring.a)}


def extensions_of_color(coloring, anchor, key):
    """Ids v outside anchor whose edge anchor + (v,) has color key, ascending,
    by one color_of per extension."""
    return [
        v
        for v in range(len(coloring.pset))
        if v not in anchor and coloring.color_of(anchor + (v,)) == key
    ]


def global_same_color_pairs(coloring):
    """All unordered pairs of distinct same-volume-colored edges in the whole
    coloring, tallied by shared-vertex count s."""
    groups = {}
    for edge, key in edge_colors(coloring).items():
        if key.kind != "volume":
            continue
        groups.setdefault(key, []).append(edge)
    per_s = {}
    for edges in groups.values():
        for e1, e2 in combinations(edges, 2):
            s = len(set(e1) & set(e2))
            per_s[s] = per_s.get(s, 0) + 1
    return per_s


def gram_volume_sq(points):
    """Squared simplex volume det(G) / ((a-1)!)^2, G the Gram matrix of the
    differences from the first point, by permutation expansion."""
    base = points[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    gram = [[sum(x * y for x, y in zip(u, v)) for v in diffs] for u in diffs]
    return Fraction(det_perm_expansion(gram), factorial(len(diffs)) ** 2)


def volume_census(coords, a):
    """Exact squared volume of every a-subset of ids, edge -> Fraction.

    Squared distances at a=2 in any dimension, shoelace areas at a=3 in the
    plane, and Gram determinants by permutation expansion otherwise.
    """
    n = len(coords)
    if a == 2:
        return {
            e: sq_dist(coords[e[0]], coords[e[1]])
            for e in combinations(range(n), 2)
        }
    if a == 3 and len(coords[0]) == 2:
        return {
            e: tri_area_sq(coords[e[0]], coords[e[1]], coords[e[2]])
            for e in combinations(range(n), 3)
        }
    return {e: gram_volume_sq([coords[i] for i in e]) for e in combinations(range(n), a)}


def census_classes(coords, a):
    """Every nonzero volume class from the census, (anchor, (num, den)) ->
    extension ids."""
    classes = {}
    for edge, vol in volume_census(coords, a).items():
        if vol == 0:
            continue
        for v in edge:
            anchor = tuple(u for u in edge if u != v)
            classes.setdefault((anchor, (vol.numerator, vol.denominator)), []).append(v)
    return classes


def reference_goodness(coords, a, cap=None):
    """(observed_m, witness_tuple, (num, den), extensions) from the census.

    Every nonzero volume class is collected per (anchor, reduced volume).  The
    witness is the least (anchor, (num, den)) among the classes of maximum
    size.  With cap, only the first anchor in lexicographic order holding a
    class larger than cap competes, when there is one.
    """
    classes = census_classes(coords, a)
    if cap is not None:
        for anchor in combinations(range(len(coords)), a - 1):
            mine = {k: ext for k, ext in classes.items() if k[0] == anchor}
            if any(len(ext) > cap for ext in mine.values()):
                classes = mine
                break
    best = max(len(ext) for ext in classes.values())
    anchor, key = min(k for k, ext in classes.items() if len(ext) == best)
    return best, anchor, key, sorted(classes[anchor, key])


def reference_bad_edge(coords, a, ids, m):
    """(edge, tuple, (num, den), extensions) from the census, or None.

    The tuple is the lexicographically first (a-1)-tuple of sorted ids whose
    largest nonzero volume class over the whole set exceeds m.  Among its
    classes of that size the least reduced (num, den) wins, as in
    reference_goodness, and the edge is the tuple plus the first extension.
    """
    classes = census_classes(coords, a)
    for anchor in combinations(sorted(ids), a - 1):
        mine = {k[1]: ext for k, ext in classes.items() if k[0] == anchor}
        best = max(map(len, mine.values()), default=0)
        if best > m:
            key = min(k for k, ext in mine.items() if len(ext) == best)
            ext = sorted(mine[key])
            return tuple(sorted(anchor + (ext[0],))), anchor, key, ext
    return None


def slow_max_distinct(coords, a, variant="h"):
    """Exhaustive maximum distinct-volume subset, fully independent volume code.

    Supports a=2 in any dimension (squared distances) and a=3 in the plane
    (shoelace areas).  Returns the lexicographically least maximum subset.
    """
    n = len(coords)
    value = volume_census(coords, a)

    def ok(combo):
        seen = set()
        for e in combinations(combo, a):
            v = value[e]
            if v == 0:
                if variant == "h_prime":
                    return False
                continue
            if v in seen:
                return False
            seen.add(v)
        return True

    for size in range(n, a - 1, -1):
        for combo in combinations(range(n), size):
            if ok(combo):
                return list(combo)
    return list(range(min(n, a - 1)))


def first_fit_growth(n, subset, valid):
    """Reference greedy growth over ids 0..n-1: while some id outside the set
    keeps valid(sorted ids) true, add the smallest such id, rescanning from 0."""
    chosen = sorted(subset)
    while True:
        for v in range(n):
            if v not in chosen and valid(sorted(chosen + [v])):
                chosen = sorted(chosen + [v])
                break
        else:
            return chosen


def census_verify(coords, a, ids, variant="h"):
    """(valid, groups, zero count) for the edges inside ids, from the census.

    groups is [((num, den), edges)] for every repeated nonzero volume, by
    ascending volume, each with its edges in combinations order of the
    sorted ids.  valid means no group and, under h_prime, no zero edge.
    """
    ids = sorted(ids)
    census = volume_census([coords[i] for i in ids], a)
    by_volume = {}
    zeros = 0
    for edge, vol in census.items():
        if vol == 0:
            zeros += 1
        else:
            by_volume.setdefault(vol, []).append(tuple(ids[p] for p in edge))
    groups = [
        ((vol.numerator, vol.denominator), edges)
        for vol, edges in sorted(by_volume.items())
        if len(edges) > 1
    ]
    valid = not groups and (variant == "h" or zeros == 0)
    return valid, groups, zeros


def fraction_affine_rank(points):
    """Rank of the differences p_i - p_0 by Gaussian elimination on Fractions."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    rows = [[x - b for x, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / lead[col]
            rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        rank += 1
    return rank


def judge(pset, subset, a, variant, certificate):
    """Assert that a find answer holds its certificate, edge by edge.

    Every a-subset of the answer gets its squared volume from both
    `squared_volume` (Gram) and `squared_volume_cm` (Cayley-Menger), which
    must agree.  "rainbow": the nonzero volumes are pairwise distinct, and
    under h_prime none is zero.  "all_zero": every volume is zero, which
    answers variant h only.
    """
    ids = sorted(subset)
    assert len(set(ids)) == len(ids) and all(0 <= i < len(pset) for i in ids), subset
    volumes = []
    for edge in combinations(ids, a):
        points = [pset.coords(i) for i in edge]
        gram, cm = squared_volume(points), squared_volume_cm(points)
        assert gram == cm, (edge, gram, cm)
        volumes.append(gram)
    nonzero = [v for v in volumes if v]
    if certificate == "rainbow":
        assert len(set(nonzero)) == len(nonzero), "a nonzero volume repeats"
        assert variant == "h" or len(nonzero) == len(volumes), "a degenerate edge under h_prime"
    elif certificate == "all_zero":
        assert variant == "h" and not nonzero, (variant, nonzero)
    else:
        raise AssertionError(f"unknown certificate {certificate!r}")


def reference_delete_conflicts(sample, pairs):
    """Greedy max-coverage deletion, recounting cover over every remaining
    pair after each victim: the quadratic reference for `_delete_conflicts`.

    A vertex covers a pair if it lies in either edge; ties break to the
    smallest id.
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
