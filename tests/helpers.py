"""Shared independent oracles for the test suite.

Everything here is deliberately naive: straight Fraction arithmetic, full
enumeration, no reuse of the package's determinant or coloring machinery
beyond consuming its public outputs.
"""

from fractions import Fraction
from itertools import combinations, permutations


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


def global_same_color_pairs(coloring):
    """All unordered pairs of distinct same-volume-colored edges in the whole
    coloring, tallied by shared-vertex count s."""
    groups = {}
    for edge, key in coloring.colors.items():
        if key.kind != "volume":
            continue
        groups.setdefault(key, []).append(edge)
    per_s = {}
    for edges in groups.values():
        for e1, e2 in combinations(edges, 2):
            s = len(set(e1) & set(e2))
            per_s[s] = per_s.get(s, 0) + 1
    return per_s


def volume_census(coords, a):
    """Exact squared volume of every a-subset of ids, edge -> Fraction.

    Squared distances at a=2 in any dimension, shoelace areas at a=3 in the
    plane.
    """
    n = len(coords)
    if a == 2:
        return {
            e: sq_dist(coords[e[0]], coords[e[1]])
            for e in combinations(range(n), 2)
        }
    if a == 3:
        assert len(coords[0]) == 2
        return {
            e: tri_area_sq(coords[e[0]], coords[e[1]], coords[e[2]])
            for e in combinations(range(n), 3)
        }
    raise ValueError("oracle handles a in (2, 3) only")


def reference_goodness(coords, a, cap=None):
    """(observed_m, witness_tuple, (num, den), extensions) from the census.

    Every nonzero volume class is collected per (anchor, reduced volume).  The
    witness is the least (anchor, (num, den)) among the classes of maximum
    size.  With cap, only the first anchor in lexicographic order holding a
    class larger than cap competes, when there is one.
    """
    classes = {}
    for edge, vol in volume_census(coords, a).items():
        if vol == 0:
            continue
        for v in edge:
            anchor = tuple(u for u in edge if u != v)
            classes.setdefault((anchor, (vol.numerator, vol.denominator)), []).append(v)
    if cap is not None:
        for anchor in combinations(range(len(coords)), a - 1):
            mine = {k: ext for k, ext in classes.items() if k[0] == anchor}
            if any(len(ext) > cap for ext in mine.values()):
                classes = mine
                break
    best = max(len(ext) for ext in classes.values())
    anchor, key = min(k for k, ext in classes.items() if len(ext) == best)
    return best, anchor, key, sorted(classes[anchor, key])


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
