"""Independent exact checker for benchmark answers.

It recomputes every squared simplex volume from the Fraction coordinates the
benchmark generated, with its own arithmetic: each point is cleared to an
integer vector over its own denominator, and the Gram determinant of the
difference vectors is expanded over permutations.  It shares no code with
dvsubset's volume routes (`edge_gram_det`, `det_bareiss`, `det_laplace`) or
with `verify_subset`, so optimising those cannot also bend the check.

Each function returns None when the answer holds and a one-line reason when
it does not.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, lcm


def clear(point):
    """(integer vector, denominator) with point == vector / denominator."""
    den = lcm(*(c.denominator for c in point))
    return tuple(c.numerator * (den // c.denominator) for c in point), den


@lru_cache(maxsize=None)
def _signed_permutations(k):
    out = []
    for perm in permutations(range(k)):
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def _det(rows):
    total = 0
    for perm, sign in _signed_permutations(len(rows)):
        prod = sign
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def squared_volume(cleared):
    """Exact squared (a-1)-volume of the simplex on a cleared points."""
    (p0, d0), rest = cleared[0], cleared[1:]
    diffs = []
    scale = 1
    for p, dp in rest:
        # (p/dp - p0/d0) * dp * d0, an integer vector
        diffs.append([x * d0 - y * dp for x, y in zip(p, p0)])
        scale *= dp * d0
    gram = [[sum(x * y for x, y in zip(u, v)) for v in diffs] for u in diffs]
    k = len(diffs)
    return Fraction(_det(gram), factorial(k) ** 2 * scale**2)


def check_subset(rows, a, subset, certificate, variant="h"):
    """Check a find answer against the meaning of its certificate.

    rainbow: nonzero volumes inside the subset are pairwise distinct (and,
    for variant h_prime, none is zero); all_zero: every simplex is
    degenerate.
    """
    ids = list(subset)
    if len(set(ids)) != len(ids):
        return "subset repeats an id"
    if any(not (isinstance(i, int) and 0 <= i < len(rows)) for i in ids):
        return "subset id out of range"
    if certificate not in ("rainbow", "all_zero"):
        return f"unknown certificate {certificate!r}"
    cleared = [clear(rows[i]) for i in sorted(ids)]
    seen = {}
    for edge in combinations(range(len(cleared)), a):
        vol = squared_volume([cleared[i] for i in edge])
        if certificate == "all_zero":
            if vol != 0:
                return f"all_zero answer has a simplex of squared volume {vol}"
        elif vol == 0:
            if variant == "h_prime":
                return "h_prime answer has a degenerate simplex"
        elif vol in seen:
            return f"squared volume {vol} repeats"
        else:
            seen[vol] = edge
    return None


def check_routes(points, gram, cm, rank):
    """Both routes give the recomputed volume; zero exactly when rank < a-1."""
    a = len(points)
    vol = squared_volume([clear(p) for p in points])
    if gram != vol:
        return f"squared_volume gave {gram}, expected {vol}"
    if cm != vol:
        return f"squared_volume_cm gave {cm}, expected {vol}"
    if (vol == 0) != (rank < a - 1):
        return f"volume {vol} disagrees with affine rank {rank} at a={a}"
    return None
