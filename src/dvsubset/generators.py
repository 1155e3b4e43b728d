"""Point-set builders: grids, parallel lines, circles, and random instances.

Each generator is deterministic; the seeded ones draw through SplitMix64 so
the same seed rebuilds the same set on any platform.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .geometry import PointSet
from .rng import SplitMix64

GRID_BUDGET = 1_000_000


def gen_grid(d, side):
    """Integer grid {0..side-1}^d, ids in row-major order, at most GRID_BUDGET points."""
    if d < 1 or side < 1:
        raise ValueError("need d >= 1 and side >= 1")
    if side**d > GRID_BUDGET:
        raise ValueError(f"grid of {side}^{d} points exceeds budget {GRID_BUDGET}")
    return PointSet(d, [tuple(p) for p in product(range(side), repeat=d)])


def gen_parallel_lines(d, n):
    """n points split over d parallel lines in direction e_d.

    The lines pass through the origin and the first d-1 unit vectors; the
    first n mod d lines carry one extra point.  Points on a line are unit
    spaced, ids run line by line.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < d:
        raise ValueError("need n >= d")
    bases = [tuple(0 for _ in range(d))]
    for i in range(d - 1):
        base = [0] * d
        base[i] = 1
        bases.append(tuple(base))
    quota, extra = divmod(n, d)
    rows = []
    for line, base in enumerate(bases):
        count = quota + (1 if line < extra else 0)
        for k in range(count):
            row = list(base)
            row[-1] += k
            rows.append(tuple(row))
    return PointSet(d, rows)


def gen_random(d, n, coord_bound, seed):
    """n distinct points with numerators uniform in [0, coord_bound] over the
    common denominator coord_bound**2. Duplicates are re-drawn."""
    if d < 1 or n < 1 or coord_bound < 1:
        raise ValueError("need d >= 1, n >= 1, coord_bound >= 1")
    if (coord_bound + 1) ** d < n:
        raise ValueError(
            f"only {(coord_bound + 1) ** d} distinct points available, need {n}"
        )
    den = coord_bound**2
    rng = SplitMix64(seed)
    rows = []
    seen = set()
    while len(rows) < n:
        tup = tuple(rng.below(coord_bound + 1) for _ in range(d))
        if tup in seen:
            continue
        seen.add(tup)
        rows.append(tuple(Fraction(x, den) for x in tup))
    return PointSet(d, rows)


def circle_point(u):
    """Rational point on the unit circle: ((1-u^2)/(1+u^2), 2u/(1+u^2))."""
    u = Fraction(u)
    den = 1 + u * u
    return ((1 - u * u) / den, 2 * u / den)


def gen_sphere2d(n):
    """n rational points on the unit circle (parameters u = 0, 1, 2, ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PointSet(2, [circle_point(u) for u in range(n)])


def _plus_noise(rows, n_noise, seed, coord_bound, keep=lambda p: True):
    """rows and n_noise seeded random plane points new to them, numerators
    uniform in [0, coord_bound] over coord_bound**2; draws that repeat a
    point or fail `keep` are re-drawn."""
    den = coord_bound**2
    rng = SplitMix64(seed)
    key = Fraction.as_integer_ratio  # integer (num, den) pairs hash cheaply
    seen = {tuple(map(key, p)) for p in rows}
    total = len(rows) + n_noise
    while len(rows) < total:
        tup = (
            Fraction(rng.below(coord_bound + 1), den),
            Fraction(rng.below(coord_bound + 1), den),
        )
        if not keep(tup) or (tup_key := tuple(map(key, tup))) in seen:
            continue
        seen.add(tup_key)
        rows.append(tup)
    return PointSet(2, rows)


def gen_cocircular_plus_noise(n_circle, n_noise, seed, coord_bound=10**6):
    """The origin, n_circle points at exact squared distance 1 from it, and
    n_noise seeded random points; more than the grid holds is a ValueError."""
    if n_circle < 1 or n_noise < 0 or coord_bound < 1:
        raise ValueError("need n_circle >= 1, n_noise >= 0, coord_bound >= 1")
    rows = [(Fraction(0), Fraction(0))]
    rows.extend(circle_point(u) for u in range(n_circle))
    # the noise grid holds the origin, and circle points only at coord_bound 1: (1, 0) and (0, 1)
    free = (coord_bound + 1) ** 2 - 1 - (coord_bound == 1) * min(n_circle, 2)
    if n_noise > free:
        raise ValueError(f"only {free} grid points are free for noise, need {n_noise}")
    return _plus_noise(rows, n_noise, seed, coord_bound)


def gen_collinear(n_line, n_noise=0, seed=0, coord_bound=10**6):
    """n_line unit-spaced points on the x-axis plus n_noise points off it;
    more than the grid holds off the axis is a ValueError."""
    if n_line < 2 or n_noise < 0 or coord_bound < 1:
        raise ValueError("need n_line >= 2, n_noise >= 0, coord_bound >= 1")
    if n_noise > (free := (coord_bound + 1) * coord_bound):  # the grid minus its row y = 0
        raise ValueError(f"only {free} grid points lie off the line, need {n_noise}")
    rows = [(Fraction(k), Fraction(0)) for k in range(n_line)]
    return _plus_noise(rows, n_noise, seed, coord_bound, keep=lambda p: p[1] != 0)
