"""Exact rational points, point sets, and squared simplex volumes.

All coordinates are `fractions.Fraction` and every quantity derived from them
is exact; no floating point is used anywhere.  The squared (a-1)-dimensional
volume of the simplex on a points is computed two independent ways:

* `squared_volume` takes the Gram determinant of difference vectors on
  denominator-cleared integer coordinates (closed forms for a <= 3,
  fraction-free Bareiss elimination beyond), the kernel that
  `edge_gram_det` runs on a PointSet's cached integer copy;
* `squared_volume_cm` evaluates the bordered distance-matrix determinant,
  on denominator-cleared integer distances, by cofactor expansion.

The two routes share no determinant code on purpose: each checks the other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class Point(NamedTuple):
    id: int
    coords: tuple


def _coords_of(p):
    """Accept a Point or a bare coordinate sequence; return a Fraction tuple."""
    if isinstance(p, Point):
        return p.coords
    return tuple(Fraction(c) for c in p)


def _cleared(rows):
    """(s, rows * s) for s the lcm of every coordinate denominator: integer rows."""
    scale = math.lcm(*(c.denominator for r in rows for c in r))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in r) for r in rows]


class PointSet:
    """Ordered collection of distinct rational points in one dimension d.

    Ids are 0..n-1 in input order.  A denominator-cleared integer copy of the
    coordinates (one common multiplier for the whole set) is cached lazily;
    it is what the coloring and finder modules run their determinants on.
    """

    __slots__ = ("dimension", "points", "_scale", "_scaled")

    def __init__(self, dimension, rows):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        points = []
        seen = {}
        for i, row in enumerate(rows):
            coords = tuple(Fraction(c) for c in row)
            if len(coords) != dimension:
                raise ValueError(
                    f"point {i} has {len(coords)} coordinates, expected {dimension}"
                )
            if coords in seen:
                raise ValueError(f"duplicate point at ids {seen[coords]} and {i}")
            seen[coords] = i
            points.append(Point(i, coords))
        self.points = points
        self._scale = None
        self._scaled = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def coords(self, i):
        return self.points[i].coords

    def _ensure_scaled(self):
        if self._scaled is None:
            self._scale, self._scaled = _cleared([p.coords for p in self.points])

    @property
    def scale(self):
        self._ensure_scaled()
        return self._scale

    @property
    def scaled(self):
        """Integer coordinate vectors: scaled[i] == coords(i) * scale, exactly."""
        self._ensure_scaled()
        return self._scaled

    def subset(self, ids):
        """New PointSet on the given ids (re-numbered 0..len(ids)-1, input order)."""
        return PointSet(self.dimension, [self.points[i].coords for i in ids])


# ---------------------------------------------------------------------------
# determinants

def det_bareiss(rows):
    """Exact determinant of a square integer matrix, fraction-free elimination.

    Intermediate divisions are exact by Sylvester's identity, so everything
    stays in the integers.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def det_laplace(rows):
    """Determinant by cofactor expansion, oracle route for small matrices.

    Minors are memoized on their column set, so the cost is O(2^n * n)
    rather than O(n!).  No elimination and no division anywhere: this stays
    independent of det_bareiss.
    """
    n = len(rows)
    if n == 0:
        return 1
    rows = [list(r) for r in rows]
    memo = {}

    def minor(i, cols):
        # determinant of rows[i:] restricted to the columns in `cols`
        if len(cols) == 1:
            return rows[i][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        total = 0
        for pos, j in enumerate(cols):
            head = rows[i][j]
            if head == 0:
                continue
            term = head * minor(i + 1, cols[:pos] + cols[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        memo[cols] = total
        return total

    return minor(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# squared volumes

def _coords_list(points):
    """The points' coordinate tuples and their common dimension d."""
    pts = [_coords_of(p) for p in points]
    if not pts:
        raise ValueError("empty point list")
    d = len(pts[0])
    for c in pts[1:]:
        if len(c) != d:
            raise ValueError("points of mixed dimension")
    return pts, d


def _validated(points):
    pts, d = _coords_list(points)
    a = len(pts)
    if not 2 <= a <= d + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={d}")
    if len(set(pts)) != a:
        raise ValueError("points must be pairwise distinct")
    return pts, a, d


def _gram_det(vecs, ids):
    """Gram determinant of the differences vecs[i] - vecs[ids[-1]], i in ids[:-1].

    vecs are integer vectors; closed forms for one and two differences,
    Bareiss elimination beyond.
    """
    last = vecs[ids[-1]]
    if len(ids) == 2:
        return sum((x - y) * (x - y) for x, y in zip(vecs[ids[0]], last))
    diffs = [
        tuple(x - y for x, y in zip(vecs[i], last)) for i in ids[:-1]
    ]
    if len(diffs) == 2:
        u, v = diffs
        g00 = sum(x * x for x in u)
        g11 = sum(x * x for x in v)
        g01 = sum(x * y for x, y in zip(u, v))
        return g00 * g11 - g01 * g01
    gram = [[sum(x * y for x, y in zip(u, v)) for v in diffs] for u in diffs]
    return det_bareiss(gram)


def _gram_denominator(a, scale):
    """(a-1)!^2 * scale^(2(a-1)): turns an a-point Gram determinant on
    coordinates cleared by scale into the squared volume."""
    return math.factorial(a - 1) ** 2 * scale ** (2 * (a - 1))


def edge_gram_det(pset, edge):
    """Integer Gram determinant for an id tuple on a PointSet's scaled coords.

    The exact squared volume of the simplex on `edge` is this value divided
    by edge_det_denominator(pset, len(edge)).
    """
    return _gram_det(pset.scaled, edge)


def edge_det_denominator(pset, a):
    """Denominator pairing edge_gram_det: (a-1)!^2 * scale^(2(a-1))."""
    return _gram_denominator(a, pset.scale)


def squared_volume(points):
    """Exact squared (a-1)-dimensional volume of the simplex on a points.

    Gram-determinant route on denominator-cleared integer coordinates.
    """
    pts, a, _ = _validated(points)
    scale, vecs = _cleared(pts)
    return Fraction(_gram_det(vecs, range(a)), _gram_denominator(a, scale))


def squared_volume_cm(points):
    """Same squared volume via the bordered distance-matrix determinant.

    Independent of squared_volume: different matrix, different determinant
    algorithm.  Coordinates are cleared by their common denominator s, so the
    distance matrix holds integers s^2 * |p_i - p_j|^2.  The bordered
    determinant is homogeneous of degree a-1 in the distances, so one exact
    division by s^(2(a-1)) at the end undoes the clearing.
    """
    pts, a, _ = _validated(points)
    s = math.lcm(*(c.denominator for p in pts for c in p))
    ints = [[c.numerator * (s // c.denominator) for c in p] for p in pts]
    border = [[0] + [1] * a]
    for p in ints:
        border.append([1] + [sum((x - y) * (x - y) for x, y in zip(p, q)) for q in ints])
    det = det_laplace(border)
    return Fraction(
        (-1) ** a * det,
        2 ** (a - 1) * math.factorial(a - 1) ** 2 * s ** (2 * (a - 1)),
    )


def affine_rank(points):
    """Rank of the difference vectors p_i - p_0, by exact Gaussian elimination."""
    pts, d = _coords_list(points)
    base = pts[0]
    rows = [[x - b for x, b in zip(c, base)] for c in pts[1:]]
    rank = 0
    for col in range(d):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / lead[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# text format: line 1 "d n", then n lines of d whitespace-separated rationals
# ("p/q" or plain integers); lines starting with "#" and blank lines skipped.

def parse_pointset(text):
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: header must be 'd n'")
            header = (int(parts[0]), int(parts[1]))
            continue
        try:
            rows.append([Fraction(p) for p in parts])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational ({exc})") from None
    if header is None:
        raise ValueError("empty point-set text")
    d, n = header
    if len(rows) != n:
        raise ValueError(f"header says {n} points, found {len(rows)}")
    return PointSet(d, rows)


def format_pointset(pset):
    lines = [f"{pset.dimension} {len(pset)}"]
    for p in pset.points:
        lines.append(" ".join(str(c) for c in p.coords))
    return "\n".join(lines) + "\n"


def load_pointset(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pointset(fh.read())


def save_pointset(pset, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pointset(pset))
