"""Exact rational points, point sets, and squared simplex volumes.

All coordinates are `fractions.Fraction` and every quantity derived from them
is exact; no floating point is used anywhere.  The squared (a-1)-dimensional
volume of the simplex on a points is computed two independent ways, both on
the points cleared once by their common denominator:

* `squared_volume` takes the Gram determinant of difference vectors by
  `det_bareiss`, fraction-free Bareiss elimination: the one elimination
  loop here, which also gives `affine_rank`;
* `squared_volume_cm` evaluates the bordered distance-matrix determinant
  by cofactor expansion, `det_laplace`.

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

    Ids are 0..n-1 in input order.  One integer copy of the coordinates is
    cached lazily for the determinants, `axis_columns`: each axis cleared by
    the lcm of its own denominators.
    """

    __slots__ = ("dimension", "points", "_axis_columns")

    def __init__(self, dimension, rows):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        points = []
        seen = {}  # on integer (num, den) keys, which hash without a modular inverse
        for i, row in enumerate(rows):
            coords = tuple([Fraction(c) for c in row])
            if len(coords) != dimension:
                raise ValueError(
                    f"point {i} has {len(coords)} coordinates, expected {dimension}"
                )
            first = seen.setdefault(tuple(map(Fraction.as_integer_ratio, coords)), i)
            if first != i:
                raise ValueError(f"duplicate point at ids {first} and {i}")
            points.append(Point(i, coords))
        self.points = points
        self._axis_columns = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def coords(self, i):
        return self.points[i].coords

    @property
    def scale(self):
        """The lcm of every coordinate denominator."""
        return math.lcm(*self.axis_columns[0])

    @property
    def axis_columns(self):
        """(lcms, columns): axis j cleared by the lcm of its own denominators,
        columns[j][i] == coords(i)[j] * lcms[j], exactly."""
        if self._axis_columns is None:
            cleared = [
                _cleared([[p.coords[j] for p in self.points]]) for j in range(self.dimension)
            ]
            self._axis_columns = [s for s, _ in cleared], [col for _, (col,) in cleared]
        return self._axis_columns

    def subset(self, ids):
        """New PointSet on the given ids (re-numbered 0..len(ids)-1, input order)."""
        return PointSet(self.dimension, [self.points[i].coords for i in ids])


# ---------------------------------------------------------------------------
# determinants

def _eliminate(m, width):
    """(rank, signed last pivot) of the integer rows m, eliminated in place.

    Fraction-free (Bareiss): a row swap finds each pivot, a column with no
    pivot left is skipped, and each update divides exactly by the previous
    pivot, so every entry stays a minor of the input (Sylvester's identity)
    and the last pivot of a full-rank square matrix, times the swap sign, is
    its determinant.
    """
    rank, sign, prev = 0, 1, 1
    for col in range(width):
        for i in range(rank, len(m)):
            if m[i][col]:
                break
        else:
            continue
        if i != rank:
            m[rank], m[i] = m[i], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for row in m[rank + 1 :]:
            lead = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
        rank += 1
    return rank, sign * prev


def det_bareiss(rows):
    """Exact determinant of a square integer matrix, by `_eliminate`."""
    n = len(rows)
    rank, pivot = _eliminate([list(r) for r in rows], n)
    return pivot if rank == n else 0


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


def check_a(a, d):
    """Raise ValueError unless 2 <= a <= d+1: a simplex on a points in Q^d."""
    if not 2 <= a <= d + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={d}")


def _validated(points):
    """(s, rows * s, a): the a points checked as a simplex and cleared by the
    lcm s of their denominators, a positive scale that keeps them distinct."""
    pts, d = _coords_list(points)
    a = len(pts)
    check_a(a, d)
    scale, ints = _cleared(pts)
    if len(set(ints)) != a:
        raise ValueError("points must be pairwise distinct")
    return scale, ints, a


def squared_volume(points):
    """Exact squared (a-1)-dimensional volume of the simplex on a points.

    Gram determinant of the differences from the last point, on coordinates
    cleared by their common denominator s, by Bareiss elimination; the
    determinant is homogeneous of degree 2(a-1) in s.
    """
    scale, vecs, a = _validated(points)
    diffs = [tuple(x - y for x, y in zip(v, vecs[-1])) for v in vecs[:-1]]
    gram = [[sum(x * y for x, y in zip(u, v)) for v in diffs] for u in diffs]
    return Fraction(det_bareiss(gram), math.factorial(a - 1) ** 2 * scale ** (2 * (a - 1)))


def squared_volume_cm(points):
    """Same squared volume via the bordered distance-matrix determinant.

    Independent of squared_volume: different matrix, different determinant
    algorithm.  Coordinates are cleared by their common denominator s, so the
    distance matrix holds integers s^2 * |p_i - p_j|^2.  The bordered
    determinant is homogeneous of degree a-1 in the distances, so one exact
    division by s^(2(a-1)) at the end undoes the clearing.
    """
    s, ints, a = _validated(points)
    border = [[0] + [1] * a]
    for p in ints:
        border.append([1] + [sum((x - y) * (x - y) for x, y in zip(p, q)) for q in ints])
    det = det_laplace(border)
    return Fraction(
        (-1) ** a * det,
        2 ** (a - 1) * math.factorial(a - 1) ** 2 * s ** (2 * (a - 1)),
    )


def affine_rank(points):
    """Rank of the difference vectors p_i - p_0, by `_eliminate` on the
    coordinates cleared by their common denominator, a positive scaling that
    keeps the rank."""
    pts, d = _coords_list(points)
    _, ints = _cleared(pts)
    return _eliminate([[x - b for x, b in zip(c, ints[0])] for c in ints[1:]], d)[0]


# ---------------------------------------------------------------------------
# text format: line 1 "d n", then n lines of d whitespace-separated rationals
# ("p/q" or plain integers); lines starting with "#" and blank lines skipped.

def parse_pointset(text):
    d = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if d is None:
            try:
                d, n = map(int, line.split())
            except ValueError:
                raise ValueError(f"line {lineno}: header must be 'd n'") from None
            continue
        if "e" in line or "E" in line:  # Fraction would build 10**exp exactly
            raise ValueError(f"line {lineno}: bad rational (exponent notation in {line!r})")
        try:
            rows.append([Fraction(p) for p in line.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational ({exc})") from None
    if d is None:
        raise ValueError("empty point-set text")
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
