"""Volume colorings of the complete a-uniform hypergraph on a point set.

Every a-subset (edge) of the ground set is colored by the exact squared
volume of its simplex.  The goodness m of the paper is the largest class of
equal volumes among the extensions anchor + (v,) of one (a-1)-tuple, the
*anchor*, so the coloring is read one anchor row at a time: `row(anchor)[v]`
is the raw integer Gram determinant of the edge anchor + (v,), and 0 when v
lies in the anchor.

Within one a every edge shares the denominator edge_det_denominator(pset, a),
so raw integers compare exactly as the volumes do, and 0 marks a degenerate
simplex.  Nothing is stored: every row is computed on demand, by one exact
integer formula for every a, and memory stays O(n) per row read.

A `ColorKey` is built only where a color is output.  It is the reduced
squared volume, or for a degenerate simplex a unique color carrying the edge
itself.  Degenerate edges therefore never collide with anything, which is
what lets the h variant ignore them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, gcd
from typing import NamedTuple

from .geometry import det_bareiss, edge_det_denominator, edge_gram_det

VOLUME = "volume"
ZERO = "zero"


class ColorKey(NamedTuple):
    kind: str
    value: tuple  # reduced (num, den) for volume colors; the edge ids for zero

    @classmethod
    def from_det(cls, det, den):
        g = gcd(det, den)
        return cls(VOLUME, (det // g, den // g))

    @classmethod
    def from_volume(cls, q):
        q = Fraction(q)
        if q <= 0:
            raise ValueError("volume colors are positive")
        return cls(VOLUME, (q.numerator, q.denominator))

    @classmethod
    def for_zero_edge(cls, edge):
        return cls(ZERO, tuple(edge))

    @property
    def is_volume(self):
        return self.kind == VOLUME

    def volume(self):
        if self.kind != VOLUME:
            raise ValueError("not a volume color")
        return Fraction(self.value[0], self.value[1])

    def to_json(self):
        if self.kind == VOLUME:
            return {"kind": VOLUME, "value": f"{self.value[0]}/{self.value[1]}"}
        return {"kind": ZERO, "edge": list(self.value)}


@dataclass
class GoodnessReport:
    observed_m: int
    witness_tuple: tuple
    witness_color: ColorKey
    witness_extensions: list

    def to_json(self):
        return {
            "observed_m": self.observed_m,
            "witness_tuple": list(self.witness_tuple),
            "witness_color": self.witness_color.to_json(),
            "witness_extensions": list(self.witness_extensions),
        }


class Coloring:
    """Raw-integer volume coloring of all a-subsets of a PointSet.

    Edges and anchors are sorted id tuples.  `row(anchor)` is the anchor's
    extensions as a list indexed by point id, in closed form; `raw(edge)` is
    one edge's Gram determinant (`edge_gram_det`), an independent route, and
    `raw_items(ids)` every edge inside ids, in combinations order.  Nothing
    is stored per edge; all values share the denominator `den`.  The lazy
    `colors` mapping (edge -> ColorKey, in combinations order) and
    `color_of(edge)` give output colors, for tests and small sets.
    """

    __slots__ = ("a", "pset", "den", "_cols")

    def __init__(self, a, pset):
        self.a = a
        self.pset = pset
        self.den = edge_det_denominator(pset, a)
        self._cols = list(zip(*pset.scaled))

    def __len__(self):
        return comb(len(self.pset), self.a)

    def row(self, anchor):
        """raw(anchor + (v,)) for v = 0..n-1, and 0 at the anchor's own ids.

        Cauchy-Binet, with U the anchor's differences from p0 = anchor[0]: the
        sum over (a-1)-sets S of coordinates of (c_S . (v - p0))^2, c_S the
        last-row cofactors of [U_S; .].  At a=2, S is one coordinate, c_S = 1.
        """
        vecs = self.pset.scaled
        p0 = vecs[anchor[0]]
        diffs = [[x - y for x, y in zip(vecs[i], p0)] for i in anchor[1:]]
        out = [0] * len(vecs)
        for cset in combinations(range(len(p0)), self.a - 1):
            terms = []
            shift = 0  # c_S . p0
            for pos, j in enumerate(cset):
                minor = det_bareiss([[u[i] for i in cset if i != j] for u in diffs])
                if minor:
                    c = -minor if pos % 2 else minor
                    terms.append((c, self._cols[j]))
                    shift += c * p0[j]
            if len(terms) == 1 and terms[0][0] in (1, -1):  # (v_j - p0_j)^2, as at a=2
                z = shift * terms[0][0]
                out = [o + (y := x - z) * y for o, x in zip(out, terms[0][1])]
            elif terms:  # none when U_S is singular
                *head, (c, col) = terms
                acc = repeat(-shift)
                for c0, col0 in head:
                    acc = [s + c0 * x for s, x in zip(acc, col0)]
                out = [o + (y := s + c * x) * y for o, s, x in zip(out, acc, col)]
        return out

    def raw(self, edge):
        """Gram determinant of one sorted edge; the squared volume is raw / den."""
        return edge_gram_det(self.pset, edge)

    def raw_items(self, ids=None):
        """(edge, raw) for every edge inside ids (default all), in combinations order."""
        ids = range(len(self.pset)) if ids is None else ids
        for edge in combinations(ids, self.a):
            yield edge, self.raw(edge)

    def volume_key(self, raw):
        """Output color of a nonzero raw value."""
        return ColorKey.from_det(raw, self.den)

    def color_of(self, edge):
        key = tuple(sorted(edge))
        if len(set(key)) != self.a:
            raise ValueError(f"edge must be {self.a} distinct ids")
        if not (0 <= key[0] and key[-1] < len(self.pset)):
            raise ValueError("edge ids out of range")
        raw = self.raw(key)
        return self.volume_key(raw) if raw else ColorKey.for_zero_edge(key)

    @property
    def colors(self):
        return _ColorView(self)


class _ColorView(Mapping):
    """Read-only edge -> ColorKey view over a Coloring, keyed by sorted id tuples."""

    __slots__ = ("_coloring",)

    def __init__(self, coloring):
        self._coloring = coloring

    def __getitem__(self, edge):
        try:
            if tuple(sorted(edge)) == edge:
                return self._coloring.color_of(edge)
        except (TypeError, ValueError):
            pass
        raise KeyError(edge)

    def __iter__(self):
        return combinations(range(len(self._coloring.pset)), self._coloring.a)

    def __len__(self):
        return len(self._coloring)


def build_coloring(pset, a):
    """Color every a-subset of the point set by exact squared simplex volume.

    Ids follow the input order, so relabeling points relabels edges
    consistently.  Nothing is computed here: rows and edge values are
    computed when read.
    """
    n = len(pset)
    d = pset.dimension
    if not 2 <= a <= d + 1:
        raise ValueError(f"need 2 <= a <= d+1, got a={a}, d={d}")
    if n < a:
        raise ValueError(f"need at least a={a} points, got {n}")
    return Coloring(a, pset)


def anchor_classes(coloring, anchor):
    """(row, counts, size) for one anchor: its row, its volume class sizes
    (raw value -> count, zeros dropped) and the largest size (0 if none)."""
    row = coloring.row(anchor)
    counts = Counter(row)
    del counts[0]  # the anchor's own ids, and degenerate extensions
    return row, counts, max(counts.values(), default=0)


def largest_class(coloring, row, counts, size):
    """(ColorKey, ascending ids) of the row's class of the given size.

    When several classes have that size the smallest reduced (num, den) wins.
    """
    raw = min(
        (r for r, c in counts.items() if c == size),
        key=lambda r: coloring.volume_key(r).value,
    )
    return coloring.volume_key(raw), [v for v, r in enumerate(row) if r == raw]


def color_class(coloring, tuple_ids, key):
    """Ids v outside tuple_ids with color(tuple_ids + v) == key, ascending."""
    a = coloring.a
    n = len(coloring.pset)
    anchor = tuple(sorted(tuple_ids))
    if len(anchor) != a - 1 or len(set(anchor)) != a - 1:
        raise ValueError(f"tuple must be {a - 1} distinct ids")
    if anchor and not (0 <= anchor[0] and anchor[-1] < n):
        raise ValueError("tuple ids out of range")
    row = coloring.row(anchor)
    if key.is_volume:
        num, den = key.value
        if coloring.den % den:
            return []  # no edge of this set has that volume
        target = num * (coloring.den // den)
        return [v for v, raw in enumerate(row) if raw == target]
    # a zero color names its own edge, which must extend this anchor by one id
    return [
        v
        for v, raw in enumerate(row)
        if raw == 0 and v not in anchor and tuple(sorted(anchor + (v,))) == key.value
    ]


def goodness(coloring, cap=None):
    """Largest volume color class over any (a-1)-tuple, with a witness.

    Anchors are read in lexicographic order.  The witness is the smallest
    anchor holding a largest class and, among that anchor's largest classes,
    the one with the smallest reduced (num, den).  Zero colors are unique by
    construction, so they never contribute; a fully degenerate coloring
    reports m=1 at its first edge.

    With `cap` the scan stops at the first anchor, in lexicographic order,
    whose largest class exceeds cap.  observed_m is then that class's exact
    size, which is > cap but need not be the global maximum.
    """
    a = coloring.a
    best = 0
    for anchor in combinations(range(len(coloring.pset)), a - 1):
        row, counts, size = anchor_classes(coloring, anchor)
        if size > best:
            best, best_anchor, best_row, best_counts = size, anchor, row, counts
            if cap is not None and size > cap:
                break
    if not best:
        # fully degenerate coloring: every class is a singleton behind a zero color
        edge = tuple(range(a))
        return GoodnessReport(1, edge[:-1], ColorKey.for_zero_edge(edge), [edge[-1]])
    key, ext = largest_class(coloring, best_row, best_counts, best)
    return GoodnessReport(best, best_anchor, key, ext)


def write_coloring_csv(coloring, fh):
    """One row per edge: id0..id{a-1}, color_kind, num, den (zero rows use 0/1)."""
    a = coloring.a
    header = [f"id{i}" for i in range(a)] + ["color_kind", "num", "den"]
    fh.write(",".join(header) + "\n")
    for edge, raw in coloring.raw_items():
        if raw:
            kind, (num, den) = VOLUME, coloring.volume_key(raw).value
        else:
            kind, num, den = ZERO, 0, 1
        fh.write(",".join(str(x) for x in (*edge, kind, num, den)) + "\n")
