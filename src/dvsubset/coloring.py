"""Volume colorings of the complete a-uniform hypergraph on a point set.

Every a-subset (edge) of the ground set is colored by the exact squared
volume of its simplex.  The goodness m of the paper is the largest class of
equal volumes among the extensions anchor + (v,) of one (a-1)-tuple, the
*anchor*, so the coloring is read one anchor row at a time: `row(anchor)[v]`
is the raw integer value of the edge anchor + (v,), and 0 when v lies in the
anchor.  Rows read coordinates cleared one axis at a time, axis j by its own
lcm L_j.  By Cauchy-Binet the Gram determinant is a sum of squared (a-1) x
(a-1) determinants, one per coordinate set S, and clearing scales S's
determinant by prod(L_j, j in S).  An integer weight per S brings every set
to one common factor M, the lcm of those products, so a raw is M^2 times
the Gram determinant.  At a = d+1 there is one set, the volume is |det| / d!
of one d x d matrix, and the raw is that |det| times M = prod(L_j).  The
same form, signed, is the side of v against the hyperplane through the
anchor, which `sides(anchor, ids)` reads: the split of the paper's
hyperplane locus.

All raws of one Coloring share the denominator `den`, so they compare exactly
as the volumes do, and 0 marks a degenerate simplex.  Nothing is stored per
edge: every row is computed on demand, in one pass over the columns (at
a >= 3 a cached block of them, shifted by the anchor's first point), and
memory stays O(d n).

A `ColorKey` is built only where a color is output.  It is the reduced
squared volume, or for a degenerate simplex a unique color carrying the edge
itself.  Degenerate edges therefore never collide with anything, which is
what lets the h variant ignore them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, factorial, gcd, lcm, prod
from typing import NamedTuple

from .geometry import check_a, det_bareiss, squared_volume

VOLUME = "volume"
ZERO = "zero"


class ColorKey(NamedTuple):
    kind: str
    value: tuple  # reduced (num, den) for volume colors; the edge ids for zero

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
    """Goodness m, with the anchor, color and extensions of a class that size."""

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
    extensions as a list indexed by point id, in closed form, and
    `row(anchor, ids)` the same over the given ids only.  Every scan over
    edges reads rows: `raw_items(ids)` is every edge inside ids, in
    combinations order.  Nothing is stored per edge; all values share the
    denominator `den`, and `volume_key(raw)` is a value's color.
    `color_of(edge)` is one edge's output color, read from `squared_volume`:
    an independent route kept for single-edge lookups and as the reference
    the rows are tested against.  At a >= 3 a whole-set scan reads one cached
    block, the columns minus the anchor's first point, which lexicographic
    anchors share; a gathered list of ids is shifted on its own.
    """

    __slots__ = ("a", "pset", "den", "_cols", "_csets", "_one_term", "_block")

    def __init__(self, a, pset):
        check_a(a, pset.dimension)
        self.a = a
        self.pset = pset
        self._one_term = a == pset.dimension + 1  # one determinant: raws hold |det|
        lcms, self._cols = pset.axis_columns
        csets = list(combinations(range(pset.dimension), a - 1))
        factors = [prod(lcms[j] for j in cset) for cset in csets]
        common = lcm(*factors)
        # per set S and j in S: j, its cofactor's signed weight and its minor's columns
        self._csets = [
            [(j, (-1) ** pos * (common // f), cset[:pos] + cset[pos + 1 :]) for pos, j in enumerate(cset)]
            for cset, f in zip(csets, factors)
        ]
        if a == 2:  # every axis cleared by the one lcm M: raws are squared distances
            self._cols = [[x * (common // f) for x in col] if f != common else col
                          for col, f in zip(self._cols, factors)]
        self._block = None, None
        self.den = factorial(a - 1) ** 2 * common**2

    def __len__(self):
        return comb(len(self.pset), self.a)

    def row(self, anchor, ids=None):
        """raw(anchor + (v,)) for v in ids (default 0..n-1), in the order of
        ids, and 0 at the anchor's own ids.

        At a=2 the raw is the squared distance to the anchor on the columns
        cleared by M (the distance at d=1).  Else Cauchy-Binet, with U the
        anchor's differences from p0 = anchor[0]: the sum over (a-1)-sets S of
        coordinates of (c_S . (v - p0))^2, c_S the last-row cofactors of
        [U_S; .] times S's weight, read from the shifted columns.  At a = d+1 S is every
        coordinate, of weight 1, and the one term is |c_S . (v - p0)|.
        """
        cols = self._cols
        p = [col[anchor[0]] for col in cols]
        sliced = isinstance(ids, range) and ids.step == 1
        if self.a > 2 and (ids is None or sliced):  # a whole-set scan: read the block
            if self._block[0] != anchor[0]:
                self._block = anchor[0], [[x - q for x in col] for col, q in zip(cols, p)]
            cols, p = self._block[1], repeat(0)
        diffs = [[col[i] - q for col, q in zip(cols, p)] for i in anchor[1:]]
        if sliced:
            cols = [col[ids.start : ids.stop] for col in cols]
        elif self.a == 2 and ids is not None:
            cols = [[col[v] for v in ids] for col in cols]
        elif ids is not None:  # gathered ids: shift just those, and leave the block alone
            cols = [[col[v] - q for v in ids] for col, q in zip(cols, p)]
        if self.a == 2:  # squared distances, the first two axes in one pass
            if len(cols) == 1:  # a = d+1: the one term |x - p|
                return [abs(x - p[0]) for x in cols[0]]
            (xs, px), (ys, py), *more = zip(cols, p)
            out = [(u := x - px) * u + (w := y - py) * w for x, y in zip(xs, ys)]
            for col, q in more:
                out = [o + (y := x - q) * y for o, x in zip(out, col)]
            return out
        out = repeat(0)
        for cset in self._csets:
            (c0, xs), (c1, ys), *tail = [  # a 1 x 1 minor is its entry
                (w * (diffs[0][others[0]] if len(diffs) == 1
                      else det_bareiss([[u[i] for i in others] for u in diffs])), cols[j])
                for j, w, others in cset
            ]
            if self._one_term and not tail:  # a = d+1 = 3
                return [abs(c0 * x + c1 * y) for x, y in zip(xs, ys)]
            form = [c0 * x + c1 * y for x, y in zip(xs, ys)]
            for c, col in tail:
                form = [s + c * x for s, x in zip(form, col)]
            if self._one_term:
                return list(map(abs, form))
            out = [o + s * s for o, s in zip(out, form)]
        return out

    def sides(self, anchor, ids):
        """(ids above, ids below) the hyperplane through the anchor's d points
        at a = d+1, the ids on it in neither.

        Above is a positive det of the rows anchor[1:] + (v,) minus p0 =
        anchor[0], which is (-1)^(d-1) c . (v - p0) for the cofactors c of
        `row`'s one form, computed once.  The cleared columns scale det by
        prod(L_j) > 0, which keeps its sign.
        """
        cols = self._cols
        p = [col[anchor[0]] for col in cols]
        diffs = [[col[i] - q for col, q in zip(cols, p)] for i in anchor[1:]]
        (cset,) = self._csets  # one coordinate set at a = d+1, of weight 1
        c = [(-1) ** len(diffs) * w * det_bareiss([[u[i] for i in others] for u in diffs])
             for _, w, others in cset]
        dets = [sum(cj * (col[v] - q) for cj, col, q in zip(c, cols, p)) for v in ids]
        return [v for v, x in zip(ids, dets) if x > 0], [v for v, x in zip(ids, dets) if x < 0]

    def _runs(self, ids):
        """(anchor, rest) per run of the edges inside ids, in combinations order.

        Combinations order runs the last position fastest, so the edges that
        share their first a-1 positions come in one run: the anchor, extended
        by each id after the anchor's last position; ids None reads a range.
        """
        ids = range(len(self.pset)) if ids is None else list(ids)
        for pos in combinations(range(len(ids) - 1), self.a - 1):
            yield (pos if isinstance(ids, range) else tuple(map(ids.__getitem__, pos))), ids[pos[-1] + 1 :]

    def raw_items(self, ids=None):
        """(edge, raw) for every edge inside ids (default all), in combinations
        order: one row per run."""
        for anchor, rest in self._runs(ids):
            yield from zip([anchor + (v,) for v in rest], self.row(anchor, rest))

    def volume_key(self, raw):
        """Output color of a nonzero raw value: the reduced raw / den, with a
        one-term raw (a = d+1) squared first."""
        num = raw * raw if self._one_term else raw
        g = gcd(num, self.den)
        return ColorKey(VOLUME, (num // g, self.den // g))

    def color_of(self, edge):
        key = tuple(sorted(edge))
        if len(set(key)) != self.a:
            raise ValueError(f"edge must be {self.a} distinct ids")
        if not (0 <= key[0] and key[-1] < len(self.pset)):
            raise ValueError("edge ids out of range")
        q = squared_volume([self.pset[i] for i in key])
        return ColorKey.from_volume(q) if q else ColorKey.for_zero_edge(key)

def build_coloring(pset, a):
    """Color every a-subset of the point set by exact squared simplex volume.

    Ids follow the input order, so relabeling points relabels edges
    consistently.  Nothing is computed here: rows and edge values are
    computed when read.
    """
    coloring = Coloring(a, pset)
    if len(pset) < a:
        raise ValueError(f"need at least a={a} points, got {len(pset)}")
    return coloring


def distinct_raws(seen, raws, no_zeros):
    """The zero count of raws when its nonzero values repeat neither each
    other nor a value in `seen`, which then gains them; else None, as at any
    zero under no_zeros.  A repeat shows as `seen` growing by too little."""
    zeros = raws.count(0)
    if zeros and no_zeros:
        return None
    size = len(seen)
    seen.update(raws)
    grown = len(seen) - size - (0 in seen)  # seen holds no 0 between calls
    seen.discard(0)
    return zeros if grown == len(raws) - zeros else None


def distinct_zeros(coloring, ids=None, no_zeros=False, seen=None):
    """The number of zero edges inside ids (default all) when no nonzero raw
    repeats among them, else None; with no_zeros, None at the first zero
    edge too.

    Reads the runs of `raw_items` without building an edge, one
    `distinct_raws` per row, and stops at the first row that fails.
    `seen`, when given, collects the nonzero raws read.
    """
    seen = set() if seen is None else seen
    zeros = 0
    for anchor, rest in coloring._runs(ids):
        row_zeros = distinct_raws(seen, coloring.row(anchor, rest), no_zeros)
        if row_zeros is None:
            return None
        zeros += row_zeros
    return zeros


def repeated(coloring, ids):
    """(zero edges, {raw: edges}) over the edges inside ids: each nonzero raw
    on two or more edges, with its edges in combinations order, keyed in the
    order of each raw's first edge."""
    zeros = 0
    groups = {}
    for edge, raw in coloring.raw_items(ids):
        if raw:
            groups.setdefault(raw, []).append(edge)
        else:
            zeros += 1
    return zeros, {raw: edges for raw, edges in groups.items() if len(edges) > 1}


def _largest_class(coloring, anchors, cap=None):
    """(size, anchor, ColorKey, ascending ids) of the largest volume class
    over the anchors' rows, or None when no row holds a nonzero value.

    Anchors are read in the given order and the first one holding the
    largest size wins; among its classes of that size the smallest reduced
    (num, den) wins.  With `cap` the scan stops at the first anchor whose
    largest class exceeds cap.
    """
    best = 0
    for anchor in anchors:
        row = coloring.row(anchor)
        if len(row) - len(set(row)) + 3 - coloring.a <= best:
            continue  # no nonzero value occurs more than best times: a-1 ids are 0
        counts = Counter(row)
        del counts[0]  # the anchor's own ids, and degenerate extensions
        size = max(counts.values(), default=0)
        if size > best:
            best, best_anchor, best_row, best_counts = size, anchor, row, counts
            if cap is not None and size > cap:
                break
    if not best:
        return None
    raw = min(
        (r for r, c in best_counts.items() if c == best),
        key=lambda r: coloring.volume_key(r).value,
    )
    ext = [v for v, r in enumerate(best_row) if r == raw]
    return best, best_anchor, coloring.volume_key(raw), ext


def goodness(coloring, cap=None):
    """Largest volume color class over any (a-1)-tuple, with a witness.

    Anchors are read in lexicographic order.  The witness is the smallest
    anchor holding a largest class and, among that anchor's largest classes,
    the one with the smallest reduced (num, den).  Zero colors are unique by
    construction, so they never contribute; a fully degenerate coloring
    reports m=1 at its first edge.  One anchor row is held at a time, so
    memory stays O(n) on every input.

    With `cap` the scan stops at the first anchor, in lexicographic order,
    whose largest class exceeds cap.  observed_m is then that class's exact
    size, which is > cap but need not be the global maximum.  A negative
    cap is a ValueError.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    a = coloring.a
    found = _largest_class(coloring, combinations(range(len(coloring.pset)), a - 1), cap)
    if found is None:
        # fully degenerate coloring: every class is a singleton behind a zero color
        edge = tuple(range(a))
        return GoodnessReport(1, edge[:-1], ColorKey.for_zero_edge(edge), [edge[-1]])
    return GoodnessReport(*found)


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
