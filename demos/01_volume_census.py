"""Exact squared volumes and the coloring they induce.

Walks a few tiny point sets: computes squared simplex volumes along both
independent routes, then builds the full edge coloring of a grid and prints
its census.  Everything is Fraction arithmetic; nothing here is rounded.

Run: python3 demos/01_volume_census.py
"""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations

from dvsubset import (
    PointSet,
    build_coloring,
    gen_grid,
    goodness,
    squared_volume,
    squared_volume_cm,
)


def show(label, pts):
    v1 = squared_volume(pts)
    v2 = squared_volume_cm(pts)
    mark = "ok" if v1 == v2 else "MISMATCH"
    print(f"  {label:<34} gram={v1}  distance-matrix={v2}  [{mark}]")


print("two routes, one exact value")
show("segment (0,0)-(3,4)", [(0, 0), (3, 4)])
show("right triangle, legs 1", [(0, 0), (1, 0), (0, 1)])
show("unit tetrahedron corner", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
show("thirds on a line (degenerate)", [(0, 0), (F(1, 3), 0), (F(2, 3), 0)])
show("rational triangle", [(F(1, 2), 0), (2, 0), (0, F(3, 5))])

print()
print("distance coloring of the 3x3 grid")
grid = gen_grid(2, 3)
coloring = build_coloring(grid, 2)
census = Counter(coloring.color_of(e).volume() for e in combinations(range(len(grid)), 2))
for value in sorted(census):
    print(f"  squared distance {str(value):>2}  x{census[value]}")
print(f"  {len(census)} distinct values over {len(coloring)} pairs")

report = goodness(coloring)
print()
print("largest color class seen from any single point")
print(f"  m = {report.observed_m}: point {report.witness_tuple[0]} at "
      f"squared distance {report.witness_color.volume()} from {report.witness_extensions}")
print("  (the grid center and its four axis neighbors)")

print()
print("triangle coloring of the same grid (a=3) marks collinear triples")
tri = build_coloring(grid, 3)
zero = sum(1 for e in combinations(range(len(grid)), 3) if not tri.color_of(e).is_volume)
print(f"  {zero} degenerate triples of {len(tri)}; each carries a unique color")
