import io
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from dvsubset.coloring import (
    ColorKey,
    build_coloring,
    color_class,
    goodness,
    write_coloring_csv,
)
from dvsubset.generators import gen_grid, gen_random
from dvsubset.geometry import PointSet
from dvsubset.rng import SplitMix64

from helpers import frac_coords, pair_distance_census, reference_goodness

F = Fraction

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
LINE4 = [(0,), (1,), (2,), (3,)]


def coloring_of(rows, a, d=None):
    d = d if d is not None else len(rows[0])
    return build_coloring(PointSet(d, rows), a)


# ------------------------------------------------------------------ color keys


def test_colorkey_reduction_and_roundtrip():
    assert ColorKey.from_det(4, 8) == ColorKey.from_volume(F(1, 2))
    assert ColorKey.from_volume(F(3, 6)).value == (1, 2)
    assert ColorKey.from_volume(2).volume() == 2
    with pytest.raises(ValueError):
        ColorKey.from_volume(0)
    with pytest.raises(ValueError):
        ColorKey.from_volume(-1)


def test_zero_keys_carry_their_edge():
    z = ColorKey.for_zero_edge((0, 1, 2))
    assert not z.is_volume
    assert z != ColorKey.for_zero_edge((0, 1, 3))
    with pytest.raises(ValueError):
        z.volume()


def test_colorkey_json_shapes():
    assert ColorKey.from_volume(F(1, 2)).to_json() == {
        "kind": "volume",
        "value": "1/2",
    }
    assert ColorKey.for_zero_edge((0, 2, 5)).to_json() == {
        "kind": "zero",
        "edge": [0, 2, 5],
    }


# -------------------------------------------------------------------- building


def test_square_distance_census():
    # independent census straight off the coordinates
    expect = pair_distance_census(frac_coords(SQUARE))
    col = coloring_of(SQUARE, 2)
    got = Counter(key.volume() for key in col.colors.values())
    assert dict(got) == expect == {F(1): 4, F(2): 2}


def test_general_path_matches_distance_hot_path():
    # a=2 has a dedicated code path; cross-check it against simplex volumes
    rows = [(F(1, 2), 0), (2, 0), (0, F(3, 5)), (1, 1), (3, 4)]
    col = coloring_of(rows, 2)
    from dvsubset.geometry import squared_volume

    for (i, j), key in col.colors.items():
        assert key.volume() == squared_volume([rows[i], rows[j]])


def test_triangle_coloring_on_square():
    col = coloring_of(SQUARE, 3)
    got = Counter(key.volume() for key in col.colors.values())
    assert dict(got) == {F(1, 4): 4}  # all four triangles congruent


def test_degenerate_edges_get_unique_colors():
    rows = [(0, 0), (1, 0), (2, 0), (0, 1)]
    col = coloring_of(rows, 3)
    key = col.color_of((0, 1, 2))
    assert key.kind == "zero"
    assert key.value == (0, 1, 2)
    others = [k for e, k in col.colors.items() if e != (0, 1, 2)]
    assert all(k.is_volume for k in others)
    # the zero color identifies exactly its own edge
    assert color_class(col, (0, 1), key) == [2]


def test_all_zero_coloring():
    rows = [(0, 0), (1, 0), (2, 0), (3, 0)]
    col = coloring_of(rows, 3)
    keys = list(col.colors.values())
    assert all(k.kind == "zero" for k in keys)
    assert len(set(keys)) == len(keys)


def test_edge_count_and_lookup():
    col = coloring_of(SQUARE, 2)
    assert len(col) == 6
    assert col.color_of((3, 0)) == col.color_of((0, 3))
    with pytest.raises(ValueError):
        col.color_of((0,))
    with pytest.raises(ValueError):
        col.color_of((1, 1))


def test_build_validation():
    ps = PointSet(2, SQUARE)
    with pytest.raises(ValueError):
        build_coloring(ps, 4)  # a > d+1
    with pytest.raises(ValueError):
        build_coloring(ps, 1)
    with pytest.raises(ValueError):
        build_coloring(PointSet(2, SQUARE[:2]), 3)  # n < a


def test_relabeling_consistency():
    rng = SplitMix64(5)
    rows = [
        (F(rng.below(19) - 9, 1 + rng.below(3)), F(rng.below(19) - 9))
        for _ in range(6)
    ]
    rows = list(dict.fromkeys(rows))
    perm = list(range(len(rows)))[::-1]
    base = coloring_of(rows, 2)
    moved = coloring_of([rows[p] for p in perm], 2)
    where = {p: i for i, p in enumerate(perm)}
    for (i, j), key in base.colors.items():
        assert moved.color_of((where[i], where[j])) == key


# ---------------------------------------------------------------- color_class


def test_color_class_on_the_line():
    col = coloring_of(LINE4, 2)
    assert color_class(col, (1,), ColorKey.from_volume(1)) == [0, 2]
    assert color_class(col, (0,), ColorKey.from_volume(9)) == [3]
    assert color_class(col, (0,), ColorKey.from_volume(5)) == []


def test_color_class_validation():
    col = coloring_of(SQUARE, 2)
    with pytest.raises(ValueError):
        color_class(col, (0, 1), ColorKey.from_volume(1))  # wrong arity
    with pytest.raises(ValueError):
        color_class(col, (9,), ColorKey.from_volume(1))


# ------------------------------------------------------------------- goodness


def test_goodness_square():
    rep = goodness(coloring_of(SQUARE, 2))
    assert rep.observed_m == 2
    assert rep.witness_tuple == (0,)
    assert rep.witness_color == ColorKey.from_volume(1)
    assert rep.witness_extensions == [1, 2]


def test_goodness_line():
    rep = goodness(coloring_of(LINE4, 2))
    assert rep.observed_m == 2
    assert rep.witness_tuple == (1,)
    assert rep.witness_extensions == [0, 2]


def test_goodness_grid3():
    from dvsubset.generators import gen_grid

    rep = goodness(build_coloring(gen_grid(2, 3), 2))
    # grid center has four unit neighbors
    assert rep.observed_m == 4
    assert rep.witness_tuple == (4,)
    assert sorted(rep.witness_extensions) == [1, 3, 5, 7]


def test_goodness_witness_is_consistent():
    rng = SplitMix64(9)
    for a in (2, 3):
        rows = []
        seen = set()
        while len(rows) < 9:
            p = (F(rng.below(13) - 6), F(rng.below(13) - 6))
            if p not in seen:
                seen.add(p)
                rows.append(p)
        col = coloring_of(rows, a)
        rep = goodness(col)
        assert len(rep.witness_extensions) == rep.observed_m
        assert (
            color_class(col, rep.witness_tuple, rep.witness_color)
            == rep.witness_extensions
        )
        # no class anywhere beats the reported maximum
        by_anchor = {}
        for edge, key in col.colors.items():
            if not key.is_volume:
                continue
            from itertools import combinations

            for anchor in combinations(edge, a - 1):
                k = (anchor, key)
                by_anchor[k] = by_anchor.get(k, 0) + 1
        assert rep.observed_m == max(by_anchor.values())


def test_goodness_cap_early_exit_reports_exact_size():
    rep = goodness(coloring_of(SQUARE, 2), cap=1)
    assert rep.observed_m == 2
    assert rep.witness_tuple == (0,)
    assert rep.witness_extensions == [1, 2]
    # a cap above the maximum changes nothing
    assert goodness(coloring_of(SQUARE, 2), cap=10).observed_m == 2


@pytest.mark.parametrize("a", [2, 3])
def test_goodness_matches_census_reference(a):
    # small coordinates force many ties, so the tie-break is exercised
    for seed in range(6):
        pset = gen_random(2, 14, 9, seed=seed)
        coords = [p.coords for p in pset]
        rep = goodness(build_coloring(pset, a))
        got = (
            rep.observed_m,
            rep.witness_tuple,
            rep.witness_color.value,
            rep.witness_extensions,
        )
        assert got == reference_goodness(coords, a), (a, seed)


def test_goodness_cap_stops_at_first_anchor_over_cap():
    # anchor 3 (the origin) sees {0, 1, 2} at distance 1 and anchor 2 sees
    # {4, 5, 6} at distance 5: anchor 2 comes first, though an edge-order scan
    # completes the class of anchor 3 earlier
    rows = [(1, 0), (0, 1), (-1, 0), (0, 0), (-1, 5), (-1, -5), (4, 0)]
    rep = goodness(coloring_of(rows, 2), cap=2)
    assert (rep.observed_m, rep.witness_tuple) == (3, (2,))
    assert rep.witness_extensions == [4, 5, 6]
    assert rep.witness_color == ColorKey.from_volume(25)
    # capped m is exact for its anchor but need not be the global maximum
    grid = gen_grid(2, 4)
    coords = [p.coords for p in grid]
    col = build_coloring(grid, 2)
    assert goodness(col).observed_m == 4
    for cap in range(6):
        rep = goodness(col, cap=cap)
        got = (rep.observed_m, rep.witness_tuple, rep.witness_color.value, rep.witness_extensions)
        assert got == reference_goodness(coords, 2, cap=cap), cap
    assert goodness(col, cap=2).observed_m == 3


def test_rows_match_edge_values():
    # row() is Cauchy-Binet algebra and raw() is the Gram determinant of one
    # edge: two routes that must agree for every a, including anchors inside
    # the collinear and coplanar subsets, and on mixed denominators
    point_sets = [
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (3, 1)],
        [
            (0, 0, 0), (2, 0, 0), (4, 0, 0), (1, 2, 0), (0, F(2, 3), 0),
            (F(1, 2), 0, 1), (1, 1, F(3, 5)), (F(7, 3), F(1, 4), 2),
        ],
        [
            (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
            (F(1, 3), 2, 1, 0), (1, F(1, 2), 2, F(5, 7)), (2, 1, 0, 3), (0, 3, 1, 1),
        ],
    ]
    from itertools import combinations

    for rows in point_sets:
        n = len(rows)
        for a in range(2, len(rows[0]) + 2):
            col = coloring_of(rows, a)
            for anchor in combinations(range(n), a - 1):
                expect = [
                    0 if v in anchor else col.raw(tuple(sorted(anchor + (v,))))
                    for v in range(n)
                ]
                assert col.row(anchor) == expect, (rows[0], a, anchor)
            assert list(col.colors) == list(combinations(range(n), a))


def test_goodness_memory_stays_per_row():
    # C(60, 3) = 34220 edges, but goodness holds one 60-value row at a time
    tracemalloc.start()
    try:
        goodness(build_coloring(gen_random(2, 60, 2000, 11), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_goodness_all_degenerate_fallback():
    rows = [(0, 0), (1, 0), (2, 0), (3, 0)]
    rep = goodness(coloring_of(rows, 3))
    assert rep.observed_m == 1
    assert rep.witness_color.kind == "zero"
    assert rep.witness_tuple == (0, 1)
    assert rep.witness_extensions == [2]


def test_class_sizes_partition_extensions():
    # for each anchor, volume classes plus unique zero colors cover all n-a+1
    # one-point extensions exactly once
    rows = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (3, 1)]
    col = coloring_of(rows, 3)
    n = len(rows)
    from itertools import combinations

    for anchor in combinations(range(n), 2):
        rest = [v for v in range(n) if v not in anchor]
        keys = {col.color_of(tuple(sorted(anchor + (v,)))) for v in rest}
        total = sum(len(color_class(col, anchor, key)) for key in keys)
        assert total == n - 2


# -------------------------------------------------------------------- plumbing


def test_csv_dump():
    col = coloring_of(SQUARE, 2)
    buf = io.StringIO()
    write_coloring_csv(col, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "id0,id1,color_kind,num,den"
    assert lines[1] == "0,1,volume,1,1"
    assert len(lines) == 7


def test_csv_zero_rows():
    col = coloring_of([(0, 0), (1, 0), (2, 0), (0, 1)], 3)
    buf = io.StringIO()
    write_coloring_csv(col, buf)
    assert "0,1,2,zero,0,1" in buf.getvalue().splitlines()
