import io
import tracemalloc
from collections import Counter
from functools import cache
from fractions import Fraction
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsubset.coloring import (
    ColorKey,
    Coloring,
    build_coloring,
    distinct_raws,
    distinct_zeros,
    goodness,
    repeated,
    write_coloring_csv,
)
from dvsubset.generators import (
    gen_cocircular_plus_noise,
    gen_collinear,
    gen_grid,
    gen_random,
)
from dvsubset.geometry import PointSet, load_pointset, squared_volume
from dvsubset.rng import SplitMix64

from helpers import (
    census_verify,
    edge_colors,
    extensions_of_color,
    frac_coords,
    pair_distance_census,
    reference_goodness,
)

F = Fraction

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
LINE4 = [(0,), (1,), (2,), (3,)]


def coloring_of(rows, a, d=None):
    d = d if d is not None else len(rows[0])
    return build_coloring(PointSet(d, rows), a)


# ------------------------------------------------------------------ color keys


def test_colorkey_reduction_and_roundtrip():
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
    got = Counter(key.volume() for key in edge_colors(col).values())
    assert dict(got) == expect == {F(1): 4, F(2): 2}


def test_general_path_matches_distance_hot_path():
    # a=2 has a dedicated code path; cross-check it against simplex volumes
    rows = [(F(1, 2), 0), (2, 0), (0, F(3, 5)), (1, 1), (3, 4)]
    col = coloring_of(rows, 2)
    from dvsubset.geometry import squared_volume

    for (i, j), key in edge_colors(col).items():
        assert key.volume() == squared_volume([rows[i], rows[j]])


def test_triangle_coloring_on_square():
    col = coloring_of(SQUARE, 3)
    got = Counter(key.volume() for key in edge_colors(col).values())
    assert dict(got) == {F(1, 4): 4}  # all four triangles congruent


def test_degenerate_edges_get_unique_colors():
    rows = [(0, 0), (1, 0), (2, 0), (0, 1)]
    col = coloring_of(rows, 3)
    key = col.color_of((0, 1, 2))
    assert key.kind == "zero"
    assert key.value == (0, 1, 2)
    others = [k for e, k in edge_colors(col).items() if e != (0, 1, 2)]
    assert all(k.is_volume for k in others)
    # the zero color identifies exactly its own edge
    assert extensions_of_color(col, (0, 1), key) == [2]


def test_all_zero_coloring():
    rows = [(0, 0), (1, 0), (2, 0), (3, 0)]
    col = coloring_of(rows, 3)
    keys = list(edge_colors(col).values())
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
    for edge in ((0, 4), (-1, 2)):
        with pytest.raises(ValueError, match="out of range"):
            col.color_of(edge)


def test_build_validation():
    ps = PointSet(2, SQUARE)
    with pytest.raises(ValueError):
        build_coloring(ps, 4)  # a > d+1
    with pytest.raises(ValueError):
        build_coloring(ps, 1)
    with pytest.raises(ValueError):
        build_coloring(PointSet(2, SQUARE[:2]), 3)  # n < a


def test_empty_set_reaches_the_point_count_check():
    # one column per axis even for zero points, so the constructor builds and
    # build_coloring gives its own error instead of an IndexError
    empty = PointSet(2, [])
    assert empty.axis_columns == ([1, 1], [(), ()])
    for a in (2, 3):
        assert len(Coloring(a, empty)) == 0
        with pytest.raises(ValueError, match=f"need at least a={a} points, got 0"):
            build_coloring(empty, a)


def test_coloring_checks_a():
    # the constructor itself, not only build_coloring: on planar points a=4
    # once reported m=1 behind a zero-color witness
    ps = PointSet(2, SQUARE + [(2, 3)])
    for a in (1, 4):
        with pytest.raises(ValueError, match=r"need 2 <= a <= d\+1"):
            Coloring(a, ps)


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
    for (i, j), key in edge_colors(base).items():
        assert moved.color_of((where[i], where[j])) == key


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
            extensions_of_color(col, rep.witness_tuple, rep.witness_color)
            == rep.witness_extensions
        )
        # no class anywhere beats the reported maximum
        by_anchor = {}
        for edge, key in edge_colors(col).items():
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
    # row() is Cauchy-Binet algebra on per-axis-cleared columns and
    # squared_volume is the Gram determinant of one edge: two routes that
    # must agree exactly for every a, including anchors inside the collinear
    # and coplanar subsets, and on mixed denominators.  A raw is 0 exactly
    # when the volume is, and otherwise its color is the reduced volume,
    # which catches a wrong den or a missing square; the golden axes sets
    # clear each axis by a different lcm, so below a = d+1 the coordinate
    # sets of one row carry unequal weights
    golden = Path(__file__).resolve().parent / "golden"
    point_sets = [[p.coords for p in load_pointset(golden / f)] for f in ("axes.txt", "axes3d.txt")]
    point_sets += [
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

    def check(col, rows, edge, raw):
        q = squared_volume([rows[i] for i in edge])
        if q == 0:
            assert raw == 0, (rows[0], col.a, edge)
            assert col.color_of(edge) == ColorKey.for_zero_edge(edge)
        else:
            assert col.volume_key(raw) == ColorKey.from_volume(q), (rows[0], col.a, edge)
            assert col.color_of(edge) == col.volume_key(raw)

    for rows in point_sets:
        n = len(rows)
        for a in range(2, len(rows[0]) + 2):
            col = coloring_of(rows, a)
            for anchor in combinations(range(n), a - 1):
                row = col.row(anchor)
                assert len(row) == n
                for v, raw in enumerate(row):
                    if v in anchor:
                        assert raw == 0
                    else:
                        check(col, rows, tuple(sorted(anchor + (v,))), raw)
            for ids in (range(n), range(1, n), [5, 0, 3, 1, 4]):
                items = list(col.raw_items(ids))
                assert [e for e, _ in items] == list(combinations(ids, a)), (rows[0], a, ids)
                for edge, raw in items:
                    check(col, rows, tuple(sorted(edge)), raw)
    # at a = d+1 a row holds |det|, so a scaled target that is not a square
    # names no edge, even where it equals a raw value in the row
    col = coloring_of(point_sets[0], 3)
    raw = next(r for r in col.row((0, 1)) if r and isqrt(r) ** 2 != r)
    assert extensions_of_color(col, (0, 1), ColorKey.from_volume(F(raw, col.den))) == []


mixed_frac = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_rows_match_squared_volume_for_every_ids_kind(data):
    # row() reads a block shifted by the anchor's first point, a slice for a
    # range of ids, or a gather: every kind of ids gives the raws that
    # squared_volume gives, and anchors whose first points alternate on one
    # Coloring catch a block left over from the previous anchor
    d = data.draw(st.integers(1, 4), "d")
    a = data.draw(st.integers(2, d + 1), "a")
    n = data.draw(st.integers(a + 1, 7), "n")
    point = st.tuples(*[mixed_frac] * d)
    rows = data.draw(st.lists(point, min_size=n, max_size=n, unique=True), "rows")
    col = coloring_of(rows, a)

    @cache
    def raw(edge):
        scaled = squared_volume([rows[i] for i in edge]) * col.den
        assert scaled.denominator == 1
        if a == d + 1:
            assert isqrt(scaled.numerator) ** 2 == scaled.numerator
            return isqrt(scaled.numerator)
        return scaled.numerator

    anchors = data.draw(st.permutations(list(combinations(range(n), a - 1))), "anchors")
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), "subset")
    start = data.draw(st.integers(0, n), "start")
    for anchor in anchors:
        for ids in (None, range(n), range(start, n), list(range(n)), tuple(subset), subset):
            read = range(n) if ids is None else ids
            want = [0 if v in anchor else raw(tuple(sorted(anchor + (v,)))) for v in read]
            assert col.row(anchor, ids) == want, (anchor, ids)


def test_gathered_rows_build_no_block():
    # a row over a few gathered ids shifts just those ids; only a whole-set
    # scan pays for the n-wide block shifted by the anchor's first point, so
    # gathered rows whose first points change allocate next to nothing
    col = coloring_of([(k, k * k % 1009) for k in range(2000)], 3)
    tracemalloc.start()
    try:
        for anchor in ((5, 9), (6, 9), (7, 9)):
            col.row(anchor, [3, 9, 12])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000, peak


def test_goodness_memory_stays_per_row():
    # C(60, 3) = 34220 edges, but goodness holds one 60-value row at a time,
    # on a set whose volumes repeat and on a rainbow one, where no volume
    # repeats: the first 60 points of the 200-point mixed set, numerators in
    # [-1000, 1000] over a denominator in 1..5000 per coordinate
    rng = SplitMix64(12)
    mixed = []
    while len(mixed) < 60:
        p = tuple(F(rng.below(2001) - 1000, 1 + rng.below(5000)) for _ in range(2))
        if p not in mixed:
            mixed.append(p)
    for pset in (gen_random(2, 60, 2000, 11), PointSet(2, mixed)):
        tracemalloc.start()
        try:
            goodness(build_coloring(pset, 3))
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
        total = sum(len(extensions_of_color(col, anchor, key)) for key in keys)
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


# ------------------------------------------------------------ distinct scan

GOLDEN = Path(__file__).resolve().parent / "golden"


def scan_sets():
    yield "random", gen_random(2, 12, 30, seed=3)
    yield "mixed", load_pointset(GOLDEN / "mixed.txt")
    yield "grid4", gen_grid(2, 4)
    yield "grid3d", gen_grid(3, 3).subset(range(0, 27, 2))  # 14 of the 3x3x3 grid
    yield "collinear", gen_collinear(6, 4, seed=2, coord_bound=40)
    yield "cocircular", gen_cocircular_plus_noise(8, 4, seed=1, coord_bound=40)
    yield "axes", load_pointset(GOLDEN / "axes.txt")
    yield "axes3d", load_pointset(GOLDEN / "axes3d.txt")


def test_distinct_scan_matches_census():
    # the whole set and small subsets, so both verdicts occur on most sets
    rng = SplitMix64(5)
    verdicts = set()
    for name, pset in scan_sets():
        coords = [p.coords for p in pset]
        n = len(pset)
        for a in range(2, pset.dimension + 2):
            coloring = Coloring(a, pset)
            id_lists = [list(range(n))]
            id_lists += [rng.sample(n, min(n, a + k)) for k in range(4) for _ in range(3)]
            for ids in id_lists:
                for variant in ("h", "h_prime"):
                    got = distinct_zeros(coloring, ids, variant == "h_prime")
                    valid, groups, zeros = census_verify(coords, a, ids, variant)
                    assert got == (zeros if valid else None), (name, a, ids, variant)
                    verdicts.add((name, got is not None))
                # the grouping pass: the census's groups, keyed by first edge
                got_zeros, by_raw = repeated(coloring, sorted(ids))
                assert got_zeros == zeros
                firsts = [edges[0] for edges in by_raw.values()]
                assert firsts == sorted(firsts)
                got_groups = [(coloring.volume_key(r).value, e) for r, e in sorted(by_raw.items())]
                assert got_groups == groups, (name, a, ids)
    names = {name for name, _ in scan_sets()}
    assert {name for name, ok in verdicts if ok} == names
    assert {name for name, ok in verdicts if not ok} == names - {"mixed"}


def test_distinct_raws_matches_a_naive_reference():
    # short lists over a small alphabet, so that a nonzero value repeats
    # within the list, repeats one in seen, or neither, with and without zeros
    rng = SplitMix64(11)
    kinds = Counter()
    for _ in range(500):
        raws = [rng.below(5) for _ in range(rng.below(6))]
        seen = {1 + rng.below(4) for _ in range(rng.below(3))}
        nonzero = [r for r in raws if r]
        within = len(set(nonzero)) < len(nonzero)
        against = not seen.isdisjoint(nonzero)
        for no_zeros in (False, True):
            ok = not (within or against or (no_zeros and 0 in raws))
            grown = set(seen)
            got = distinct_raws(grown, raws, no_zeros)
            assert got == (raws.count(0) if ok else None), (raws, seen, no_zeros)
            if ok:
                assert grown == seen | set(nonzero)
            kinds[within, against, 0 in raws, no_zeros, ok] += 1
    # every cause of None occurs alone, and zeros pass without no_zeros
    for kind in (
        (True, False, False, False, False),
        (False, True, False, False, False),
        (False, False, True, True, False),
        (False, False, True, False, True),
        (False, False, False, False, True),
    ):
        assert kinds[kind], kind


def test_goodness_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="cap must be >= 0"):
        goodness(coloring_of(SQUARE, 2), cap=-1)
