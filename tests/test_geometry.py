from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsubset.geometry import (
    PointSet,
    affine_rank,
    det_bareiss,
    det_laplace,
    format_pointset,
    parse_pointset,
    squared_volume,
    squared_volume_cm,
)
from dvsubset.rng import SplitMix64

from helpers import det_perm_expansion, frac_coords, fraction_affine_rank, tri_area_sq

F = Fraction


# ---------------------------------------------------------------- determinants


def random_int_matrix(rng, n, span=9):
    return [
        [rng.below(2 * span + 1) - span for _ in range(n)] for _ in range(n)
    ]


def test_det_routes_match_permutation_expansion():
    rng = SplitMix64(7)
    for n in range(1, 6):
        for _ in range(40):
            m = random_int_matrix(rng, n)
            # the same matrix with a pivot-free column before pivot columns:
            # column 0 zeroed, or column 1 a multiple of column 0
            k = rng.below(5) - 2
            zero_first = [[0, *r[1:]] for r in m]
            parallel = [[r[0], k * r[0], *r[2:]] for r in m] if n >= 2 else m
            for mat in (m, zero_first, parallel):
                expect = det_perm_expansion(mat)
                assert det_bareiss(mat) == expect
                assert det_laplace([[F(x) for x in row] for row in mat]) == expect


def test_det_zero_leading_minor():
    # forces a pivot swap in the elimination route
    m = [[0, 1, 2], [3, 0, 4], [5, 6, 0]]
    expect = det_perm_expansion(m)
    assert expect != 0
    assert det_bareiss(m) == expect
    assert det_laplace(m) == expect


def test_det_singular():
    for m in (
        [[1, 2, 3], [2, 4, 6], [7, 8, 9]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 7]],  # no pivot in column 0, pivots after it
        [[1, 2, 3], [2, 4, 5], [3, 6, 8]],  # no pivot in column 1, one in column 2
        [[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 2, 5], [1, 2, 1, 2]],
    ):
        assert det_bareiss(m) == 0
        assert det_laplace(m) == 0


def test_det_empty_is_one():
    assert det_bareiss([]) == 1
    assert det_laplace([]) == 1


# ------------------------------------------------------------- pinned volumes


def test_segment_squared_length():
    pts = frac_coords([(0, 0), (3, 4)])
    assert squared_volume(pts) == 25
    assert squared_volume_cm(pts) == 25


def test_right_triangle_squared_area():
    pts = frac_coords([(0, 0), (1, 0), (0, 1)])
    assert squared_volume(pts) == F(1, 4)
    assert squared_volume_cm(pts) == F(1, 4)


def test_unit_tetrahedron_squared_volume():
    pts = frac_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert squared_volume(pts) == F(1, 36)
    assert squared_volume_cm(pts) == F(1, 36)


def test_triangle_against_shoelace():
    pts = frac_coords([(0, 0), (2, 0), (1, 7)])
    expect = tri_area_sq(*pts)
    assert expect == 49
    assert squared_volume(pts) == expect
    assert squared_volume_cm(pts) == expect


def test_fractional_coordinates():
    pts = [(F(1, 2), F(1, 3)), (F(5, 2), F(1, 3))]
    assert squared_volume(pts) == 4
    assert squared_volume_cm(pts) == 4


def test_accepts_pointset_rows():
    ps = PointSet(2, [(0, 0), (3, 4)])
    assert squared_volume([ps[0], ps[1]]) == 25


# ----------------------------------------------------------------- invariance


def random_points(rng, n, d, span=6):
    pts = []
    seen = set()
    while len(pts) < n:
        p = tuple(
            F(rng.below(2 * span + 1) - span, 1 + rng.below(3))
            for _ in range(d)
        )
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def test_routes_agree_on_random_simplices():
    rng = SplitMix64(11)
    for a, d in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4)]:
        for _ in range(30):
            pts = random_points(rng, a, d)
            assert squared_volume(pts) == squared_volume_cm(pts)


def test_vertex_order_invariance():
    pts = frac_coords([(0, 0, 0), (1, 2, 0), (0, 3, 5), (7, 1, 2)])
    base = squared_volume(pts)
    for order in [(3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]:
        assert squared_volume([pts[i] for i in order]) == base


def test_translation_invariance():
    pts = frac_coords([(0, 0), (2, 1), (5, 3)])
    shift = (F(7, 3), F(-11, 5))
    shifted = [(x + shift[0], y + shift[1]) for x, y in pts]
    assert squared_volume(shifted) == squared_volume(pts)


def test_scaling_law():
    # scaling space by lam multiplies squared (a-1)-volume by lam^(2(a-1))
    pts = frac_coords([(0, 0, 0), (1, 2, 0), (0, 3, 5), (7, 1, 2)])
    lam = F(3, 2)
    for a in (2, 3, 4):
        base = squared_volume(pts[:a])
        scaled = [tuple(lam * c for c in p) for p in pts[:a]]
        assert squared_volume(scaled) == lam ** (2 * (a - 1)) * base


small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(small_frac, small_frac), min_size=3, max_size=3, unique=True
    )
)
def test_property_triangle_routes_and_shoelace(rows):
    v = squared_volume(rows)
    assert v == squared_volume_cm(rows)
    assert v == tri_area_sq(*rows)


# ----------------------------------------------------------------- degeneracy


def test_collinear_triple_is_degenerate():
    pts = frac_coords([(0, 0), (1, 1), (3, 3)])
    assert squared_volume(pts) == 0
    assert squared_volume_cm(pts) == 0
    assert affine_rank(pts) == 1


def test_degeneracy_matches_affine_rank():
    rng = SplitMix64(23)
    for _ in range(60):
        pts = random_points(rng, 3, 2)
        if rng.below(2):
            # force the third point onto the line through the first two
            t = F(rng.below(7) + 2)
            third = tuple(
                p0 + t * (p1 - p0) for p0, p1 in zip(pts[0], pts[1])
            )
            if third in pts[:2]:
                continue
            pts[2] = third
        degenerate = squared_volume(pts) == 0
        assert degenerate == (affine_rank(pts) < 2)
        assert degenerate == (squared_volume_cm(pts) == 0)


def test_affine_rank_cases():
    pts = frac_coords(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2)]
    )
    assert affine_rank(pts[:1]) == 0
    assert affine_rank(pts[:2]) == 1
    assert affine_rank(pts[:3]) == 2
    assert affine_rank(pts[:4]) == 2  # coplanar square
    assert affine_rank([pts[0], pts[1], pts[2], pts[4]]) == 3
    assert affine_rank(pts) == 3


def test_affine_rank_matches_fraction_elimination():
    # every (a, d) simplex shape, with the last vertex often forced onto the
    # affine hull of the others, plus more points than d+1
    rng = SplitMix64(31)
    for a, d in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 3)]:
        ranks = set()
        for k in range(40):
            pts = random_points(rng, a, d)
            if k % 2 and a >= 3:
                w = [F(rng.below(5) - 2, 1 + rng.below(3)) for _ in range(a - 1)]
                w[0] += 1 - sum(w)
                pts[-1] = tuple(sum(wi * p[j] for wi, p in zip(w, pts)) for j in range(d))
            rank = affine_rank(pts)
            assert rank == fraction_affine_rank(pts), pts
            ranks.add(rank)
        assert min(a - 1, d) in ranks
        if 3 <= a <= d + 1:
            assert a - 2 in ranks  # the degenerate simplices
    # points on axis-parallel lines and planes in 3-D: their differences
    # have an all-zero coordinate column before or between the pivot columns
    for fixed in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}):
        ranks = set()
        for a in (2, 3, 4, 5):
            for _ in range(10):
                pts = [tuple(F(5, 3) if j in fixed else c for j, c in enumerate(p))
                       for p in random_points(rng, a, 3)]
                rank = affine_rank(pts)
                assert rank == fraction_affine_rank(pts), pts
                ranks.add(rank)
        assert max(ranks) == 3 - len(fixed)


# ----------------------------------------------------------------- validation


def test_pointset_rejects_bad_input():
    with pytest.raises(ValueError):
        PointSet(0, [()])
    with pytest.raises(ValueError):
        PointSet(2, [(0, 0), (1,)])
    with pytest.raises(ValueError):
        PointSet(2, [(0, 0), (0, 0)])


def test_volume_input_validation():
    with pytest.raises(ValueError):
        squared_volume([(0, 0)])  # single point
    with pytest.raises(ValueError):
        squared_volume([(0, 0), (0, 0)])  # repeated point
    with pytest.raises(ValueError):
        squared_volume([(0, 0), (1, 0), (0,)])  # mixed dimension
    with pytest.raises(ValueError):
        squared_volume([(0,), (1,), (2,)])  # a=3 needs d >= 2
    with pytest.raises(ValueError):
        squared_volume_cm([(0, 0)])
    with pytest.raises(ValueError, match="empty point list"):
        squared_volume([])


# ----------------------------------------------------------- text round trips


def test_parse_format_roundtrip():
    text = "2 3\n0 0\n1/2 -3/7\n-2 5/3\n"
    ps = parse_pointset(text)
    assert ps.dimension == 2
    assert len(ps) == 3
    assert ps.coords(1) == (F(1, 2), F(-3, 7))
    assert parse_pointset(format_pointset(ps)).coords(2) == (F(-2), F(5, 3))
    assert format_pointset(parse_pointset(format_pointset(ps))) == format_pointset(ps)


def test_parse_skips_comments_and_blanks():
    text = "# lattice sample\n1 2\n\n0\n# middle note\n7\n"
    ps = parse_pointset(text)
    assert [ps.coords(i) for i in range(2)] == [(F(0),), (F(7),)]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pointset("")
    with pytest.raises(ValueError):
        parse_pointset("2\n0 0\n")
    with pytest.raises(ValueError):
        parse_pointset("2 2\n0 0\n")  # missing a row
    with pytest.raises(ValueError):
        parse_pointset("2 1\n0 0 0\n")  # row width mismatch
    with pytest.raises(ValueError):
        parse_pointset("2 2\n0 0\n0 0\n")  # duplicate point
    with pytest.raises(ValueError, match=r"^duplicate point at ids 0 and 2$"):
        PointSet(2, [(0, 0), (1, 0), (0, 0)])
    # duplicates are found on reduced (num, den) keys, whatever the spelling
    with pytest.raises(ValueError, match=r"^duplicate point at ids 0 and 1$"):
        PointSet(1, [(F(1, 2),), ("2/4",)])
    with pytest.raises(ValueError, match=r"^duplicate point at ids 0 and 1$"):
        PointSet(1, [(1,), (F(1),)])
    with pytest.raises(ValueError, match=r"^duplicate point at ids 1 and 2$"):
        PointSet(2, [(0, 0), (1, F(1, 3)), (F(1), "1/3")])
    with pytest.raises(ValueError):
        parse_pointset("2 1\n0 x\n")


def test_save_load_roundtrip(tmp_path):
    from dvsubset.geometry import load_pointset, save_pointset

    ps = PointSet(2, [(F(1, 3), F(-2, 7)), (4, 5)])
    path = tmp_path / "pts.txt"
    save_pointset(ps, path)
    back = load_pointset(path)
    assert [p.coords for p in back] == [p.coords for p in ps]


def test_scaled_coordinates_are_consistent():
    ps = PointSet(2, [(F(1, 2), F(1, 3)), (F(1, 5), 2)])
    lcms, columns = ps.axis_columns
    assert lcms == [10, 3]
    assert ps.scale == 30
    for i in range(2):
        assert tuple(F(col[i], s) for s, col in zip(lcms, columns)) == ps.coords(i)


def test_subset_renumbers_in_order():
    ps = PointSet(2, [(0, 0), (1, 0), (2, 5), (3, 1)])
    sub = ps.subset([3, 1])
    assert len(sub) == 2
    assert sub.coords(0) == (F(3), F(1))
    assert sub.coords(1) == (F(1), F(0))
