import hashlib
from fractions import Fraction

import pytest

from dvsubset.generators import (
    circle_point,
    gen_cocircular_plus_noise,
    gen_collinear,
    gen_grid,
    gen_parallel_lines,
    gen_random,
    gen_sphere2d,
)
from dvsubset.geometry import affine_rank, format_pointset

from helpers import pair_distance_census, sq_dist

F = Fraction


def coords(pset):
    return [p.coords for p in pset]


# ------------------------------------------------------------------------ grid


def test_grid_row_major_order():
    ps = gen_grid(2, 3)
    assert len(ps) == 9
    assert ps.coords(0) == (F(0), F(0))
    assert ps.coords(1) == (F(0), F(1))
    assert ps.coords(4) == (F(1), F(1))
    assert ps.coords(8) == (F(2), F(2))


def test_grid_distance_censuses():
    # 3x3: distances^2 {1,2,4,5,8}; 4x4 adds {9,10,13,18}
    c3 = pair_distance_census(coords(gen_grid(2, 3)))
    assert sorted(c3) == [1, 2, 4, 5, 8]
    c4 = pair_distance_census(coords(gen_grid(2, 4)))
    assert sorted(c4) == [1, 2, 4, 5, 8, 9, 10, 13, 18]
    assert sum(c4.values()) == 16 * 15 // 2


def test_grid_budget_guard():
    with pytest.raises(ValueError):
        gen_grid(3, 101)
    with pytest.raises(ValueError):
        gen_grid(0, 2)


# -------------------------------------------------------------- parallel lines


def test_parallel_lines_small_example():
    ps = gen_parallel_lines(2, 6)
    assert coords(ps) == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(0), F(2)),
        (F(1), F(0)),
        (F(1), F(1)),
        (F(1), F(2)),
    ]


def test_parallel_lines_uneven_split():
    ps = gen_parallel_lines(3, 7)
    # 7 over 3 lines: the first line gets the extra point
    by_base = {}
    for p in ps:
        by_base.setdefault(p.coords[:2], []).append(p.coords)
    assert sorted(len(v) for v in by_base.values()) == [2, 2, 3]
    for line in by_base.values():
        if len(line) >= 2:
            assert affine_rank(line) == 1


def test_parallel_lines_validation():
    with pytest.raises(ValueError):
        gen_parallel_lines(1, 5)
    with pytest.raises(ValueError):
        gen_parallel_lines(3, 2)


# ---------------------------------------------------------------------- random


def test_random_shape_and_denominator():
    ps = gen_random(2, 25, 100, seed=42)
    assert len(ps) == 25
    assert len({p.coords for p in ps}) == 25
    for p in ps:
        for c in p.coords:
            assert 0 <= c <= F(100, 100**2) * 100
            assert (c * 100**2).denominator == 1


def test_random_determinism_digest():
    text = format_pointset(gen_random(2, 10, 1000, seed=42))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == gen_random_digest_42()
    assert format_pointset(gen_random(2, 10, 1000, seed=43)) != text


def gen_random_digest_42():
    # frozen from the first run; any drift in the RNG or the text format
    # shows up here
    return "36ee563ffb23538e24f7ecd55a2f4c45207ab507be9ab4bafb78f6fa2f78e257"


def test_random_capacity_guard():
    with pytest.raises(ValueError):
        gen_random(1, 12, 10, seed=0)  # only 11 distinct points exist
    gen_random(1, 11, 10, seed=0)  # exactly full is fine


# --------------------------------------------------------------------- circles


def test_circle_point_values():
    assert circle_point(0) == (F(1), F(0))
    assert circle_point(1) == (F(0), F(1))
    assert circle_point(2) == (F(-3, 5), F(4, 5))


def test_circle_points_on_unit_circle():
    for u in range(20):
        x, y = circle_point(F(u, 3))
        assert x * x + y * y == 1


def test_sphere2d():
    ps = gen_sphere2d(12)
    assert len(ps) == 12
    for p in ps:
        x, y = p.coords
        assert x * x + y * y == 1


def test_cocircular_plus_noise_layout():
    ps = gen_cocircular_plus_noise(6, 3, seed=9)
    assert len(ps) == 10
    origin = ps.coords(0)
    assert origin == (F(0), F(0))
    for i in range(1, 7):
        assert sq_dist(origin, ps.coords(i)) == 1
    # noise points are generic: not at distance 1 from the origin
    for i in range(7, 10):
        assert sq_dist(origin, ps.coords(i)) != 1


def test_collinear_layout():
    ps = gen_collinear(5, 3, seed=4)
    assert len(ps) == 8
    for i in range(5):
        assert ps.coords(i) == (F(i), F(0))
    for i in range(5, 8):
        assert ps.coords(i)[1] != 0


def test_collinear_validation():
    with pytest.raises(ValueError):
        gen_collinear(1)
    with pytest.raises(ValueError, match="need n_line >= 2"):
        gen_collinear(3, 2, 0, coord_bound=0)


def test_argument_checks():
    for args in ((0, 5, 10), (2, 0, 10), (2, 5, 0)):
        with pytest.raises(ValueError, match="need d >= 1"):
            gen_random(*args, seed=0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        gen_sphere2d(0)
    for args in ((0, 2, 0), (3, -1, 0), (3, 2, 0, 0)):
        with pytest.raises(ValueError, match="need n_circle >= 1"):
            gen_cocircular_plus_noise(*args)


def noise_grid(c):
    den = c * c
    return {(F(i, den), F(j, den)) for i in range(c + 1) for j in range(c + 1)}


@pytest.mark.parametrize("c", [1, 2, 3])
def test_noise_takes_every_free_grid_point_and_no_more(c):
    # the free points are the grid minus the rows on it (collinear: minus the
    # row y = 0); a draw of all of them re-draws until it has each one, and
    # one more is refused before the first draw instead of drawing forever
    for n_circle in (1, 2, 3):
        rows = [(F(0), F(0))] + [circle_point(u) for u in range(n_circle)]
        free = noise_grid(c) - set(rows)
        ps = gen_cocircular_plus_noise(n_circle, len(free), seed=c, coord_bound=c)
        assert set(coords(ps)[len(rows):]) == free
        with pytest.raises(ValueError, match=f"only {len(free)} grid points are free for noise"):
            gen_cocircular_plus_noise(n_circle, len(free) + 1, seed=c, coord_bound=c)
    free = {p for p in noise_grid(c) if p[1]}
    assert set(coords(gen_collinear(2, len(free), seed=c, coord_bound=c))[2:]) == free
    with pytest.raises(ValueError, match=f"only {len(free)} grid points lie off the line"):
        gen_collinear(2, len(free) + 1, seed=c, coord_bound=c)


def test_small_grid_draws_pinned():
    # 6 of 9 grid points are off the line and all 6 are drawn: draws on the
    # line and repeats are re-drawn, in a fixed order
    ps = gen_collinear(2, 6, seed=0, coord_bound=2)
    q = F(1, 4)
    assert coords(ps)[2:] == [(q, q), (2 * q, 2 * q), (2 * q, q), (0, 2 * q), (0, q), (q, 2 * q)]


def test_generators_are_deterministic():
    for make in (
        lambda: gen_random(2, 8, 50, seed=3),
        lambda: gen_cocircular_plus_noise(4, 4, seed=3),
        lambda: gen_collinear(4, 2, seed=3),
    ):
        assert format_pointset(make()) == format_pointset(make())
