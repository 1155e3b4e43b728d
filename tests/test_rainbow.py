from fractions import Fraction
from itertools import combinations

import pytest

from dvsubset.coloring import ColorKey, build_coloring, goodness
from dvsubset.generators import gen_cocircular_plus_noise, gen_grid, gen_random
from dvsubset.geometry import PointSet
from dvsubset.rainbow import (
    BadEdgeWitness,
    ExtractionFailure,
    RainbowResult,
    as_upper,
    expected_conflict_bound,
    extract_rainbow,
    find_bad_edge,
    sample_conflicts,
)

from helpers import frac_coords, global_same_color_pairs, pair_distance_census

F = Fraction

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def square_coloring():
    return build_coloring(PointSet(2, SQUARE), 2)


def line_coloring(n):
    return build_coloring(PointSet(1, [(i,) for i in range(n)]), 2)


def is_rainbow(coloring, ids):
    groups = {}
    for edge in combinations(sorted(ids), coloring.a):
        key = coloring.colors[edge]
        if key.is_volume:
            groups.setdefault(key, 0)
            groups[key] += 1
    return all(c == 1 for c in groups.values())


# -------------------------------------------------------------------- formulas


def test_expected_conflict_bound_values():
    assert expected_conflict_bound(500, 2, 1, 5) == 5
    assert expected_conflict_bound(1000, 2, 1, 5) == F(5, 2)
    assert expected_conflict_bound(8192, 3, 2, 4) == 4


def test_as_upper_values():
    assert as_upper(2, 1, 10, 0) == 125
    assert as_upper(2, 1, 10, 1) == 50
    assert as_upper(3, 1, 10, 2) == 250


def test_formula_validation():
    with pytest.raises(ValueError):
        expected_conflict_bound(0, 2, 1, 5)
    with pytest.raises(ValueError):
        expected_conflict_bound(10, 1, 1, 5)
    with pytest.raises(ValueError):
        as_upper(2, 1, 10, 2)  # s must stay below k
    with pytest.raises(ValueError):
        as_upper(2, 1, 10, -1)
    with pytest.raises(ValueError):
        as_upper(1, 1, 10, 0)


# ------------------------------------------------------------ sample conflicts


def test_square_sample_conflicts():
    # n = 2t, so the sample is the whole square whatever the seed
    stats = sample_conflicts(square_coloring(), 2, seed=0)
    assert stats.sample == [0, 1, 2, 3]
    assert stats.count == 7
    assert stats.per_s_counts == [3, 4]
    # independent enumeration: four unit edges pair up 6 ways, two diagonals 1
    got = {frozenset((e1, e2)) for e1, e2, _ in stats.pairs}
    unit = [(0, 1), (0, 2), (1, 3), (2, 3)]
    expect = {frozenset(p) for p in combinations(unit, 2)}
    expect.add(frozenset([(0, 3), (1, 2)]))
    assert got == expect


def test_sample_conflicts_s_values():
    stats = sample_conflicts(square_coloring(), 2, seed=0)
    for e1, e2, s in stats.pairs:
        assert s == len(set(e1) & set(e2))


def test_sample_conflicts_needs_room():
    with pytest.raises(ValueError):
        sample_conflicts(square_coloring(), 3, seed=0)
    with pytest.raises(ValueError):
        sample_conflicts(square_coloring(), 0, seed=0)


def test_sample_conflicts_deterministic():
    col = build_coloring(gen_random(2, 40, 100, seed=8), 2)
    a = sample_conflicts(col, 10, seed=5)
    b = sample_conflicts(col, 10, seed=5)
    assert a.to_json() == b.to_json()
    assert len(a.sample) == 20
    assert len(set(a.sample)) == 20


def test_mean_conflicts_within_expected_bound():
    # the sampling bound is loose; 100 draws should sit well under it
    pset = gen_random(2, 108, 10**4, seed=3)
    col = build_coloring(pset, 2)
    m_obs = goodness(col).observed_m
    bound = expected_conflict_bound(108, 2, m_obs, 3)
    total = sum(sample_conflicts(col, 3, seed=s).count for s in range(100))
    assert F(total, 100) <= bound


# ------------------------------------------------------------------ extraction


def test_trivial_when_t_at_most_a():
    res = extract_rainbow(square_coloring(), 2, m=2, seed=9)
    assert isinstance(res, RainbowResult)
    assert res.subset == [0, 1]
    assert res.retries_used == 0
    assert res.conflicts_in_accepted_sample == 0


def test_square_extraction_fails_at_t3():
    res = extract_rainbow(square_coloring(), 3, m=2, seed=0, max_retries=4)
    assert isinstance(res, ExtractionFailure)
    assert res.attempts == 4
    assert res.best_stats.count == 7
    assert len(res.seeds_tried) == 4
    assert res.to_json()["failure"] is True


def test_random_extraction_succeeds():
    pset = gen_random(2, 200, 10**6, seed=1)
    col = build_coloring(pset, 2)
    res = extract_rainbow(col, 4, m=1, seed=0)
    assert isinstance(res, RainbowResult)
    assert len(res.subset) >= 4
    assert is_rainbow(col, res.subset)
    # distances inside the subset are pairwise distinct
    census = pair_distance_census([pset.coords(i) for i in res.subset])
    assert all(c == 1 for c in census.values())


def test_extraction_deterministic():
    col = build_coloring(gen_random(2, 120, 10**5, seed=4), 2)
    r1 = extract_rainbow(col, 5, m=1, seed=7)
    r2 = extract_rainbow(col, 5, m=1, seed=7)
    assert r1.to_json() == r2.to_json()


def test_extraction_deletes_conflicts_when_needed():
    # coarse coordinates repeat distances often enough that accepted samples
    # carry conflicts which deletion must clean up
    col = build_coloring(gen_random(2, 60, 20, seed=5), 2)
    saw_deletion = False
    for seed in range(10):
        res = extract_rainbow(col, 5, m=1, seed=seed)
        assert isinstance(res, RainbowResult)
        assert is_rainbow(col, res.subset)
        assert len(res.subset) >= 5
        if res.conflicts_in_accepted_sample > 0:
            saw_deletion = True
    assert saw_deletion


def test_extraction_validation():
    col = square_coloring()
    with pytest.raises(ValueError):
        extract_rainbow(col, 0, m=1, seed=0)
    with pytest.raises(ValueError):
        extract_rainbow(col, 5, m=1, seed=0)  # t > n


# ------------------------------------------------------------------- bad edges


def test_find_bad_edge_on_the_line():
    col = line_coloring(4)
    w = find_bad_edge(col, [0, 1, 2, 3], 1)
    assert isinstance(w, BadEdgeWitness)
    assert w.tuple_ids == (1,)
    assert w.extensions == [0, 2]
    assert w.edge == (0, 1)
    assert w.color == ColorKey.from_volume(1)
    assert find_bad_edge(col, [0, 1, 2, 3], 2) is None


def test_find_bad_edge_counts_over_full_ground_set():
    col = line_coloring(4)
    # the scan anchors only inside ids, but classes extend over everything
    assert find_bad_edge(col, [1], 1) is not None
    assert find_bad_edge(col, [0, 3], 1) is None


def test_find_bad_edge_tie_breaks():
    col = line_coloring(5)
    # anchor (2,) holds two classes of size two; the smaller volume wins
    w = find_bad_edge(col, [2], 1)
    assert w.tuple_ids == (2,)
    assert w.color == ColorKey.from_volume(1)
    assert w.extensions == [1, 3]
    assert w.edge == (1, 2)


def test_find_bad_edge_json():
    w = find_bad_edge(line_coloring(4), [1], 1)
    assert w.to_json() == {
        "edge": [0, 1],
        "tuple": [1],
        "color": {"kind": "volume", "value": "1/1"},
        "extensions": [0, 2],
    }


# --------------------------------------------------------- bad-edge watch


def test_fast_returns_witness_for_cocircular_center():
    pset = gen_cocircular_plus_noise(8, 4, seed=2)
    col = build_coloring(pset, 2)
    res = extract_rainbow(col, 5, m=3, seed=0, watch=True)
    assert isinstance(res, BadEdgeWitness)
    assert res.tuple_ids == (0,)
    assert res.color == ColorKey.from_volume(1)
    assert res.extensions == list(range(1, 9))


def test_fast_witness_on_square_with_tight_budget():
    res = extract_rainbow(square_coloring(), 3, m=1, seed=0, watch=True)
    assert isinstance(res, BadEdgeWitness)
    assert len(res.extensions) > 1


def test_fast_failure_mirrors_plain_when_no_bad_edge():
    res = extract_rainbow(square_coloring(), 3, m=2, seed=0, max_retries=4, watch=True)
    assert isinstance(res, ExtractionFailure)
    assert res.best_stats.count == 7


def test_fast_matches_plain_on_clean_instances():
    col = build_coloring(gen_random(2, 150, 10**6, seed=6), 2)
    m = goodness(col).observed_m
    plain = extract_rainbow(col, 5, m=m, seed=2)
    fast = extract_rainbow(col, 5, m=m, seed=2, watch=True)
    assert isinstance(plain, RainbowResult)
    assert plain.to_json() == fast.to_json()


def test_fast_trivial_when_t_small():
    res = extract_rainbow(square_coloring(), 1, m=1, seed=0, watch=True)
    assert res.subset == [0]


# ------------------------------------------------------------ global A_s check


def test_global_pair_counts_below_as_upper():
    cases = [
        (gen_grid(2, 4), 2),
        (gen_random(2, 24, 50, seed=12), 2),
        (gen_random(2, 14, 30, seed=13), 3),
    ]
    for pset, a in cases:
        col = build_coloring(pset, a)
        m_obs = goodness(col).observed_m
        per_s = global_same_color_pairs(col)
        n = len(pset)
        for s, count in per_s.items():
            assert count <= as_upper(a, m_obs, n, s)
