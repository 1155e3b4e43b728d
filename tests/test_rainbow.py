from fractions import Fraction
from itertools import combinations

import pytest

from dvsubset import rainbow
from dvsubset.bounds import as_upper, expected_conflict_bound
from dvsubset.coloring import ColorKey, build_coloring, goodness
from dvsubset.generators import gen_cocircular_plus_noise, gen_collinear, gen_grid, gen_random
from dvsubset.geometry import PointSet
from dvsubset.rainbow import (
    BadEdgeWitness,
    ExtractionFailure,
    RainbowResult,
    _conflicts_within,
    _delete_conflicts,
    extract_rainbow,
    find_bad_edge,
    sample_conflicts,
)
from dvsubset.rng import SplitMix64

from helpers import (
    frac_coords,
    global_same_color_pairs,
    pair_distance_census,
    reference_bad_edge,
    reference_delete_conflicts,
)

F = Fraction

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def square_coloring():
    return build_coloring(PointSet(2, SQUARE), 2)


def line_coloring(n):
    return build_coloring(PointSet(1, [(i,) for i in range(n)]), 2)


def is_rainbow(coloring, ids):
    groups = {}
    for edge in combinations(sorted(ids), coloring.a):
        key = coloring.color_of(edge)
        if key.is_volume:
            groups.setdefault(key, 0)
            groups[key] += 1
    return all(c == 1 for c in groups.values())


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
    assert a == b
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
    res = extract_rainbow(square_coloring(), 2, seed=9)
    assert isinstance(res, RainbowResult)
    assert res.subset == [0, 1]
    assert res.retries_used == 0
    assert res.conflicts_in_accepted_sample == 0


def test_square_extraction_fails_at_t3():
    res = extract_rainbow(square_coloring(), 3, seed=0, max_retries=4)
    assert isinstance(res, ExtractionFailure)
    assert res.attempts == 4
    assert res.best_stats.count == 7
    assert len(res.seeds_tried) == 4
    assert res.to_json()["failure"] is True


def test_rejected_sample_is_not_scanned_again(monkeypatch):
    # at t=3 on 4 points every sample is the whole square: the first attempt
    # scans it and rejects it, and the three redraws of that same sample are
    # skipped, while the report still counts all four attempts and seeds
    scans = []

    def counted(coloring, ids):
        scans.append(list(ids))
        return _conflicts_within(coloring, ids)

    monkeypatch.setattr(rainbow, "_conflicts_within", counted)
    res = extract_rainbow(square_coloring(), 3, seed=0, max_retries=4)
    assert scans == [[0, 1, 2, 3]]
    assert isinstance(res, ExtractionFailure)
    assert res.attempts == 4 and len(res.seeds_tried) == 4
    assert res.best_stats.count == 7


def test_random_extraction_succeeds():
    pset = gen_random(2, 200, 10**6, seed=1)
    col = build_coloring(pset, 2)
    res = extract_rainbow(col, 4, seed=0)
    assert isinstance(res, RainbowResult)
    assert len(res.subset) >= 4
    assert is_rainbow(col, res.subset)
    # distances inside the subset are pairwise distinct
    census = pair_distance_census([pset.coords(i) for i in res.subset])
    assert all(c == 1 for c in census.values())


def test_extraction_deterministic():
    col = build_coloring(gen_random(2, 120, 10**5, seed=4), 2)
    r1 = extract_rainbow(col, 5, seed=7)
    r2 = extract_rainbow(col, 5, seed=7)
    assert r1 == r2


def test_extraction_deletes_conflicts_when_needed():
    # coarse coordinates repeat distances often enough that accepted samples
    # carry conflicts which deletion must clean up
    col = build_coloring(gen_random(2, 60, 20, seed=5), 2)
    saw_deletion = False
    for seed in range(10):
        res = extract_rainbow(col, 5, seed=seed)
        assert isinstance(res, RainbowResult)
        assert is_rainbow(col, res.subset)
        assert len(res.subset) >= 5
        if res.conflicts_in_accepted_sample > 0:
            saw_deletion = True
    assert saw_deletion


def test_delete_conflicts_matches_the_quadratic_reference():
    # the heap picks the same victims, in the same order, as recounting the
    # cover of every remaining pair after each deletion: same survivors on
    # 540 seeded samples, dense in conflicts on the grid and the small-bound sets
    sets = [
        gen_random(2, 40, 12, seed=5),
        gen_cocircular_plus_noise(12, 20, seed=6, coord_bound=8),
        gen_grid(2, 6),
    ]
    rng = SplitMix64(17)
    samples = victims = 0
    for pset in sets:
        for a in (2, 3):
            coloring = build_coloring(pset, a)
            for _ in range(90):
                ids = rng.sample(len(pset), 6 + rng.below(9 if a == 2 else 5))
                pairs, _ = _conflicts_within(coloring, ids)
                got = _delete_conflicts(ids, pairs)
                assert got == reference_delete_conflicts(ids, pairs), (a, ids)
                samples += 1
                victims += len(ids) - len(got)
    assert samples == 540 and victims > 1000


def test_extraction_validation():
    col = square_coloring()
    with pytest.raises(ValueError):
        extract_rainbow(col, 0, seed=0)
    with pytest.raises(ValueError):
        extract_rainbow(col, 5, seed=0)  # t > n


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


@pytest.mark.parametrize(
    "pset",
    [
        gen_random(2, 12, 9, seed=1),  # small coordinates force ties
        gen_cocircular_plus_noise(8, 4, seed=3),
        gen_grid(2, 4),
        gen_random(3, 10, 6, seed=2),
    ],
    ids=["random", "cocircular", "grid4", "random3d"],
)
def test_find_bad_edge_matches_census_reference(pset):
    n = len(pset)
    coords = [p.coords for p in pset]
    perm = SplitMix64(n).sample(n, n)
    for a in range(2, pset.dimension + 2):
        col = build_coloring(pset, a)
        # too short for an anchor, one anchor, and several ascending or not
        id_lists = [[], perm[: a - 2], perm[: a - 1], perm[: a + 1], perm[n // 2 :], list(range(n))]
        for ids in id_lists:
            for m in range(goodness(col).observed_m + 2):
                w = find_bad_edge(col, ids, m)
                got = None if w is None else (w.edge, w.tuple_ids, w.color.value, w.extensions)
                assert got == reference_bad_edge(coords, a, ids, m), (a, ids, m)


def test_find_bad_edge_none_on_a_degenerate_coloring():
    # every triangle on a line is degenerate: no class at all, even at m=0
    col = build_coloring(gen_collinear(6), 3)
    assert find_bad_edge(col, range(6), 0) is None


def test_find_bad_edge_json():
    w = find_bad_edge(line_coloring(4), [1], 1)
    assert (w.edge, w.tuple_ids, w.extensions, w.attempt) == ((0, 1), (1,), [0, 2], 0)
    assert w.color.to_json() == {"kind": "volume", "value": "1/1"}


# --------------------------------------------------------- bad-edge watch


def test_fast_returns_witness_for_cocircular_center():
    pset = gen_cocircular_plus_noise(8, 4, seed=2)
    col = build_coloring(pset, 2)
    res = extract_rainbow(col, 5, seed=0, watch=3)
    assert isinstance(res, BadEdgeWitness)
    assert res.tuple_ids == (0,)
    assert res.color == ColorKey.from_volume(1)
    assert res.extensions == list(range(1, 9))


def test_fast_witness_on_square_with_tight_budget():
    res = extract_rainbow(square_coloring(), 3, seed=0, watch=1)
    assert isinstance(res, BadEdgeWitness)
    assert len(res.extensions) > 1


def test_fast_failure_mirrors_plain_when_no_bad_edge():
    res = extract_rainbow(square_coloring(), 3, seed=0, max_retries=4, watch=2)
    assert isinstance(res, ExtractionFailure)
    assert res.best_stats.count == 7


def test_fast_matches_plain_on_clean_instances():
    col = build_coloring(gen_random(2, 150, 10**6, seed=6), 2)
    m = goodness(col).observed_m
    plain = extract_rainbow(col, 5, seed=2)
    fast = extract_rainbow(col, 5, seed=2, watch=m)
    assert isinstance(plain, RainbowResult)
    assert plain == fast


def test_fast_trivial_when_t_small():
    res = extract_rainbow(square_coloring(), 1, seed=0, watch=1)
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
