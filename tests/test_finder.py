import io
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from dvsubset import finder, rainbow
from dvsubset.bounds import int_nth_root
from dvsubset.cli import run
from dvsubset.coloring import ColorKey, Coloring, build_coloring, distinct_zeros, goodness
from dvsubset.finder import (
    FindRequest,
    FindResult,
    GeneralPositionError,
    brute_force_max,
    find_subset,
    general_position_check,
    greedy_augment,
    verify_subset,
)
from dvsubset.generators import gen_cocircular_plus_noise, gen_collinear, gen_grid, gen_random
from dvsubset.geometry import PointSet, det_laplace, load_pointset, squared_volume
from dvsubset.rainbow import ExtractionFailure
from dvsubset.rng import SplitMix64, derive_seed

from helpers import census_verify, first_fit_growth, judge, reference_goodness, slow_max_distinct

GOLDEN = Path(__file__).resolve().parent / "golden"

F = Fraction

SQUARE = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
LINE4 = PointSet(1, [(0,), (1,), (2,), (3,)])
# three on the x-axis, one far enough off it that all triangles differ
MIXED = PointSet(2, [(0, 0), (1, 0), (3, 0), (0, 1)])


# ---------------------------------------------------------------- verification


def test_verify_square_full_set():
    report = verify_subset(SQUARE, [0, 1, 2, 3], 2)
    assert not report.valid
    assert report.zero_edges == 0
    sizes = sorted(len(edges) for _, edges in report.duplicate_groups)
    assert sizes == [2, 4]
    keys = {key for key, _ in report.duplicate_groups}
    assert keys == {ColorKey.from_volume(1), ColorKey.from_volume(2)}


def test_verify_square_pair():
    report = verify_subset(SQUARE, [0, 1], 2)
    assert report.valid
    assert report.duplicate_groups == []


def test_verify_variants_split_on_degeneracy():
    report = verify_subset(MIXED, [0, 1, 2, 3], 3, variant="h")
    assert report.valid
    assert report.zero_edges == 1
    report = verify_subset(MIXED, [0, 1, 2, 3], 3, variant="h_prime")
    assert not report.valid
    assert report.zero_edges == 1
    assert report.duplicate_groups == []


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_subset(SQUARE, [0, 0, 1], 2)
    with pytest.raises(ValueError):
        verify_subset(SQUARE, [0, 9], 2)
    with pytest.raises(ValueError):
        verify_subset(SQUARE, [0], 2)
    with pytest.raises(ValueError):
        verify_subset(SQUARE, [0, 1, 2], 4)
    with pytest.raises(ValueError):
        verify_subset(SQUARE, [0, 1], 2, variant="strict")


def test_verify_json_shape():
    j = verify_subset(SQUARE, [0, 1, 2, 3], 2).to_json()
    assert j["valid"] is False
    assert j["zero_edges"] == 0
    assert {g["color"]["value"] for g in j["duplicate_groups"]} == {"1/1", "2/1"}


def test_verify_reads_a_valid_subset_once(monkeypatch):
    # a valid subset is decided by the scan alone: the grouping pass, the
    # only reader of raw_items here, never runs
    def grouping(*args):
        raise AssertionError("grouping pass on a valid subset")

    pset = load_pointset(GOLDEN / "mixed.txt")
    monkeypatch.setattr(Coloring, "raw_items", grouping)
    for a in (2, 3):
        for variant in ("h", "h_prime"):
            report = verify_subset(pset, range(14), a, variant)
            assert report.valid and report.duplicate_groups == [] and report.zero_edges == 0
    report = verify_subset(MIXED, [3, 2, 1, 0], 3)
    assert report.valid and report.duplicate_groups == [] and report.zero_edges == 1
    line = PointSet(2, [(i, 3 * i) for i in range(5)])  # every triangle degenerate
    report = verify_subset(line, range(5), 3)
    assert report.valid and report.duplicate_groups == [] and report.zero_edges == 10


def test_verify_reports_match_census():
    rng = SplitMix64(17)
    sets = [
        gen_random(2, 12, 12, seed=2),
        gen_grid(2, 4),
        gen_collinear(6, 4, seed=1, coord_bound=30),
        load_pointset(GOLDEN / "axes3d.txt"),
    ]
    outcomes = set()
    for pset in sets:
        coords = [p.coords for p in pset]
        for a in range(2, pset.dimension + 2):
            for _ in range(12):
                ids = rng.sample(len(pset), a + rng.below(5))
                ids.reverse()  # verify sorts the ids itself
                for variant in ("h", "h_prime"):
                    report = verify_subset(pset, ids, a, variant)
                    got = (
                        report.valid,
                        [(key.value, edges) for key, edges in report.duplicate_groups],
                        report.zero_edges,
                    )
                    assert got == census_verify(coords, a, ids, variant), (a, ids, variant)
                    outcomes.add((report.valid, bool(report.duplicate_groups), variant))
    # valid, repeated volumes, and under h_prime degenerate edges alone
    assert {(True, False, "h"), (False, True, "h"), (False, False, "h_prime")} <= outcomes


# ------------------------------------------------------------ general position


def test_general_position_check():
    ok, witness = general_position_check(gen_grid(2, 3), 3)
    assert not ok
    assert witness == (0, 1, 2)
    ok, witness = general_position_check(SQUARE, 2)
    assert ok and witness is None
    ok, witness = general_position_check(MIXED, 3)
    assert not ok and witness == (0, 1, 2)


def test_general_position_witness_is_the_first_zero_edge():
    # the witness is the first degenerate edge in combinations order, here
    # at the front, behind noise, scattered, and absent
    line = gen_collinear(5, 3, seed=2)
    cases = [
        (line, 3),
        (PointSet(2, [p.coords for p in line][::-1]), 3),
        (gen_grid(2, 4), 3),
        (gen_random(2, 12, 6, seed=3), 3),
        (gen_random(2, 8, 10**6, seed=3), 3),
        (gen_grid(3, 3), 4),
        (PointSet(3, [(1, 0, 0), (0, F(1, 2), 1), (2, 1, 3)] + [(k, 2 * k, F(k, 3)) for k in range(4)]), 4),
        (gen_random(3, 9, 4, seed=4), 4),
        (gen_random(3, 9, 10**6, seed=4), 4),
    ]
    witnesses = []
    for pset, a in cases:
        edges = combinations(range(len(pset)), a)
        first = next((e for e in edges if squared_volume([pset.coords(i) for i in e]) == 0), None)
        assert general_position_check(pset, a) == (first is None, first)
        witnesses.append(first)
    assert witnesses.count(None) == 2 and len(set(witnesses)) == 7


def test_general_position_at_a2_reads_no_row(monkeypatch):
    # a PointSet holds no duplicate point, so no pair is degenerate: even
    # grid and collinear sets pass at a=2 without a row read
    def no_read(*args):
        raise AssertionError("a row was read")

    monkeypatch.setattr(Coloring, "row", no_read)
    for pset in (gen_random(2, 30, 12, seed=1), gen_grid(2, 4), gen_collinear(6, 2, seed=3)):
        assert general_position_check(pset, 2) == (True, None)


def test_empty_set_has_no_edges():
    empty = PointSet(2, [])
    for a in (2, 3):
        assert general_position_check(empty, a) == (True, None)
        assert greedy_augment(empty, [], a) == []
        assert greedy_augment(empty, [], a, "h_prime") == []


# ------------------------------------------------------------------- auto mode


def test_auto_on_square():
    res = find_subset(SQUARE, FindRequest(a=2))
    assert isinstance(res, FindResult)
    assert res.subset == [0, 1]
    assert res.certificate == "rainbow"
    assert res.t_target == 2
    assert res.observed_m == 2
    assert res.recursion_trace == []
    assert res.stats["mode"] == "auto"


def test_auto_whole_set_shortcut():
    ps = PointSet(1, [(0,), (1,), (3,)])
    res = find_subset(ps, FindRequest(a=2))
    assert res.subset == [0, 1, 2]
    assert res.stats.get("whole_set") is True


def test_whole_set_is_verified_once_and_never_grouped(monkeypatch):
    # a rainbow whole set answers without extraction and is verified once:
    # the whole-set scan of every edge, the one full row with which goodness
    # names the witness, then verify_subset's scan, so the search reads
    # 2 C(n, a) + n row values, under h_prime too, whose scan of zeros as
    # repeats also settles general position;
    # where goodness is 1 but a volume repeats, the whole set is never
    # verified, so its repeated volumes are never grouped
    verified, extracted, values = [], [], []
    check, extract, row = finder.verify_subset, finder.extract_rainbow, Coloring.row

    def counted_check(pset, subset, *rest):
        verified.append(len(subset))
        return check(pset, subset, *rest)

    def counted_extract(*args):
        extracted.append(args[1])
        return extract(*args)

    def counted_row(self, *args):
        out = row(self, *args)
        values.append(len(out))
        return out

    monkeypatch.setattr(finder, "verify_subset", counted_check)
    monkeypatch.setattr(finder, "extract_rainbow", counted_extract)
    monkeypatch.setattr(Coloring, "row", counted_row)
    mixed = load_pointset(GOLDEN / "mixed.txt")
    n = len(mixed)
    for req in (
        FindRequest(a=3),
        FindRequest(a=3, mode="fixed_m", m=2, t_override=5),
        FindRequest(a=3, mode="locus_recursion"),
        FindRequest(a=2),
        FindRequest(a=2, variant="h_prime"),
        FindRequest(a=3, variant="h_prime"),
    ):
        verified.clear()
        values.clear()
        res = find_subset(mixed, req)
        assert res.stats["whole_set"] and res.observed_m == 1
        assert verified == [n] and extracted == []
        assert sum(values) == 2 * comb(n, req.a) + n, req
        judge(mixed, res.subset, req.a, req.variant, res.certificate)
    axes = load_pointset(GOLDEN / "axes.txt")
    for pset, m_obs in ((axes, 1), (gen_random(2, 30, 12, seed=1), None)):
        verified.clear()
        res = find_subset(pset, FindRequest(a=2))
        assert "whole_set" not in res.stats and extracted
        assert m_obs in (None, res.observed_m)
        assert verified == [len(res.subset)] and len(pset) not in verified


def test_whole_set_answers_exactly_when_the_scan_passes():
    # find answers with the whole set at m = 1 exactly when distinct_zeros
    # passes; goodness still equals the full census's, and on a set where no
    # volume repeats cap 0 gives the uncapped report, which is what the
    # search's whole-set answer reads
    rng = SplitMix64(9)
    sets = []
    for seed in range(8):
        pset = gen_random(2, 9, 40, seed=seed)
        for a in (2, 3):
            sets += [(pset.subset(rng.sample(len(pset), a + 1 + rng.below(4))), a) for _ in range(6)]
    mixed = load_pointset(GOLDEN / "mixed.txt")
    verdicts = []
    for pset, a in sets + [(mixed, 2), (mixed, 3)]:
        coloring = build_coloring(pset, a)
        rainbow = distinct_zeros(coloring) is not None
        for cap in (None, 1):
            rep = goodness(coloring, cap)
            got = (rep.observed_m, rep.witness_tuple, rep.witness_color.value, rep.witness_extensions)
            assert got == reference_goodness([p.coords for p in pset], a, cap), (a, cap)
            assert rep.observed_m == 1 or not rainbow
        res = find_subset(pset, FindRequest(a=a))
        assert (res.stats.get("whole_set", False) and res.observed_m == 1) == rainbow
        if rainbow:
            assert goodness(coloring, 0) == goodness(coloring)
        verdicts.append(rainbow)
    assert verdicts[-2:] == [True, True]
    assert 20 <= sum(verdicts[:-2]) < len(sets)


def test_auto_failure_propagates():
    res = find_subset(SQUARE, FindRequest(a=2, t_override=3, max_retries=4))
    assert isinstance(res, ExtractionFailure)
    assert res.attempts == 4
    assert res.best_stats.count == 7


def test_auto_on_random_points():
    ps = gen_random(2, 300, 10**6, seed=5)
    res = find_subset(ps, FindRequest(a=2, seed=1))
    assert isinstance(res, FindResult)
    assert len(res.subset) >= res.t_target
    assert res.t_target >= int_nth_root(300 // (4 * res.observed_m), 3)
    assert verify_subset(ps, res.subset, 2).valid


def test_find_is_deterministic():
    ps = gen_random(2, 200, 10**5, seed=9)
    r1 = find_subset(ps, FindRequest(a=2, seed=3))
    r2 = find_subset(ps, FindRequest(a=2, seed=3))
    assert r1.to_json() == r2.to_json()


# ---------------------------------------------------------------- fixed budget


def test_fixed_m_requires_m():
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=2, mode="fixed_m"))


def test_fixed_m_runs_fast_path():
    # coarse coordinates so repeated distances exist and the tight budget
    # m=1 trips a bad-edge witness
    ps = gen_random(2, 200, 300, seed=2)
    res = find_subset(ps, FindRequest(a=2, mode="fixed_m", m=1, seed=0))
    assert isinstance(res, FindResult)
    assert res.stats["m_budget"] == 1
    assert res.recursion_trace and res.recursion_trace[0]["locus"] == "sphere"
    assert verify_subset(ps, res.subset, 2).valid


@pytest.mark.parametrize("mode", ["fixed_m", "locus_recursion"])
def test_bad_edges_are_watched_only_above_the_budget(monkeypatch, mode):
    # a bad edge needs a class larger than m, so at m >= observed m no sample
    # is scanned; below it the first sample already is
    scanned = []
    scan = rainbow.find_bad_edge

    def counted(coloring, ids, m):
        scanned.append(m)
        return scan(coloring, ids, m)

    monkeypatch.setattr(rainbow, "find_bad_edge", counted)
    cases = [
        (gen_random(2, 30, 12, seed=1), 2),
        (gen_random(2, 24, 30, seed=7), 3),
        (gen_random(3, 12, 20, seed=5), 4),
    ]
    for ps, a in cases:
        m_obs = goodness(build_coloring(ps, a)).observed_m
        assert m_obs >= 2
        for m in (m_obs - 1, m_obs, m_obs + 1):
            scanned.clear()
            req = FindRequest(a=a, mode=mode, m=m, t_override=a + 1, max_retries=4)
            find_subset(ps, req)
            assert bool(scanned) == (m < m_obs), (a, m, m_obs)


# ---------------------------------------------------------------- sphere locus


def test_sphere_locus_recursion():
    ps = gen_cocircular_plus_noise(8, 4, seed=2)
    res = find_subset(
        ps, FindRequest(a=2, mode="locus_recursion", m=3, t_override=5, seed=0)
    )
    assert isinstance(res, FindResult)
    assert res.certificate == "rainbow"
    assert res.subset == [1, 2]
    assert res.recursion_trace == [
        {"locus": "sphere", "ids": [1, 2, 3, 4, 5, 6, 7, 8]}
    ]
    # the carried locus really is a sphere around the witness center
    center = ps.coords(0)
    for v in res.recursion_trace[0]["ids"]:
        assert squared_volume([center, ps.coords(v)]) == 1
    assert res.stats["m_budget"] == 3
    assert "child_stats" in res.stats


def test_sphere_recursion_answer_is_verified_once(monkeypatch):
    # the child's answer is verified on the input set only, not first on the
    # child set as well
    calls = []
    check = finder.verify_subset

    def counted(pset, subset, *rest):
        calls.append((len(pset), list(subset)))
        return check(pset, subset, *rest)

    monkeypatch.setattr(finder, "verify_subset", counted)
    pset = load_pointset(GOLDEN / "cocircular.txt")
    req = FindRequest(a=2, mode="locus_recursion", m=3, t_override=6, seed=4)
    res = find_subset(pset, req)
    assert [entry["locus"] for entry in res.recursion_trace] == ["sphere"]
    assert calls == [(len(pset), res.subset)]


def test_general_position_is_checked_only_where_the_whole_set_scan_fails(monkeypatch):
    # under h_prime the whole-set scan reads zeros as repeats, so a scan that
    # passes has seen every edge nonzero and settles general position; only a
    # scan that fails looks for a witness, and at a=2 that look reads no row,
    # so no sphere recursion level walks its edges for general position
    calls, values = [], []
    check, row = finder.general_position_check, Coloring.row

    def counted(pset, a):
        calls.append(len(pset))
        return check(pset, a)

    def counted_row(self, *args):
        out = row(self, *args)
        values.append(len(out))
        return out

    monkeypatch.setattr(finder, "general_position_check", counted)
    monkeypatch.setattr(Coloring, "row", counted_row)
    mixed = load_pointset(GOLDEN / "mixed.txt")
    assert find_subset(mixed, FindRequest(a=3, variant="h_prime")).stats["whole_set"]
    assert calls == []
    cocircular = load_pointset(GOLDEN / "cocircular.txt")
    res = find_subset(cocircular, FindRequest(a=3, variant="h_prime"))
    assert "whole_set" not in res.stats
    assert calls == [len(cocircular)]
    # the h_prime find at a=2 reads exactly what the h find reads
    found = []
    for variant in ("h", "h_prime"):
        values.clear()
        req = FindRequest(a=2, mode="locus_recursion", m=3, t_override=6, seed=4, variant=variant)
        res = find_subset(cocircular, req)
        assert [entry["locus"] for entry in res.recursion_trace] == ["sphere"]
        found.append((sum(values), res.subset, res.recursion_trace))
    assert found[0] == found[1] and found[0][0] == 523


def unit_circle(k):
    """k distinct rational points on the unit circle: the powers of the
    rotation with cosine 3/5 and sine 4/5, so a chord's length depends only
    on the difference of its two powers."""
    points, c, s = [], F(1), F(0)
    for _ in range(k):
        points.append((c, s))
        c, s = c * F(3, 5) - s * F(4, 5), c * F(4, 5) + s * F(3, 5)
    return points


def test_two_level_sphere_trace_maps_to_parent_ids():
    # the origin, the north pole and 107 points of the circle z = 3/5 of the
    # unit sphere: the circle lies at squared distance 4/5 from the pole, so
    # the origin's sphere is the pole and the circle, and the pole's is the
    # circle; both trace entries name ids of the input set
    circle = [(F(4, 5) * x, F(4, 5) * y, F(3, 5)) for x, y in unit_circle(107)]
    ps = PointSet(3, [(0, 0, 0), (0, 0, 1)] + circle)
    req = FindRequest(a=2, mode="fixed_m", m=1, seed=24, recursion_depth_cap=2)
    res = find_subset(ps, req)
    assert isinstance(res, FindResult)
    assert res.recursion_trace == [
        {"locus": "sphere", "ids": list(range(1, 109))},
        {"locus": "sphere", "ids": list(range(2, 109))},
    ]
    assert res.subset == [2, 3]
    child = res.stats["child_stats"]
    assert (child["n"], child["child_stats"]["n"]) == (108, 107)


def test_child_extraction_failure_is_returned():
    # the origin's sphere is a 216-point circle whose classes hold at most two
    # edges, so m=2 extracts on it unwatched; its one attempt draws six ids
    # with five same-length chord pairs, more than t=3, and that failure is
    # the answer
    ps = PointSet(2, [(0, 0)] + unit_circle(216))
    req = FindRequest(a=2, mode="fixed_m", m=2, seed=64, t_override=50, max_retries=1)
    res = find_subset(ps, req)
    assert isinstance(res, ExtractionFailure)
    assert res.seeds_tried == [derive_seed(derive_seed(64, 216), 0)]
    assert res.best_stats.sample == [3, 31, 78, 85, 113, 195]  # ids of the circle
    assert res.best_stats.count == 5


def test_depth_cap_blocks_recursion():
    ps = gen_cocircular_plus_noise(8, 4, seed=2)
    res = find_subset(
        ps,
        FindRequest(
            a=2,
            mode="locus_recursion",
            m=3,
            t_override=5,
            seed=0,
            recursion_depth_cap=0,
        ),
    )
    # fell through to plain extraction: no locus trace
    assert isinstance(res, FindResult)
    assert res.recursion_trace == []
    assert res.subset == [1, 3, 4, 5, 7, 8, 9, 10, 11]
    assert verify_subset(ps, res.subset, 2).valid


# ------------------------------------------------------------ hyperplane locus


def hyperplane_instance():
    rows = [(k, 0) for k in range(12)] + [
        (F(1, 3), 2),
        (F(7, 2), 2),
        (F(-3, 7), F(19, 6)),
    ]
    return PointSet(2, rows)


def test_hyperplane_locus_all_zero():
    ps = hyperplane_instance()
    res = find_subset(
        ps, FindRequest(a=3, mode="locus_recursion", m=2, t_override=8, seed=0)
    )
    assert isinstance(res, FindResult)
    assert res.certificate == "all_zero"
    assert res.subset == list(range(8))
    assert res.recursion_trace == [
        {"locus": "hyperplane", "ids": list(range(12))}
    ]
    assert res.stats["side_size"] == 12
    # every triple inside the answer is degenerate
    for edge in combinations(res.subset, 3):
        assert squared_volume([ps.coords(i) for i in edge]) == 0
    assert verify_subset(ps, res.subset, 3, "h").valid


def test_hyperplane_split_matches_fraction_determinant():
    # Coloring.sides reads per-axis-cleared integers and the anchor's
    # cofactors; the reference is the sign of a cofactor expansion on the
    # exact rational differences, so a wrong sign factor fails at d = 2 or 3
    golden = Path(__file__).resolve().parent / "golden"
    sets = [load_pointset(golden / f) for f in ("axes.txt", "axes3d.txt")]
    for ps in sets + [hyperplane_instance()]:
        d = ps.dimension
        coloring = Coloring(d + 1, ps)
        for anchor in combinations(range(len(ps)), d):
            candidates = [v for v in range(len(ps)) if v not in anchor]
            p0 = ps.coords(anchor[0])
            sides = {1: [], -1: []}
            for v in candidates:
                rows = [[x - y for x, y in zip(ps.coords(i), p0)] for i in anchor[1:] + (v,)]
                det = det_laplace(rows)
                if det:
                    sides[1 if det > 0 else -1].append(v)
            assert coloring.sides(anchor, candidates) == (sides[1], sides[-1]), anchor


def test_hyperplane_instance_rejected_by_h_prime():
    ps = hyperplane_instance()
    with pytest.raises(GeneralPositionError) as err:
        find_subset(
            ps,
            FindRequest(
                a=3, mode="locus_recursion", m=2, t_override=8, seed=0,
                variant="h_prime",
            ),
        )
    assert err.value.witness == (0, 1, 2)


# ------------------------------------------------------------------ invariants


def test_every_find_result_verifies():
    for seed in range(6):
        ps = gen_random(2, 80, 10**4, seed=seed)
        for mode, m in (("auto", None), ("locus_recursion", None), ("fixed_m", 2)):
            res = find_subset(ps, FindRequest(a=2, mode=mode, m=m, seed=seed))
            if isinstance(res, FindResult):
                assert len(res.subset) >= res.t_target
                assert verify_subset(ps, res.subset, 2).valid


def test_request_validation():
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=4))
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=1))
    with pytest.raises(ValueError):
        find_subset(PointSet(2, [(0, 0)]), FindRequest(a=2))
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=2, mode="magic"))
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=2, variant="x"))
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=2, max_retries=0))
    with pytest.raises(ValueError):
        find_subset(SQUARE, FindRequest(a=2, t_override=0))
    with pytest.raises(ValueError, match="m must be"):
        find_subset(SQUARE, FindRequest(a=2, mode="locus_recursion", m=0))
    with pytest.raises(ValueError, match="recursion_depth_cap must be"):
        find_subset(SQUARE, FindRequest(a=2, mode="locus_recursion", recursion_depth_cap=-1))
    # auto mode reads neither field, so setting one is an error, not a no-op
    with pytest.raises(ValueError, match="auto mode"):
        find_subset(SQUARE, FindRequest(a=2, m=3))
    with pytest.raises(ValueError, match="auto mode"):
        find_subset(SQUARE, FindRequest(a=2, recursion_depth_cap=1))
    # only the a=2 sphere recursion reads the cap
    for mode, m in (("locus_recursion", None), ("fixed_m", 2)):
        with pytest.raises(ValueError, match="a >= 3 reads none"):
            find_subset(SQUARE, FindRequest(a=3, mode=mode, m=m, recursion_depth_cap=1))


def test_invalid_search_answer_is_an_internal_error(monkeypatch):
    # the square repeats its side length, so the whole set is no answer
    whole = rainbow.RainbowResult([0, 1, 2, 3], 0, 0)
    monkeypatch.setattr(finder, "extract_rainbow", lambda *args, **kwargs: whole)
    with pytest.raises(RuntimeError, match="internal error"):
        find_subset(SQUARE, FindRequest(a=2, seed=0))


# ------------------------------------------------------------ exhaustive oracle


def test_brute_force_square():
    assert brute_force_max(SQUARE, 2) == [0, 1]


def test_brute_force_line():
    assert brute_force_max(LINE4, 2) == [0, 1, 3]
    assert brute_force_max(LINE4, 2) == slow_max_distinct(
        [p.coords for p in LINE4], 2
    )


def test_brute_force_grid3():
    ps = gen_grid(2, 3)
    got = brute_force_max(ps, 2)
    assert got == [0, 1, 5]
    assert got == slow_max_distinct([p.coords for p in ps], 2)


def test_brute_force_matches_oracle_on_random_sets():
    for seed in range(5):
        ps = gen_random(2, 7, 12, seed=seed)
        coords = [p.coords for p in ps]
        assert brute_force_max(ps, 2) == slow_max_distinct(coords, 2)
        assert brute_force_max(ps, 3) == slow_max_distinct(coords, 3)


def test_brute_force_h_prime_on_degenerate_input():
    ps = PointSet(2, [(0, 0), (1, 0), (2, 0), (3, 0)])
    assert brute_force_max(ps, 3, variant="h_prime") == [0, 1]
    assert brute_force_max(ps, 3, variant="h") == [0, 1, 2, 3]


def test_brute_force_below_a_points_is_the_whole_set():
    for n in range(3):
        ps = SQUARE.subset(range(n))
        for variant in ("h", "h_prime"):
            assert brute_force_max(ps, 3, variant) == list(range(n))


def test_brute_force_guard():
    ps = gen_random(2, 13, 100, seed=0)
    with pytest.raises(ValueError):
        brute_force_max(ps, 2)
    assert len(brute_force_max(ps, 2, max_points=13)) >= 2
    with pytest.raises(ValueError, match="unknown variant"):
        brute_force_max(SQUARE, 2, "x")


# --------------------------------------------------------------- greedy growth


def test_greedy_augment_line():
    ps = PointSet(1, [(0,), (1,), (2,), (3,)])
    assert greedy_augment(ps, [0, 1], 2) == [0, 1, 3]


def test_greedy_augment_rejects_invalid_seed_subset():
    with pytest.raises(ValueError):
        greedy_augment(SQUARE, [0, 1, 2, 3], 2)
    # ids 0, 1, 2 of MIXED are collinear: a zero edge only h_prime rejects
    assert greedy_augment(MIXED, [0, 1, 2], 3) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        greedy_augment(MIXED, [0, 1, 2], 3, variant="h_prime")


def test_greedy_augment_rejects_bad_ids_in_short_seeds():
    # seeds shorter than a skip verification but not the id checks
    with pytest.raises(ValueError, match="subset ids must be distinct"):
        greedy_augment(SQUARE, [1, 1], 3)
    with pytest.raises(ValueError, match="subset ids out of range"):
        greedy_augment(SQUARE, [0, 4], 3)


def test_greedy_augment_checks_the_variant_first():
    for seed in ([], [0], [0, 1]):
        with pytest.raises(ValueError, match="unknown variant"):
            greedy_augment(SQUARE, seed, 2, variant="bogus")


def test_greedy_augment_preserves_validity():
    for seed in range(4):
        ps = gen_random(2, 10, 40, seed=seed)
        grown = greedy_augment(ps, [0, 1], 2)
        assert verify_subset(ps, grown, 2).valid
        assert set(grown) >= {0, 1}
        # maximal: no single further id keeps it valid
        for v in range(10):
            if v in grown:
                continue
            assert not verify_subset(ps, sorted(grown + [v]), 2).valid


def test_greedy_augment_h_prime_avoids_degenerate_edges():
    ps = MIXED
    grown = greedy_augment(ps, [0, 1], 3, variant="h_prime")
    assert verify_subset(ps, grown, 3, "h_prime").valid
    assert 2 not in grown or 0 not in grown  # never all three collinear ids


def test_greedy_augment_matches_first_fit():
    # random, mixed-denominator, grid and collinear sets; seeds shorter than
    # a and valid seeds of a and a+1 ids from the top of the id range
    point_sets = [
        gen_random(2, 12, 40, seed=3),
        gen_random(3, 10, 8, seed=4),
        PointSet(3, [(F(i, 1 + i % 4), F(i * i % 7, 3), F(1, 1 + i)) for i in range(10)]),
        gen_grid(2, 4),
        gen_grid(3, 3),
        gen_collinear(6, 5, seed=2),
    ]
    for ps in point_sets:
        n = len(ps)
        top = list(range(n - 1, -1, -1))
        for a in range(2, min(4, ps.dimension + 1) + 1):
            for variant in ("h", "h_prime"):

                def valid(ids):
                    return len(ids) < a or verify_subset(ps, ids, a, variant).valid

                seeds = [[], top[: a - 1]]
                for size in (a, a + 1):
                    seeds += [next(sorted(c) for c in combinations(top, size) if valid(sorted(c)))]
                for seed in seeds:
                    got = greedy_augment(ps, seed, a, variant)
                    assert got == first_fit_growth(n, seed, valid), (ps[0], a, variant, seed)


def test_fallback_continues_after_the_witness_sample(monkeypatch):
    # fixed m=3 on the cocircular set: the first sample holds a bad edge, and
    # depth 0 allows no sphere, so plain extraction takes over from the next
    # attempt instead of drawing the witness's sample again
    attempts = []
    derive = rainbow.derive_seed

    def counted(seed, index):
        attempts.append(index)
        return derive(seed, index)

    monkeypatch.setattr(rainbow, "derive_seed", counted)
    path = Path(__file__).resolve().parent / "golden" / "cocircular.txt"
    argv = ["find", str(path), "--a", "2", "--mode", "fixed", "--m", "3", "--t", "6", "--seed", "4"]
    assert run(argv + ["--depth", "0"], io.StringIO()) == 0
    assert attempts == [0, 1]


def _spy_extractions(monkeypatch):
    """The type names of what each finder.extract_rainbow call returns."""
    outcomes = []
    extract = finder.extract_rainbow

    def spied(*args, **kwargs):
        outcome = extract(*args, **kwargs)
        outcomes.append(type(outcome).__name__)
        return outcome

    monkeypatch.setattr(finder, "extract_rainbow", spied)
    return outcomes


def test_bad_edge_below_d_plus_1_falls_back(monkeypatch):
    # a=3 in 3-space has neither a sphere (a=2) nor a hyperplane (a=d+1)
    # locus, so the witness hands over to plain extraction at t from m_obs
    outcomes = _spy_extractions(monkeypatch)
    ps = gen_random(3, 20, 5, 0)
    res = find_subset(ps, FindRequest(a=3, mode="fixed_m", m=1, t_override=4, seed=0))
    assert outcomes == ["BadEdgeWitness", "RainbowResult"]
    assert res.subset == [1, 6, 8, 11, 15, 19]
    assert (res.t_target, res.observed_m) == (4, 4)
    assert res.stats["retries_used"] == 36
    assert "m_budget" not in res.stats


def test_hyperplane_witness_under_h_prime_falls_back(monkeypatch):
    # a=d+1=3: the hyperplane side answers only variant h, so under h_prime
    # the witness hands over to plain extraction without splitting the set
    outcomes = _spy_extractions(monkeypatch)
    splits = []
    split = Coloring.sides

    def spied_split(*args):
        splits.append(args)
        return split(*args)

    monkeypatch.setattr(Coloring, "sides", spied_split)
    ps = gen_random(2, 12, 40, 3)
    req = FindRequest(a=3, mode="fixed_m", m=1, t_override=4, variant="h_prime", seed=3)
    res = find_subset(ps, req)
    assert outcomes == ["BadEdgeWitness", "RainbowResult"]
    assert res.subset == [1, 2, 3, 5, 6, 7, 10]
    assert res.stats["retries_used"] == 3
    assert "m_budget" not in res.stats
    assert splits == []
