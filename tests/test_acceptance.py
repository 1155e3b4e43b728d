"""Acceptance suite: one test per shipped guarantee, one line per criterion.

Run `pytest tests/test_acceptance.py -v` for the pass/fail table, `-s` to see
the ACCEPTANCE lines as they print.  Each test carries its own wall-clock
budget and asserts it; the suite as a whole finishes in a couple of minutes.
"""

import io
import json
import time
from fractions import Fraction

from dvsubset.bounds import (
    H_general_recurrence,
    H_simplex_upper,
    as_upper,
    expected_conflict_bound,
    g_upper,
    h_general_lower,
    h_simplex_lower,
)
from dvsubset.cli import run
from dvsubset.coloring import build_coloring, goodness
from dvsubset.finder import (
    FindRequest,
    FindResult,
    GeneralPositionError,
    brute_force_max,
    find_subset,
    general_position_check,
    verify_subset,
)
from dvsubset.generators import gen_cocircular_plus_noise, gen_grid, gen_random
from dvsubset.geometry import (
    PointSet,
    affine_rank,
    format_pointset,
    squared_volume,
    squared_volume_cm,
)
from dvsubset.rainbow import (
    BadEdgeWitness,
    RainbowResult,
    extract_rainbow,
)
from dvsubset.rng import SplitMix64

from helpers import (
    global_same_color_pairs,
    judge,
    pair_distance_census,
    slow_max_distinct,
    sq_dist,
)

F = Fraction


def _passed(num, desc):
    print(f"ACCEPTANCE {num:02d} PASS {desc}")


def _draw_points(rng, a, d, span=8):
    pts = []
    seen = set()
    while len(pts) < a:
        p = tuple(F(rng.below(2 * span + 1) - span, 1 + rng.below(2)) for _ in range(d))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def test_criterion_01_volume_routes_agree():
    """Both squared-volume routes agree exactly and are positive on 1000
    seeded nondegenerate instances for each of eight (a, d) shapes."""
    budget_s = 5.0
    pairs = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]
    start = time.perf_counter()
    for a, d in pairs:
        rng = SplitMix64(a * 100 + d)
        done = 0
        while done < 1000:
            pts = _draw_points(rng, a, d)
            if affine_rank(pts) != a - 1:
                continue
            v1 = squared_volume(pts)
            v2 = squared_volume_cm(pts)
            assert v1 == v2, (a, d, pts)
            assert v1 > 0, (a, d, pts)
            done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{elapsed:.2f}s over budget {budget_s}s"
    _passed(1, f"8000 instances, two exact volume routes identical ({elapsed:.2f}s)")


def test_criterion_02_degeneracy_matches_rank():
    """Zero volume coincides with affine rank below a-1 on 500 seeded
    instances, half of them forced degenerate."""
    budget_s = 5.0
    start = time.perf_counter()
    rng = SplitMix64(77)
    for trial in range(500):
        a, d = (3, 2) if trial % 2 == 0 else (4, 3)
        pts = _draw_points(rng, a, d)
        if trial % 2 == 1:
            # replace the last vertex with an affine combination of the others
            w = [F(rng.below(5) - 2) for _ in range(a - 1)]
            w[0] += 1 - sum(w)
            combo = tuple(
                sum(wi * pts[i][j] for i, wi in enumerate(w)) for j in range(d)
            )
            if combo not in pts[:-1]:
                pts[-1] = combo
        v1 = squared_volume(pts)
        v2 = squared_volume_cm(pts)
        degenerate = affine_rank(pts) < a - 1
        assert (v1 == 0) == degenerate, (trial, pts)
        assert (v2 == 0) == degenerate, (trial, pts)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _passed(2, f"500 instances, zero volume iff rank < a-1 ({elapsed:.2f}s)")


def test_criterion_03_bound_table():
    """Closed-form bound helpers reproduce their pinned exact values."""
    assert g_upper(2, 1, 3) == 108
    assert g_upper(3, 2, 4) == 8192
    assert H_simplex_upper(2, 3) == 5832
    assert H_simplex_upper(3, 4) == 524288
    assert h_simplex_lower(2, 4096) == 2
    assert h_simplex_lower(2, 64) == 1
    assert h_general_lower(2, 2, 4096, 1) == 4
    assert h_general_lower(3, 2, 10**10, 1) == 10
    assert H_general_recurrence(2, 1, 3, 1) == 108
    assert H_general_recurrence(2, 2, 3, 1) == 11664
    assert as_upper(2, 1, 10, 0) == 125
    assert as_upper(2, 1, 10, 1) == 50
    assert as_upper(3, 1, 10, 2) == 250
    assert expected_conflict_bound(500, 2, 1, 5) == 5
    assert expected_conflict_bound(8192, 3, 2, 4) == 4
    _passed(3, "15 pinned bound values exact")


def test_criterion_04_pair_counts_below_as_bound():
    """Exhaustively counted same-color pair totals stay below the closed-form
    per-s bound on 50 seeded sets (n <= 40, a in {2, 3})."""
    budget_s = 60.0
    start = time.perf_counter()
    meta = SplitMix64(1000)
    for seed in range(50):
        a = 2 if seed % 2 == 0 else 3
        n = 10 + meta.below(31)
        pset = gen_random(2, n, 500, seed=seed)
        col = build_coloring(pset, a)
        m_obs = goodness(col).observed_m
        per_s = global_same_color_pairs(col)
        for s in range(a):
            count = per_s.get(s, 0)
            assert count <= as_upper(a, m_obs, n, s), (seed, s, count)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _passed(4, f"50 exhaustive pair censuses below the A_s bound ({elapsed:.2f}s)")


def test_criterion_05_extraction_success_rate():
    """Rainbow extraction at t=5 succeeds on at least 95% of 100 seeded
    500-point instances whose colorings have m=1, every answer verified."""
    budget_s = 120.0
    start = time.perf_counter()
    included = 0
    successes = 0
    for seed in range(100):
        pset = gen_random(2, 500, 10**6, seed=seed)
        col = build_coloring(pset, 2)
        if goodness(col, cap=1).observed_m > 1:
            continue  # the success bound is stated for m=1 colorings
        included += 1
        res = extract_rainbow(col, 5, seed=seed)
        if isinstance(res, RainbowResult):
            assert len(res.subset) >= 5
            assert verify_subset(pset, res.subset, 2).valid
            judge(pset, res.subset, 2, "h", "rainbow")
            successes += 1
    elapsed = time.perf_counter() - start
    assert included >= 90, f"only {included} m=1 instances of 100"
    assert successes >= 0.95 * included, f"{successes}/{included} succeeded"
    assert elapsed < budget_s, f"{elapsed:.1f}s over budget {budget_s}s"
    _passed(
        5,
        f"extraction {successes}/{included} verified successes ({elapsed:.1f}s)",
    )


def test_criterion_06_find_never_beats_exhaustive():
    """The searcher's answers verify and never exceed the exhaustive maximum
    on 200 seeded small sets; pinned maxima for the unit square and the 3x3
    grid hold."""
    budget_s = 60.0
    start = time.perf_counter()
    meta = SplitMix64(2000)
    for seed in range(200):
        n = 4 + meta.below(5)
        pset = gen_random(2, n, 12, seed=seed)
        res = find_subset(pset, FindRequest(a=2, seed=seed))
        assert isinstance(res, FindResult), seed
        assert verify_subset(pset, res.subset, 2).valid
        judge(pset, res.subset, 2, "h", "rainbow")
        best = brute_force_max(pset, 2)
        assert len(res.subset) <= len(best), seed
        if seed < 20:
            # independent exhaustive oracle agrees with the shipped one
            assert best == slow_max_distinct([p.coords for p in pset], 2), seed
    square = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert brute_force_max(square, 2) == [0, 1]
    assert brute_force_max(gen_grid(2, 3), 2) == [0, 1, 5]
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _passed(6, f"200 searches bounded by the exhaustive maximum ({elapsed:.2f}s)")


def test_criterion_07_cocircular_witness_and_sphere_recursion():
    """On 30 cocircular points plus 100 noise points the extractor watching
    for bad edges returns the circle's center as a bad-tuple witness whose
    extensions all sit at exact squared distance 1, and the locus mode turns
    that witness into a verified answer."""
    budget_s = 60.0
    start = time.perf_counter()
    pset = gen_cocircular_plus_noise(30, 100, seed=11)
    col = build_coloring(pset, 2)
    witness = extract_rainbow(col, 65, seed=3, watch=5)
    assert isinstance(witness, BadEdgeWitness)
    assert witness.tuple_ids == (0,)
    assert witness.extensions == list(range(1, 31))
    center = pset.coords(0)
    for v in witness.extensions:
        assert sq_dist(center, pset.coords(v)) == 1
    res = find_subset(
        pset,
        FindRequest(a=2, mode="locus_recursion", m=5, t_override=65, seed=3),
    )
    assert isinstance(res, FindResult)
    assert res.recursion_trace[0]["locus"] == "sphere"
    assert res.recursion_trace[0]["ids"] == list(range(1, 31))
    assert verify_subset(pset, res.subset, 2).valid
    judge(pset, res.subset, 2, "h", "rainbow")
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _passed(7, f"cocircular witness is the center; locus answer verifies ({elapsed:.2f}s)")


def test_criterion_08_hyperplane_all_zero_certificate():
    """On 40 collinear points plus 5 noise points (two sharing a y value) the
    locus mode answers with an all-degenerate subset on one hyperplane, while
    the strict variant rejects the input with a collinear witness."""
    budget_s = 60.0
    start = time.perf_counter()
    rows = [(k, 0) for k in range(40)] + [
        (F(1, 3), 2),
        (F(17, 5), 2),
        (F(7, 2), F(5, 3)),
        (F(-3, 7), F(19, 6)),
        (F(23, 4), F(11, 8)),
    ]
    pset = PointSet(2, rows)
    req = FindRequest(a=3, mode="locus_recursion", m=5, t_override=22, seed=0)
    res = find_subset(pset, req)
    assert isinstance(res, FindResult)
    assert res.certificate == "all_zero"
    assert res.subset == list(range(22))
    assert res.recursion_trace == [{"locus": "hyperplane", "ids": list(range(40))}]
    judge(pset, res.subset, 3, "h", "all_zero")
    assert verify_subset(pset, res.subset, 3, "h").valid
    try:
        find_subset(
            pset,
            FindRequest(
                a=3, mode="locus_recursion", m=5, t_override=22, seed=0,
                variant="h_prime",
            ),
        )
        raise AssertionError("strict variant accepted a degenerate input")
    except GeneralPositionError as exc:
        assert exc.witness == (0, 1, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _passed(8, f"all-zero certificate on the line; strict variant refuses ({elapsed:.2f}s)")


def test_criterion_09_general_position_goodness_cap():
    """Colorings of seeded general-position sets with a = d+1 never exceed
    goodness 2d (extensions split over two parallel hyperplanes, at most d
    per side)."""
    budget_s = 60.0
    start = time.perf_counter()
    checked = 0
    skipped = 0
    for seed in range(50):
        if seed < 40:
            a, d, n = 3, 2, 20
        else:
            a, d, n = 4, 3, 12
        pset = gen_random(d, n, 10**6, seed=seed)
        ok, _ = general_position_check(pset, a)
        if not ok:
            skipped += 1
            continue
        rep = goodness(build_coloring(pset, a))
        assert rep.observed_m <= 2 * d, (seed, rep.observed_m)
        checked += 1
    assert skipped <= 5, f"{skipped} sets unexpectedly degenerate"
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _passed(9, f"goodness <= 2d on {checked} general-position sets ({elapsed:.2f}s)")


def test_criterion_10_bench_grid_censuses():
    """The benchmark suite reports the correct distinct squared-distance
    counts for the 3x3 and 4x4 grids, cross-checked by direct enumeration."""
    out = io.StringIO()
    code = run(["bench", "--suite", "grids-2d", "--budget", "2"], out)
    assert code == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()]
    header = rows[0]
    col = header.index("distinct_volumes")
    table = {r[0]: r[col] for r in rows[1:]}
    census3 = pair_distance_census([p.coords for p in gen_grid(2, 3)])
    census4 = pair_distance_census([p.coords for p in gen_grid(2, 4)])
    assert len(census3) == 5 and table["grid-3"] == "5"
    assert len(census4) == 9 and table["grid-4"] == "9"
    out = io.StringIO()
    assert run(["bench", "--suite", "grids-2d", "--budget", "0"], out) == 0
    assert out.getvalue().splitlines() == [",".join(header)]
    _passed(10, "bench reports grid censuses 5 and 9, verified independently")


def test_criterion_11_cli_byte_determinism(tmp_path):
    """Every CLI verb writes byte-identical stdout across repeat runs with
    the same flags and seed (wall-clock timings are stderr-only)."""
    square = tmp_path / "square.txt"
    square.write_text("2 4\n0 0\n1 0\n0 1\n1 1\n")
    circle = tmp_path / "circle.txt"
    circle.write_text(format_pointset(gen_cocircular_plus_noise(8, 4, seed=2)))
    found = tmp_path / "found.json"

    commands = [
        ["gen", "random", "--d", "2", "--n", "50", "--coord-bound", "1000", "--seed", "5"],
        ["gen", "cocircular", "--n-circle", "6", "--n-noise", "3", "--seed", "1"],
        ["color", str(square), "--a", "2"],
        ["goodness", str(square), "--a", "2"],
        ["find", str(square), "--a", "2"],
        ["find", str(circle), "--a", "2", "--mode", "locus", "--m", "3", "--t", "5"],
        ["verify", str(square), "--a", "2", "--subset", "0,1,2,3"],
        ["oracle", str(square), "--a", "2"],
        ["bounds", "g", "--k", "2", "--m", "1", "--t", "3"],
        ["bounds", "expected", "--n", "500", "--k", "2", "--m", "1", "--t", "5", "--format", "json"],
    ]
    for argv in commands:
        first = io.StringIO()
        second = io.StringIO()
        code1 = run(list(argv), first)
        code2 = run(list(argv), second)
        assert code1 == code2, argv
        assert first.getvalue() == second.getvalue(), argv

    # find -> verify round trip stays valid and deterministic
    out = io.StringIO()
    assert run(["find", str(square), "--a", "2"], out) == 0
    found.write_text(out.getvalue())
    out = io.StringIO()
    assert run(["verify", str(square), "--a", "2", "--from-json", str(found)], out) == 0
    assert json.loads(out.getvalue())["valid"] is True

    # bench output is deterministic once the timing column is stripped
    runs = []
    for _ in range(2):
        out = io.StringIO()
        assert run(["bench", "--suite", "grids-2d", "--budget", "3"], out) == 0
        runs.append([line.rsplit(",", 1)[0] for line in out.getvalue().splitlines()])
    assert runs[0] == runs[1]
    _passed(11, "12 CLI invocations byte-identical across repeat runs")
