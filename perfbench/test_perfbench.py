"""Tests of the benchmark's own machinery: checker, span arithmetic, tail.

    python3 -m pytest -q perfbench
"""

import sys
from fractions import Fraction as F
from pathlib import Path

import checker
from tracing import Span, Tracer, self_times

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402  (needs src on the path for instrumenting dvsubset)

UNIT_SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def test_checker_rejects_unit_square_rainbow():
    reason = checker.check_subset(UNIT_SQUARE, 2, [0, 1, 2, 3], "rainbow")
    assert reason is not None and "repeats" in reason


def test_checker_accepts_distinct_distances():
    rows = [(F(0), F(0)), (F(1), F(0)), (F(0), F(2))]
    assert checker.check_subset(rows, 2, [0, 1, 2], "rainbow") is None


def test_checker_rejects_false_all_zero():
    triangle = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    assert checker.check_subset(triangle, 3, [0, 1, 2], "all_zero") is not None
    line = [(F(0), F(0)), (F(1, 3), F(1, 3)), (F(2), F(2))]
    assert checker.check_subset(line, 3, [0, 1, 2], "all_zero") is None


def test_checker_rejects_degenerate_h_prime():
    rows = [(F(0), F(0)), (F(1), F(1)), (F(2), F(2)), (F(0), F(5))]
    assert checker.check_subset(rows, 3, [0, 1, 2, 3], "rainbow", "h") is not None  # 0,1,3 and 1,2,3 tie
    assert checker.check_subset(rows, 3, [0, 1, 2], "rainbow", "h") is None
    assert checker.check_subset(rows, 3, [0, 1, 2], "rainbow", "h_prime") is not None


def test_checker_rejects_malformed_subsets():
    assert checker.check_subset(UNIT_SQUARE, 2, [0, 0], "rainbow") is not None
    assert checker.check_subset(UNIT_SQUARE, 2, [0, 4], "rainbow") is not None
    assert checker.check_subset(UNIT_SQUARE, 2, [0, 1], "sphere") is not None


def test_checker_volume_mixed_denominators():
    # right triangle with legs 1/2 and 1/3: squared area (1/12)^2
    pts = [(F(1, 5), F(0)), (F(7, 10), F(0)), (F(1, 5), F(1, 3))]
    assert checker.squared_volume([checker.clear(p) for p in pts]) == F(1, 144)
    # unit tetrahedron corner in 3-space: volume 1/6
    tet = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert checker.squared_volume([checker.clear(p) for p in tet]) == F(1, 36)


def test_check_routes():
    pts = [(F(0), F(0)), (F(3), F(0)), (F(0), F(4))]
    assert checker.check_routes(pts, F(36), F(36), 2) is None
    assert "squared_volume_cm" in checker.check_routes(pts, F(36), F(35), 2)
    assert "rank" in checker.check_routes(pts, F(36), F(36), 1)
    line = [(F(0), F(0)), (F(1), F(1)), (F(3), F(3))]
    assert checker.check_routes(line, F(0), F(0), 1) is None
    assert "rank" in checker.check_routes(line, F(0), F(0), 2)


def test_self_times_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.child", 6.0, 7.5, 2, 0),
        Span("root2", 11.0, 12.0, None, 1),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.5, 1.5, 1.0]


def test_tracer_records_parent_and_solve():
    tracer = Tracer()
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    tracer.solve = 7
    assert outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.solve) == ("outer", None, 7)
    assert (inner_span.name, inner_span.parent, inner_span.solve) == ("inner", 0, 7)
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


def test_instrument_spans_layer_boundaries_and_restores():
    modules = run.import_dvsubset()
    api = run.make_api(modules)
    finder = modules["finder"]
    original = finder.build_coloring
    tracer = Tracer()
    run.instrument(tracer, modules, api, run.API_SPANS)
    tracer.install()
    try:
        pset = api.PointSet(2, [(0, 0), (1, 0), (0, 2)])
        result = api.find_subset(pset, api.FindRequest(a=2))
    finally:
        tracer.uninstall()
    assert finder.build_coloring is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["geometry.PointSet", "finder.find_subset"]
    assert {"coloring.build_coloring", "coloring.goodness", "finder.verify_subset"} <= set(names)
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["coloring.build_coloring"] == "finder.find_subset"
    assert tracer.counts["finder.verify_edges"] == 3
    assert len(result.subset) == 3


def test_tail_leaves_ten_solves_beyond():
    value, pct, n = run.tail([float(i) for i in range(1, 31)])
    assert (pct, n) == (66, 30)
    assert value == 20.0
