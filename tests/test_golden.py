"""Byte-for-byte regression oracle for CLI stdout.

Each case runs one CLI verb, on a fixed point-set file under tests/golden/
where it reads one, and compares stdout with the recorded `<case>.out` next
to it.  The planar color, goodness and plain find recordings were taken from
the dict-based coloring that predates the per-anchor rows; the gen, fixed-m
fallback and hyperplane recordings from the code that still had two
extraction loops; the three-dimensional random3d and grid3d recordings from
the code that still stored every determinant at a >= 3.  Any refactor of
coloring, goodness or search must reproduce them exactly.
`goodness` runs without `--cap`: a capped scan may stop at a different class
by design.
"""

import io
from pathlib import Path

import pytest

from dvsubset.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

# input files: random.txt (gen random --d 2 --n 24 --coord-bound 30 --seed 7),
# grid4.txt (gen grid --d 2 --side 4),
# cocircular.txt (gen cocircular --n-circle 10 --n-noise 8 --seed 3),
# random3d.txt (gen random --d 3 --n 12 --coord-bound 20 --seed 5),
# grid3d.txt (gen grid --d 3 --side 3)
CASES = {
    f"{name}.{verb}.a{a}": [verb, name + ".txt", "--a", str(a)]
    for name in ("random", "grid4", "cocircular")
    for verb in ("color", "goodness", "find")
    for a in (2, 3)
}
# three-dimensional sets at 2 < a <= d+1: several coordinate subsets per
# Gram determinant, and degenerate anchors on the grid's lines and planes
CASES.update({
    f"{name}.{verb}.a{a}": [verb, name + ".txt", "--a", str(a)]
    for name, verbs in (
        ("random3d", ("color", "goodness", "find")),
        ("grid3d", ("goodness", "find")),
    )
    for verb in verbs
    for a in (3, 4)
})
CASES["cocircular.find-locus.a2"] = [
    "find", "cocircular.txt", "--a", "2", "--mode", "locus", "--m", "3", "--t", "6", "--seed", "4",
]
CASES["random.find-fixed.a2"] = [
    "find", "random.txt", "--a", "2", "--mode", "fixed", "--m", "2", "--t", "4", "--seed", "1",
]
# a bad edge fires but depth 0 allows no sphere: plain extraction, no m_budget
CASES["cocircular.find-fixed-fallback.a2"] = [
    "find", "cocircular.txt", "--a", "2", "--mode", "fixed", "--m", "3", "--t", "6", "--seed", "4",
    "--depth", "0",
]
# a bad edge on the grid's rows: one side of its hyperplane answers "all_zero"
CASES["grid4.find-fixed.a3"] = [
    "find", "grid4.txt", "--a", "3", "--mode", "fixed", "--m", "1", "--t", "4",
]
CASES.update({
    f"gen.{argv[1]}": argv
    for argv in (
        ["gen", "grid", "--d", "2", "--side", "3"],
        ["gen", "random", "--d", "2", "--n", "6", "--coord-bound", "50", "--seed", "1"],
        ["gen", "parallel-lines", "--d", "2", "--n", "6"],
        ["gen", "sphere2d", "--n", "5"],
        ["gen", "collinear", "--n", "4", "--noise", "2", "--seed", "3"],
        ["gen", "cocircular", "--n-circle", "4", "--n-noise", "2", "--seed", "3"],
    )
})


def run_case(argv):
    argv = [str(GOLDEN / arg) if arg.endswith(".txt") else arg for arg in argv]
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_recording(case):
    code, text = run_case(CASES[case])
    assert code == 0, case
    assert text == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
