"""Byte-for-byte regression oracle for CLI stdout.

Each case runs one CLI verb, on a fixed point-set file under tests/golden/
where it reads one, and compares stdout with the recorded `<case>.out` next
to it.  The planar color, goodness and plain find recordings were taken from
the dict-based coloring that predates the per-anchor rows; the gen, fixed-m
fallback and hyperplane recordings from the code that still had two
extraction loops; the three-dimensional random3d and grid3d recordings from
the code that still stored every determinant at a >= 3; the verify and oracle
recordings from the code that still computed one Gram determinant per edge;
the axes and axes3d recordings at a = d+1 from the code whose rows there
still held squared determinants on coordinates cleared by the global lcm, and
those below a = d+1, with the fixed-m hyperplane fallback on axes, from the
code whose rows there still read coordinates cleared by the global lcm;
the locus find on random at a=3 and the fixed find on random3d at a=4 from
the code that still scanned every sample for bad edges within the budget;
the mixed recordings from the code whose goodness still counted every
anchor class of a set with no repeated volume; the three hprime finds on
cocircular, grid4 and axes3d from the code that still checked general
position in a separate walk before the search.  The mixed finds all answer
with the whole set (`whole_set` in stats); `axes.find.a2` and
`axes3d.find.a2` guard the other branch, where goodness is 1 but the whole
set is not rainbow.
Any refactor of coloring, goodness or search must reproduce them exactly.
Each demo's stdout is recorded too, as `demo.<name>.out`, from the code that
still had the `Coloring.colors` view and an `m` argument to `extract_rainbow`.
`goodness` runs without `--cap`: a capped scan may stop at a different class
by design.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dvsubset.cli import VARIANT_NAMES, run
from dvsubset.geometry import load_pointset

from helpers import judge

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# input files: random.txt (gen random --d 2 --n 24 --coord-bound 30 --seed 7),
# grid4.txt (gen grid --d 2 --side 4),
# cocircular.txt (gen cocircular --n-circle 10 --n-noise 8 --seed 3),
# random3d.txt (gen random --d 3 --n 12 --coord-bound 20 --seed 5),
# grid3d.txt (gen grid --d 3 --side 3),
# axes.txt and axes3d.txt (hand-written; each axis draws its denominators
# from its own set, so every axis lcm differs from the others and from the
# global lcm: 6, 35 and 210 in the plane, 4, 3, 35 and 420 in space),
# mixed.txt (14 plane points, numerators in [-1000, 1000] over a denominator
# in 1..5000 per coordinate, drawn from SplitMix64(12): its whole set is
# valid at a=2 and a=3 under both variants)
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
# per-axis denominators at every a: one determinant gives the volume at
# a = d+1, and below it the coordinate sets of one sum carry unequal lcms
CASES.update({
    f"{name}.{verb}.a{a}": [verb, name + ".txt", "--a", str(a)]
    for name, a in (("axes", 2), ("axes", 3), ("axes3d", 2), ("axes3d", 3), ("axes3d", 4))
    for verb in ("color", "goodness", "find")
})
CASES["axes.find-t5.a3"] = ["find", "axes.txt", "--a", "3", "--t", "5"]
# a bad edge whose hyperplane sides are too small: plain extraction follows
CASES["axes.find-fixed.a3"] = [
    "find", "axes.txt", "--a", "3", "--mode", "fixed", "--m", "1", "--t", "4",
]
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
# the budget is the observed goodness: extraction runs with no bad edge to find
CASES["random.find-locus.a3"] = [
    "find", "random.txt", "--a", "3", "--mode", "locus", "--m", "4", "--t", "4",
]
# a bad edge in the first sample, hyperplane sides too small, then plain
# extraction from the next attempt on; no 10-point sample of random3d holds
# at most 5 same-volume pairs at a=4, so the find fails (exit 1)
CASES["random3d.find-fixed.a4"] = [
    "find", "random3d.txt", "--a", "4", "--mode", "fixed", "--m", "1", "--t", "5",
]
# under hprime: a general-position set that is not rainbow, so its witness
# search runs after the whole-set scan fails; the grid's general_position
# error; and 9 points at t=5, where every sample is the whole set (exit 1)
CASES["cocircular.find-hprime-fixed.a3"] = [
    "find", "cocircular.txt", "--a", "3", "--variant", "hprime", "--mode", "fixed", "--m", "2",
    "--t", "5",
]
CASES["grid4.find-hprime.a3"] = ["find", "grid4.txt", "--a", "3", "--variant", "hprime"]
CASES["axes3d.find-hprime-t5.a3"] = ["find", "axes3d.txt", "--a", "3", "--variant", "hprime", "--t", "5"]
FAILS = {"random3d.find-fixed.a4", "grid4.find-hprime.a3", "axes3d.find-hprime-t5.a3"}
# verify names an invalid subset in each case (exit 1), given unsorted
# where the edge order matters: repeated volumes at every a, and degenerate
# edges under hprime
CASES.update({
    f"{name}.verify{suffix}.a{a}": ["verify", name + ".txt", "--a", str(a), "--subset", ids, *flags]
    for name, suffix, a, ids, flags in (
        ("random", "", 2, "22,0,1,8,14,12", []),
        ("random", "-hprime", 3, "22,5,12,1", ["--variant", "hprime"]),
        ("grid4", "", 2, "5,0,1,2", []),
        ("grid4", "", 3, "5,4,1,0", []),
        ("grid4", "-hprime", 3, "7,2,1,0", ["--variant", "hprime"]),
        ("random3d", "", 3, "7,2,4,5", []),
        ("random3d", "", 4, "10,0,1,2,6,3,4", []),
        ("random3d", "-hprime", 4, "9,2,4,5,7", ["--variant", "hprime"]),
        ("axes", "", 2, "3,0,1,2,7", []),
        ("axes", "", 3, "3,0,1,2,7", []),
        ("axes", "-hprime", 3, "4,0,1,5", ["--variant", "hprime"]),
        ("axes3d", "", 3, "5,0,1,2,4,3", []),
        ("axes3d", "", 4, "5,0,1,2,4,7", []),
        ("axes3d", "-hprime", 4, "3,0,1,2,6", ["--variant", "hprime"]),
    )
})
# the whole set answers at once: every mode, both variants, and its verify
CASES.update({
    f"mixed.find{suffix}.a{a}": ["find", "mixed.txt", "--a", str(a), *flags]
    for suffix, a, flags in (
        ("", 2, []),
        ("", 3, []),
        ("-fixed", 3, ["--mode", "fixed", "--m", "2", "--t", "5"]),
        ("-locus", 3, ["--mode", "locus"]),
        ("-hprime", 3, ["--variant", "hprime"]),
    )
})
CASES["mixed.verify.a3"] = ["verify", "mixed.txt", "--a", "3", "--subset", ",".join(map(str, range(14)))]
PASSES = {"mixed.verify.a3"}
# the exhaustive oracle, at its default cap for a=2 and a raised one for a=3
CASES["random3d.oracle.a2"] = ["oracle", "random3d.txt", "--a", "2"]
CASES["random3d.oracle.a3"] = ["oracle", "random3d.txt", "--a", "3", "--max-n", "12"]
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
    fails = (CASES[case][0] == "verify" and case not in PASSES) or case in FAILS
    assert code == (1 if fails else 0), case
    assert text == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "case", sorted(c for c, argv in CASES.items() if argv[0] == "find" and c not in FAILS)
)
def test_find_answer_passes_the_judge(case):
    # the printed subset, recomputed edge by edge by both volume routes
    argv = CASES[case]
    code, text = run_case(argv)
    assert code == 0, case
    answer = json.loads(text)
    flags = dict(zip(argv[2::2], argv[3::2]))
    variant = VARIANT_NAMES[flags.get("--variant", "h")]
    pset = load_pointset(GOLDEN / argv[1])
    judge(pset, answer["subset"], int(flags["--a"]), variant, answer["certificate"])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_matches_recording(demo):
    # each demo as its own process, as the README runs it, from the repo root
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"demo.{demo.stem}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", ["random3d.oracle.a2", "random3d.oracle.a3", "mixed.verify.a3"])
def test_oracle_and_valid_verify_answers_pass_the_judge(case):
    # the recorded subset (the stdout test ties it to the code), recomputed
    # edge by edge by both volume routes: a valid answer is rainbow
    argv = CASES[case]
    flags = dict(zip(argv[2::2], argv[3::2]))
    answer = json.loads((GOLDEN / f"{case}.out").read_text(encoding="utf-8"))
    pset = load_pointset(GOLDEN / argv[1])
    judge(pset, answer["subset"], int(flags["--a"]), VARIANT_NAMES[flags.get("--variant", "h")], "rainbow")
