import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dvsubset
from dvsubset.cli import BOUNDS, GENERATORS, build_parser, run
from dvsubset.geometry import parse_pointset
from dvsubset.rainbow import ConflictStats, ExtractionFailure

SQUARE_TEXT = "2 4\n0 0\n1 0\n0 1\n1 1\n"
README = Path(__file__).resolve().parent.parent / "README.md"


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


@pytest.fixture
def collinear_file(tmp_path):
    rows = "\n".join(f"{k} 0" for k in range(5))
    path = tmp_path / "line.txt"
    path.write_text(f"2 6\n{rows}\n1/3 2\n")
    return str(path)


# ------------------------------------------------------------------------- gen


def test_gen_grid():
    code, text = invoke(["gen", "grid", "--d", "2", "--side", "2"])
    assert code == 0
    ps = parse_pointset(text)
    assert len(ps) == 4
    assert ps.dimension == 2


def test_gen_all_kinds_parse():
    cases = [
        ["gen", "grid", "--d", "2", "--side", "3"],
        ["gen", "random", "--d", "2", "--n", "6", "--coord-bound", "50", "--seed", "1"],
        ["gen", "parallel-lines", "--d", "2", "--n", "6"],
        ["gen", "sphere2d", "--n", "5"],
        ["gen", "collinear", "--n", "4", "--noise", "2", "--seed", "3"],
        ["gen", "cocircular", "--n-circle", "4", "--n-noise", "2", "--seed", "3"],
    ]
    for argv in cases:
        code, text = invoke(argv)
        assert code == 0, argv
        parse_pointset(text)


TABLE_ENTRIES = [("gen", GENERATORS, kind) for kind in GENERATORS] + [
    ("bounds", BOUNDS, formula) for formula in BOUNDS
]


@pytest.mark.parametrize(
    "verb,table,name", TABLE_ENTRIES, ids=[f"{v}-{n}" for v, _, n in TABLE_ENTRIES]
)
def test_flags_the_entry_does_not_read_exit_2(verb, table, name, capsys):
    own = table[name][1]
    required = [arg for flag, d in own.items() if d is None for arg in (f"--{flag}", "3")]
    build_parser().parse_args([verb, name, *required])  # the entry's own flags parse
    unread = {flag for _, flags in table.values() for flag in flags} - set(own)
    assert unread
    for flag in sorted(unread):
        assert invoke([verb, name, *required, f"--{flag}", "1"]) == (2, ""), flag
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def test_flags_before_the_kind_exit_2(capsys):
    # the message names the misplaced flag, not its value as a bad name
    for argv, flag, name in (
        (["gen", "--d", "3", "grid"], "--d", "kind"),
        (["gen", "--seed=2", "random"], "--seed", "kind"),
        (["bounds", "--k", "2", "g", "--m", "1", "--t", "3"], "--k", "formula"),
        (["bounds", "--format", "json", "g", "--k", "2", "--m", "1", "--t", "3"], "--format", "formula"),
        (["bounds", "--pretty", "g", "--k", "2", "--m", "1", "--t", "3"], "--pretty", "formula"),
    ):
        assert invoke(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert f"error: flags follow the {name}: put {flag} after it" in err, argv
        assert "invalid choice" not in err and "Traceback" not in err


def test_readme_commands_parse():
    commands = [
        line.split("#")[0]
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("dvsubset ")
    ]
    assert len(commands) >= 8
    for command in commands:
        for segment in command.split("|"):
            words = shlex.split(segment)
            if ">" in words:
                words = words[: words.index(">")]
            assert words[0] == "dvsubset", command
            try:
                build_parser().parse_args(words[1:])
            except SystemExit as exc:
                pytest.fail(f"README command does not parse ({exc.code}): {segment.strip()}")


def test_readme_lists_every_flag_and_default():
    rows = README.read_text(encoding="utf-8").splitlines()
    for table in (GENERATORS, BOUNDS):
        for name, (_, flags) in table.items():
            words = [f"--{flag}" if d is None else f"--{flag} {d}" for flag, d in flags.items()]
            row = f"| `{name}` | `{' '.join(words)}`"
            assert any(line.startswith(row) for line in rows), row


def test_gen_deterministic():
    argv = ["gen", "random", "--d", "2", "--n", "9", "--coord-bound", "999", "--seed", "7"]
    assert invoke(argv) == invoke(argv)


# ----------------------------------------------------------------- color chain


def test_color_csv(square_file):
    code, text = invoke(["color", square_file, "--a", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "id0,id1,color_kind,num,den"
    assert len(lines) == 7
    assert lines[1] == "0,1,volume,1,1"


def test_color_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_TEXT))
    code, text = invoke(["color", "--a", "2"])
    assert code == 0
    assert len(text.splitlines()) == 7


def test_budget_warning_only_where_edges_are_stored(square_file):
    # goodness reads rows on demand and color streams its CSV, so neither
    # stores an edge at any a: no budget flag
    for verb, a in (("color", "2"), ("goodness", "2"), ("goodness", "3")):
        assert invoke([verb, square_file, "--a", a, "--budget-edges", "1"]) == (2, "")


def test_goodness_json(square_file):
    code, text = invoke(["goodness", square_file, "--a", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["observed_m"] == 2
    assert payload["witness_tuple"] == [0]
    assert payload["witness_extensions"] == [1, 2]
    assert payload["config"] == {"a": 2}


def test_text_and_csv_verbs_have_no_pretty(square_file):
    for argv in (
        ["gen", "grid", "--pretty"],
        ["color", square_file, "--a", "2", "--pretty"],
        ["bench", "--budget", "0", "--pretty"],
    ):
        assert invoke(argv) == (2, ""), argv


def test_empty_set_exits_2(monkeypatch, capsys):
    for verb in ("goodness", "color"):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 0\n"))
        assert invoke([verb, "--a", "2"]) == (2, "")
        err = capsys.readouterr().err
        assert err == f"dvsubset {verb}: need at least a=2 points, got 0\n"


def test_negative_depth_and_cap_exit_2(square_file, capsys):
    for argv in (
        ["find", square_file, "--a", "2", "--mode", "locus", "--depth", "-3"],
        ["goodness", square_file, "--a", "2", "--cap", "-1"],
    ):
        assert invoke(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith(f"dvsubset {argv[0]}: ") and "Traceback" not in err


def test_auto_mode_rejects_m_and_depth(square_file, capsys):
    # auto mode reads neither flag, so passing one is a usage error
    for flag in ("--m", "--depth"):
        assert invoke(["find", square_file, "--a", "2", "--mode", "auto", flag, "1"]) == (2, "")
        err = capsys.readouterr().err
        assert err == "dvsubset find: auto mode reads neither m nor recursion_depth_cap\n"


def test_depth_at_a_of_3_exits_2(square_file, capsys):
    # only the a=2 sphere recursion reads the cap
    assert invoke(["find", square_file, "--a", "3", "--mode", "locus", "--depth", "1"]) == (2, "")
    err = capsys.readouterr().err
    assert err == "dvsubset find: recursion_depth_cap caps the a=2 sphere recursion; a >= 3 reads none\n"


def test_gen_past_the_free_grid_points_exits_2(capsys):
    # refused before the first draw, at the default coord bound 10**6
    for argv in (
        ["gen", "collinear", "--n", "2", "--noise", str(10**12 + 10**6 + 1)],
        ["gen", "cocircular", "--n-circle", "3", "--n-noise", str(10**12 + 2 * 10**6 + 1)],
    ):
        assert invoke(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("dvsubset gen: only ") and "grid points" in err, err


def test_goodness_pretty_is_same_payload(square_file):
    _, compact = invoke(["goodness", square_file, "--a", "2"])
    _, pretty = invoke(["goodness", square_file, "--a", "2", "--pretty"])
    assert json.loads(compact) == json.loads(pretty)
    assert pretty.count("\n") > compact.count("\n")


# ------------------------------------------------------------------------ find


def test_find_square(square_file):
    code, text = invoke(["find", square_file, "--a", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["subset"] == [0, 1]
    assert payload["certificate"] == "rainbow"
    assert payload["config"]["mode"] == "auto"
    assert payload["config"]["seed"] == 0


def test_find_failure_exit_code(square_file):
    code, text = invoke(
        ["find", square_file, "--a", "2", "--t", "3", "--max-retries", "4"]
    )
    assert code == 1
    payload = json.loads(text)
    assert payload["failure"] is True
    assert payload["attempts"] == 4


def test_find_general_position_exit(collinear_file):
    code, text = invoke(
        ["find", collinear_file, "--a", "3", "--variant", "hprime"]
    )
    assert code == 1
    payload = json.loads(text)
    assert payload["error"] == "general_position"
    assert payload["witness"] == [0, 1, 2]


def test_find_rejects_threads_flag(square_file):
    code, text = invoke(["find", square_file, "--a", "2", "--threads", "4"])
    assert code == 2
    assert text == ""


def test_format_only_where_honoured(square_file):
    # find always writes JSON, so it offers no --format to misread
    code, text = invoke(["find", square_file, "--a", "2", "--format", "csv"])
    assert code == 2
    assert text == ""
    code, text = invoke(["bounds", "g", "--k", "2", "--m", "1", "--t", "3", "--format", "text"])
    assert (code, text) == (0, "108\n")


def test_find_verify_roundtrip(square_file, tmp_path):
    code, text = invoke(["find", square_file, "--a", "2"])
    assert code == 0
    found = tmp_path / "found.json"
    found.write_text(text)
    code, text = invoke(
        ["verify", square_file, "--a", "2", "--from-json", str(found)]
    )
    assert code == 0
    assert json.loads(text)["valid"] is True


# ---------------------------------------------------------------------- verify


def test_verify_invalid_subset(square_file):
    code, text = invoke(
        ["verify", square_file, "--a", "2", "--subset", "0,1,2,3"]
    )
    assert code == 1
    payload = json.loads(text)
    assert payload["valid"] is False
    assert payload["zero_edges"] == 0
    assert len(payload["duplicate_groups"]) == 2


def test_verify_from_json_without_subset_exits_2(square_file, tmp_path, capsys):
    code, text = invoke(
        ["find", square_file, "--a", "2", "--t", "3", "--max-retries", "4"]
    )
    assert code == 1
    capsys.readouterr()
    failed = tmp_path / "failed.json"
    failed.write_text(text)
    listed = tmp_path / "listed.json"
    listed.write_text("[0, 1]")
    for path in (failed, listed):
        code, text = invoke(
            ["verify", square_file, "--a", "2", "--from-json", str(path)]
        )
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err == f'dvsubset verify: {path} has no "subset" list of integer ids\n'


def test_verify_malformed_subset_exits_2(square_file, capsys):
    # an empty item is malformed, not skipped: "0,,1," once verified [0, 1]
    for ids in ("0,,1,", "", "0,x"):
        argv = ["verify", square_file, "--a", "2", "--subset", ids]
        assert invoke(argv) == (2, ""), ids
        err = capsys.readouterr().err
        assert "argument --subset: not a comma-separated id list" in err and "Traceback" not in err


def test_verify_needs_a_subset_source(square_file, capsys):
    # exactly one source: neither, or both, is a usage error before any file
    # is opened
    for extra in ([], ["--subset", "0,1", "--from-json", "/nonexistent"]):
        assert invoke(["verify", square_file, "--a", "2", *extra]) == (2, ""), extra
        err = capsys.readouterr().err
        assert "error:" in err and "--from-json" in err and "Traceback" not in err


# ---------------------------------------------------------------------- oracle


def test_oracle_square(square_file):
    code, text = invoke(["oracle", square_file, "--a", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["subset"] == [0, 1]
    assert payload["size"] == 2


# ---------------------------------------------------------------------- bounds


def test_bounds_plain_value():
    code, text = invoke(["bounds", "g", "--k", "2", "--m", "1", "--t", "3"])
    assert code == 0
    assert text == "108\n"


def test_bounds_json():
    code, text = invoke(
        ["bounds", "g", "--k", "2", "--m", "1", "--t", "3", "--format", "json"]
    )
    assert code == 0
    assert json.loads(text) == {"formula": "g", "value": "108"}


def test_bounds_fractional_constant():
    code, text = invoke(
        ["bounds", "h-general", "--a", "2", "--d", "2", "--n", "4096", "--c", "1/2"]
    )
    assert code == 0
    assert text == "2\n"


def test_bounds_expected_is_exact_fraction():
    code, text = invoke(
        ["bounds", "expected", "--n", "1000", "--k", "2", "--m", "1", "--t", "5"]
    )
    assert code == 0
    assert text == "5/2\n"


def test_bounds_pretty_needs_json(capsys):
    # --pretty under the default text format once printed 108 and exited 0
    argv = ["bounds", "g", "--k", "2", "--m", "1", "--t", "3", "--pretty"]
    assert invoke(argv) == (2, "")
    assert capsys.readouterr().err == "dvsubset bounds: --pretty needs --format json\n"
    code, text = invoke([*argv, "--format", "json"])
    assert code == 0
    assert text == '{\n  "formula": "g",\n  "value": "108"\n}\n'


def test_bounds_missing_flags():
    code, _ = invoke(["bounds", "g", "--k", "2"])
    assert code == 2


def test_bounds_rejects_bad_values():
    code, _ = invoke(["bounds", "g", "--k", "1", "--m", "1", "--t", "3"])
    assert code == 2


def test_bounds_zero_denominator_exits_2():
    argv = ["bounds", "h-general", "--a", "2", "--d", "2", "--n", "10", "--c", "1/0"]
    assert invoke(argv) == (2, "")


# ----------------------------------------------------------------------- bench


def test_bench_header_only():
    code, text = invoke(["bench", "--suite", "grids-2d", "--budget", "0"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("instance,n,a,d,observed_m")


def test_bench_negative_budget_exits_2(capsys):
    # no header either: -1 once printed the header and exited 0
    assert invoke(["bench", "--suite", "grids-2d", "--budget", "-1"]) == (2, "")
    assert capsys.readouterr().err == "dvsubset bench: budget must be >= 0, got -1\n"


def test_bench_grid_rows():
    code, text = invoke(["bench", "--suite", "grids-2d", "--budget", "2"])
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()]
    header, grid3, grid4 = rows
    distinct_col = header.index("distinct_volumes")
    assert grid3[0] == "grid-3" and grid3[distinct_col] == "5"
    assert grid4[0] == "grid-4" and grid4[distinct_col] == "9"


def test_bench_failure_row(monkeypatch):
    # a failed find has no m or t: -1 for both, size 0, its attempts as retries
    failure = ExtractionFailure(7, ConflictStats([], [], []))
    monkeypatch.setattr("dvsubset.cli.find_subset", lambda pset, req: failure)
    code, text = invoke(["bench", "--suite", "grids-2d", "--budget", "1"])
    assert code == 0
    header, row = [line.split(",") for line in text.splitlines()]
    assert header == ["instance", "n", "a", "d", "observed_m", "t_target", "subset_size", "retries",
                      "distinct_volumes", "wall_time_s"]
    assert row[:-1] == ["grid-3", "9", "2", "2", "-1", "-1", "0", "7", "5"]


def test_bench_deterministic_modulo_timing():
    argv = ["bench", "--suite", "random-2d", "--budget", "1"]
    _, a = invoke(argv)
    _, b = invoke(argv)

    def strip_time(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_time(a) == strip_time(b)


# ------------------------------------------------------------------ exit codes


def test_unknown_verb_exits_2():
    code, _ = invoke(["transmogrify"])
    assert code == 2


def test_domain_errors_exit_2(square_file):
    code, _ = invoke(["find", square_file, "--a", "4"])
    assert code == 2
    code, _ = invoke(["color", square_file, "--a", "9"])
    assert code == 2


def test_malformed_point_files_exit_2(tmp_path):
    # in a subprocess with a timeout: Fraction("1e9999999") builds 10**9999999,
    # which once kept find running past any sane limit
    env = {**os.environ, "PYTHONPATH": str(Path(dvsubset.__file__).parent.parent)}
    for text, err in (
        ("2 2\n0 0\n1e9999999 0\n", "line 3: bad rational (exponent notation in '1e9999999 0')"),
        ("2 2\n\n0 0\n1 2E3\n", "line 4: bad rational (exponent notation in '1 2E3')"),
        ("2 x\n0 0\n", "line 1: header must be 'd n'"),
        ("# note\n2.5 1\n0 0\n", "line 2: header must be 'd n'"),
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "dvsubset.cli", "find", str(path), "--a", "2"],
            capture_output=True, text=True, timeout=5, env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"dvsubset find: {err}\n")


def test_exact_values_print_at_any_size(tmp_path):
    # Python caps int-to-str conversion at 4300 digits by default; output
    # prints past the cap, and input is parsed under it, so a 5000-digit
    # coordinate is still a usage error at once
    env = {**os.environ, "PYTHONPATH": str(Path(dvsubset.__file__).parent.parent)}

    def cli(*argv, timeout=60):
        proc = subprocess.run(
            [sys.executable, "-m", "dvsubset.cli", *argv],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
        return proc.returncode, proc.stdout, proc.stderr

    x = int("7" * 2500)
    big = tmp_path / "big.txt"
    big.write_text(f"2 3\n0 0\n{x} 1\n1 {x}\n")
    bounds = cli("bounds", "H-rec", "--a", "2", "--d", "2000", "--t", "10", "--j", "1")
    goodness = cli("goodness", str(big), "--a", "2")
    verify = cli("verify", str(big), "--a", "2", "--subset", "0,1,2")
    color = cli("color", str(big), "--a", "2")
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert bounds == (0, f"{4000**2000}\n", "")
        assert len(bounds[1]) == 7205 + 1
        twin = Fraction(x) ** 2 + 1  # |p1 - p0|^2 = |p2 - p0|^2
        color_of = {"kind": "volume", "value": f"{twin.numerator}/{twin.denominator}"}
        assert goodness[0] == 0
        payload = json.loads(goodness[1])
        assert (payload["observed_m"], payload["witness_tuple"]) == (2, [0])
        assert (payload["witness_color"], payload["witness_extensions"]) == (color_of, [1, 2])
        assert verify[0] == 1
        payload = json.loads(verify[1])
        assert payload["duplicate_groups"] == [{"color": color_of, "edges": [[0, 1], [0, 2]]}]
        assert (payload["valid"], payload["zero_edges"]) == (False, 0)
        far = 2 * Fraction(x - 1) ** 2  # |p2 - p1|^2
        rows = "".join(
            f"{i},{j},volume,{v.numerator},{v.denominator}\n"
            for i, j, v in ((0, 1, twin), (0, 2, twin), (1, 2, far))
        )
        assert color == (0, "id0,id1,color_kind,num,den\n" + rows, "")
    finally:
        sys.set_int_max_str_digits(cap)
    huge = tmp_path / "huge.txt"
    huge.write_text(f"2 2\n0 0\n{'7' * 5000} 1\n")
    for verb, *more in (("goodness",), ("color",), ("verify", "--subset", "0,1")):
        code, out, err = cli(verb, str(huge), "--a", "2", *more, timeout=5)
        assert (code, out) == (2, "")
        assert err.startswith(f"dvsubset {verb}: line 3: bad rational (Exceeds the limit (4300 digits)")


def test_missing_file_exits_2():
    code, _ = invoke(["color", "/no/such/file.txt", "--a", "2"])
    assert code == 2
