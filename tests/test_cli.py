import io
import json

import pytest

from dvsubset.cli import run
from dvsubset.geometry import parse_pointset

SQUARE_TEXT = "2 4\n0 0\n1 0\n0 1\n1 1\n"


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


def test_color_budget_warning(square_file, capsys):
    code, text = invoke(["color", square_file, "--a", "2", "--budget-edges", "1"])
    assert code == 0
    assert len(text.splitlines()) == 7  # warning does not censor output
    assert "exceeds budget" in capsys.readouterr().err


def test_budget_warning_only_where_edges_are_stored(square_file, capsys):
    # C(4, 2) = 6: a budget equal to the edge count is not exceeded
    assert invoke(["color", square_file, "--a", "2", "--budget-edges", "6"])[0] == 0
    assert capsys.readouterr().err == ""
    # goodness reads rows on demand and stores no edge at any a: no budget flag
    for a in ("2", "3"):
        assert invoke(["goodness", square_file, "--a", a, "--budget-edges", "1"]) == (2, "")


def test_goodness_json(square_file):
    code, text = invoke(["goodness", square_file, "--a", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["observed_m"] == 2
    assert payload["witness_tuple"] == [0]
    assert payload["witness_extensions"] == [1, 2]
    assert payload["config"] == {"a": 2}


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
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_verify_needs_a_subset_source(square_file):
    code, _ = invoke(["verify", square_file, "--a", "2"])
    assert code == 2


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


def test_bounds_missing_flags():
    code, _ = invoke(["bounds", "g", "--k", "2"])
    assert code == 2


def test_bounds_rejects_bad_values():
    code, _ = invoke(["bounds", "g", "--k", "1", "--m", "1", "--t", "3"])
    assert code == 2


# ----------------------------------------------------------------------- bench


def test_bench_header_only():
    code, text = invoke(["bench", "--suite", "grids-2d", "--budget", "0"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("instance,n,a,d,observed_m")


def test_bench_grid_rows():
    code, text = invoke(["bench", "--suite", "grids-2d", "--budget", "2"])
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()]
    header, grid3, grid4 = rows
    distinct_col = header.index("distinct_volumes")
    assert grid3[0] == "grid-3" and grid3[distinct_col] == "5"
    assert grid4[0] == "grid-4" and grid4[distinct_col] == "9"


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


def test_missing_file_exits_2():
    code, _ = invoke(["color", "/no/such/file.txt", "--a", "2"])
    assert code == 2
