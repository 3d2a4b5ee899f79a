"""Command line behavior: output schemas, exit codes, determinism."""

import importlib
import json

import pytest

from li2poly.cli import run
from li2poly.errors import InputError
from li2poly.model import parse_hrep
from lp_geometry import redundant_constraints as lp_redundant_constraints


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_construct_round_trips_through_fvector(tmp_path, capsys):
    path = tmp_path / "p.hrep"
    assert run(["construct", "pstar", "--n", "8", "--d", "4",
                "--out", str(path)]) == 0
    code, doc = run_json(capsys, ["fvector", "--in", str(path),
                                  "--method", "enumerate", "--no-timing"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["f"] == [16, 32, 24, 8, 1]
    code, doc = run_json(capsys, ["fvector", "--in", str(path),
                                  "--method", "formula", "--no-timing"])
    assert code == 0
    assert doc["f"] == [16, 32, 24, 8, 1]
    assert doc["family"] == "pstar"


def test_construct_writes_family_comment(capsys):
    assert run(["construct", "polygon", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# family: polygon n=5 d=2"
    assert out.splitlines()[1] == "5 2"


def test_construct_divisibility_violation_exits_3(capsys):
    assert run(["construct", "pstar", "--n", "10", "--d", "6"]) == 3
    err = capsys.readouterr().err
    assert "divisor of n" in err


def test_usage_errors_exit_2(capsys):
    assert run(["construct", "pstar", "--n", "12"]) == 2      # missing --d
    assert run(["construct", "prism3", "--n", "8", "--d", "4"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["fvector", "--in", "x", "--method", "wrong"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["hvector", "--in", "unread.hrep", "--seed", "0", "--repeat", "0"],
     "--repeat must be at least 1, got 0"),
    (["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
      "--n-end", "12", "--step", "0"], "--step must be at least 1, got 0"),
    (["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
      "--n-end", "8", "--step", "1", "--csv", "--decimal", "-2"],
     "--decimal must be at least 0, got -2"),
])
def test_integer_option_out_of_range_exits_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_fvector_formula_requires_family_tag(tmp_path, capsys):
    path = tmp_path / "plain.hrep"
    path.write_text("2 2\n1 0 1\n0 1 1\n")
    assert run(["fvector", "--in", str(path), "--method", "formula"]) == 3
    assert "family" in capsys.readouterr().err


def test_fvector_missing_file_exits_3(capsys):
    assert run(["fvector", "--in", "/nonexistent", "--method", "enumerate"]) == 3
    capsys.readouterr()


def test_hvector_repeat_agrees(tmp_path, capsys):
    path = tmp_path / "sq.hrep"
    assert run(["construct", "polygon", "--n", "6", "--out", str(path)]) == 0
    code, doc = run_json(capsys, ["hvector", "--in", str(path), "--seed", "0",
                                  "--repeat", "3", "--no-timing"])
    assert code == 0
    assert doc["seeds"] == [0, 1, 2]
    assert doc["agree"] is True
    assert doc["h"] == [1, 4, 1]


def test_verify_pstar_12_6(capsys):
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "12", "--d", "6",
                                  "--json", "--no-timing"])
    assert code == 0
    assert doc["f_enumerated"] == [64, 192, 240, 160, 60, 12, 1]
    assert doc["h_indegree"] == [1, 6, 15, 20, 15, 6, 1]
    assert doc["pass"] is True
    assert all(doc["checks"].values())


def test_verify_unbounded_odd_instance(capsys):
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "7", "--d", "3",
                                  "--json", "--no-timing"])
    assert code == 0
    assert doc["bounded"] is False
    assert doc["h_indegree"] is None
    assert doc["pass"] is True
    assert any("unbounded" in note for note in doc["notes"])


def test_verify_human_readable(capsys):
    assert run(["verify", "prism3", "--n", "6", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "check oracle_match: pass" in out


def test_verify_timing_present_by_default(capsys):
    code, doc = run_json(capsys, ["verify", "dualcyclic", "--n", "6", "--d", "3",
                                  "--json"])
    assert code == 0
    assert "timing_ms" in doc and "total" in doc["timing_ms"]


def test_verify_times_every_stage(capsys):
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "8", "--d", "4",
                                  "--json"])
    assert code == 0
    timing = doc["timing_ms"]
    assert list(timing) == ["bounded", "enumerate", "formula", "hvector", "ubt",
                            "bounds", "total"]
    assert sum(ms for stage, ms in timing.items() if stage != "total") \
        <= timing["total"]


def test_verify_byte_identical_with_no_timing(capsys):
    argv = ["verify", "dualcyclic", "--n", "7", "--d", "3", "--json", "--no-timing"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_profile_reports_duplicate_row(tmp_path, capsys):
    path = tmp_path / "dup.hrep"
    path.write_text("5 2\n1 0 1\n0 1 1\n-1 0 0\n0 -1 0\n1 0 1\n")
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 0
    assert doc["redundant_indices"] == [4]
    assert doc["single_var_count"] == 5
    assert doc["warnings"]


def test_profile_unbounded_input_exits_3(tmp_path, capsys):
    path = tmp_path / "halfplane.hrep"
    path.write_text("1 2\n-1 0 0\n")
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 3
    assert doc["redundant_indices"] is None


def test_profile_lower_dimensional_matches_lp_scan(tmp_path, capsys):
    # A flat square in R^3: z <= 0 and -z <= 0 pin z = 0, the scaled 2z <= 0
    # repeats the first of them and x + y <= 5 is never tight.
    text = ("8 3\n1 0 0 1\n-1 0 0 0\n0 1 0 1\n0 -1 0 0\n"
            "0 0 1 0\n0 0 -1 0\n0 0 2 0\n1 1 0 5\n")
    path = tmp_path / "flat.hrep"
    path.write_text(text)
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 0
    assert doc["redundant_indices"] == sorted(
        lp_redundant_constraints(parse_hrep(text))) == [6, 7]


@pytest.mark.parametrize("text", [
    "1 2\n-1 0 0\n",                # half-plane: not pointed
    "2 2\n-1 0 0\n0 -1 0\n",       # quadrant: pointed, unbounded
    "2 1\n1 -2\n-1 1\n",           # empty
    "2 2\n0 1 -1\n0 -1 0\n",       # empty and not pointed
], ids=["half_plane", "quadrant", "empty", "empty_strip"])
def test_profile_without_bounded_input_keeps_lp_scan_warning(tmp_path, capsys,
                                                            text):
    path = tmp_path / "p.hrep"
    path.write_text(text)
    with pytest.raises(InputError) as lp_error:
        lp_redundant_constraints(parse_hrep(text))
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 3
    assert doc["redundant_indices"] is None
    assert doc["warnings"] == [f"redundancy scan skipped: {lp_error.value}"]


def test_profile_over_cap_exits_3_with_profile(tmp_path, capsys):
    path = tmp_path / "dc.hrep"
    assert run(["construct", "dualcyclic", "--n", "25", "--d", "4",
                "--out", str(path)]) == 0
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 3
    assert (doc["n"], doc["d"], doc["is_li2"]) == (25, 4, False)
    assert doc["redundant_indices"] is None
    assert doc["warnings"] == [
        "redundancy scan skipped: n=25, d=4 exceeds the default caps n<=24, "
        "d<=7 (C(25,4) = 12650 subsystems of 4 rows bound the vertex count); "
        "pass max_subsets to override"]


def test_report_ratio_csv(capsys):
    assert run(["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
                "--n-end", "16", "--step", "4", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n,f_dual_cyclic,f_pstar,ratio,threshold")
    assert len(lines) == 4
    assert lines[1].split(",")[3] == "5/4"


def test_report_ratio_csv_decimal_column(capsys):
    assert run(["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
                "--n-end", "8", "--step", "4", "--csv", "--decimal", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].endswith("1.250")


def test_report_ratio_json(capsys):
    code, doc = run_json(capsys, ["report", "ratio", "--d", "4", "--k", "3",
                                  "--n-start", "8", "--n-end", "12", "--step", "2"])
    assert code == 0
    assert [row["n"] for row in doc["rows"]] == [8, 10, 12]
    assert doc["rows"][0]["within_envelope"] is True


def test_report_ratio_divisibility_exits_3(capsys):
    assert run(["report", "ratio", "--d", "6", "--k", "0", "--n-start", "10",
                "--n-end", "10", "--step", "3"]) == 3
    capsys.readouterr()


def test_report_bounds(capsys):
    code, doc = run_json(capsys, ["report", "bounds", "--n", "12",
                                  "--n-prime", "12", "--d", "6"])
    assert code == 0
    assert doc["ridge_bound"] == "368/5"
    assert doc["deficit_vacuous"] is True
    per_k = {row["k"]: row for row in doc["per_k"]}
    assert per_k[4]["f_dual_cyclic"] == 66
    code, doc = run_json(capsys, ["report", "bounds", "--n", "60",
                                  "--n-prime", "60", "--d", "4"])
    assert doc["deficit"] == "235"
    assert doc["deficit_vacuous"] is False
    per_k = {row["k"]: row for row in doc["per_k"]}
    assert per_k[2]["bound_proof_chain"] == "1535"
    assert per_k[2]["bound_literal"] == "1415"


def test_verify_reports_failed_separation_at_triangle_factors(capsys):
    # pstar(6,4) provably attains the dual cyclic counts, so the strict
    # separation check fails and verify exits 1, honestly.
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "6", "--d", "4",
                                  "--json", "--no-timing"])
    assert code == 1
    assert doc["checks"]["thm42_strict"] is False
    assert doc["checks"]["oracle_match"] is True
    assert doc["pass"] is False


@pytest.mark.parametrize("module, attr", [
    ("faces", "redundant_rows"),
    ("faces", "face_lattice"),
    ("faces", "enumerate_vertices"),
    ("formulas", "fk_dual_cyclic"),
])
def test_internal_error_exits_4(monkeypatch, capsys, tmp_path, module, attr):
    def broken(*args, **kwargs):
        raise AssertionError(f"invariant broken in {module}\nsecond line")

    argv = ["verify", "prism3", "--n", "6", "--json", "--no-timing"]
    if attr == "redundant_rows":  # verify never reads redundancy; profile does
        path = str(tmp_path / "prism.hrep")
        assert run(["construct", "prism3", "--n", "6", "--out", path]) == 0
        argv = ["profile", "--in", path]
    monkeypatch.setattr(importlib.import_module(f"li2poly.{module}"), attr, broken)
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"internal error: invariant broken in {module} "
                            "second line\n")
