"""Command line behavior: output schemas, exit codes, determinism."""

import gc
import importlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from li2poly import cli, constructors, faces, hvector
from li2poly.cli import run
from li2poly.model import parse_hrep
from lp_geometry import redundant_constraints as lp_redundant_constraints
from test_model import NON_ASCII_DIGITS


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


def test_construct_unwritable_out_exits_3(tmp_path, capsys):
    path = tmp_path / "missing" / "p.hrep"
    assert run(["construct", "polygon", "--n", "5", "--out", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_construct_divisibility_violation_exits_3(capsys):
    assert run(["construct", "pstar", "--n", "10", "--d", "6"]) == 3
    err = capsys.readouterr().err
    assert "divisor of n" in err


def test_the_parser_is_collected_before_the_command_runs(monkeypatch):
    # The command's work reuses the parser's memory, reference cycles that
    # only the collector frees.
    built, seen, build_parser = [], [], cli.build_parser

    def build():
        parser = build_parser()
        built.append(weakref.ref(parser))
        return parser

    monkeypatch.setattr(cli, "build_parser", build)
    monkeypatch.setattr(cli, "cmd_report_bounds", lambda args: seen.append(built[0]()) or 0)
    assert run(["report", "bounds", "--n", "12", "--n-prime", "12", "--d", "6"]) == 0
    assert len(built) == 1 and seen == [None]


def test_main_freezes_the_start_up_heap_and_run_does_not(monkeypatch, capsys):
    # A process runs one command, so main() freezes what is alive before it;
    # run() is also called in-process, where a freeze would keep dead objects.
    frozen = []
    monkeypatch.setattr(sys, "argv", ["li2poly"])
    monkeypatch.setattr(cli, "run", lambda argv: frozen.append(gc.get_freeze_count() > 0) or 0)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main()
    finally:
        gc.unfreeze()
    assert exc.value.code == 0 and frozen == [True]
    monkeypatch.undo()
    assert run(["report", "bounds", "--n", "12", "--n-prime", "12", "--d", "6"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


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
    (["fvector", "--in", "unread.hrep", "--method", "enumerate",
      "--max-work", "0"], "--max-work must be at least 1, got 0"),
    (["verify", "pstar", "--n", "8", "--d", "4", "--max-work", "-3"],
     "--max-work must be at least 1, got -3"),
    (["verify", "pstar", "--n", "8", "--d", "-2", "--max-work", "5"],
     "--d must be at least 0, got -2"),
    (["verify", "dualcyclic", "--n", "-3", "--d", "3", "--max-work", "5"],
     "--n must be at least 0, got -3"),
    (["construct", "polygon", "--n", "-1"], "--n must be at least 0, got -1"),
    (["construct", "pstar", "--n", "8", "--d", "-4"],
     "--d must be at least 0, got -4"),
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


def test_fvector_formula_rejects_mismatched_family_tag(tmp_path, capsys):
    path = tmp_path / "mistagged.hrep"
    path.write_text("# family: pstar n=12 d=6\n3 2\n1 0 1\n0 1 1\n-1 -1 0\n")
    assert run(["fvector", "--in", str(path), "--method", "formula"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: family tag n=12 d=6 does not match the "
                            "header n=3 d=2\n")


def test_fvector_missing_file_exits_3(capsys):
    assert run(["fvector", "--in", "/nonexistent", "--method", "enumerate"]) == 3
    capsys.readouterr()


def test_fvector_zero_denominator_exits_3(tmp_path, capsys):
    path = tmp_path / "zero.hrep"
    path.write_text("1 1\n1 1/0\n")
    assert run(["fvector", "--in", str(path), "--method", "enumerate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: zero denominator in '1/0'\n"


@pytest.mark.parametrize("name", NON_ASCII_DIGITS)
def test_fvector_non_ascii_digits_exit_3(tmp_path, capsys, name):
    text, line, message = NON_ASCII_DIGITS[name]
    path = tmp_path / "digits.hrep"
    path.write_text(text, encoding="utf-8")
    assert run(["fvector", "--in", str(path), "--method", "enumerate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: {message}\n"


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


def test_verify_notes_a_vacuous_ridge_bound(capsys):
    # pstar(8,4)'s ridge bound 94/3 exceeds C(8,2) = 28.
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "8", "--d", "4",
                                  "--json", "--no-timing"])
    assert code == 0 and doc["checks"]["lemma41"] is True
    assert doc["notes"] == ["lemma41: vacuous: bound is at least C(n,2)"]


@pytest.mark.parametrize("offsets", [(1, 1, 1), (0, 1, 2)],
                         ids=["seeds_agree_off_h_from_f", "seeds_disagree"])
def test_verify_fails_h_independence(monkeypatch, capsys, offsets):
    # Seed s adds offsets[s] to h_1: all seeds must agree, and with h_from_f.
    real = hvector.indegree_hvector

    def skewed(analysis, seed):
        h = real(analysis, seed)
        return (h[0], h[1] + offsets[seed], *h[2:])

    monkeypatch.setattr(hvector, "indegree_hvector", skewed)
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "8", "--d", "4",
                                  "--json", "--no-timing"])
    assert code == 1 and doc["pass"] is False
    assert [name for name, ok in doc["checks"].items() if not ok] == ["h_independence"]
    assert doc["h_indegree"] == [1, 4 + offsets[0], 6, 4, 1]


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


@pytest.mark.parametrize("instance", [
    ["pstar", "--n", "8", "--d", "4"],
    ["pstar", "--n", "9", "--d", "5"],
    ["dualcyclic", "--n", "9", "--d", "5"],
    ["polygon", "--n", "5"],
], ids=["bounded_li2_d4", "unbounded", "not_li2", "d_below_4"])
def test_verify_times_every_stage(capsys, instance):
    # A skipped stage, such as hvector on an unbounded instance, is still timed.
    code, doc = run_json(capsys, ["verify", *instance, "--json"])
    assert code == 0
    timing = doc["timing_ms"]
    assert list(timing) == ["bounded", "enumerate", "formula", "hvector", "ubt",
                            "bounds", "total"]
    assert sum(ms for stage, ms in timing.items() if stage != "total") \
        <= timing["total"]


@pytest.mark.parametrize("argv", [
    ["verify", "pstar", "--n", "2000", "--d", "2"],
    ["verify", "prism3", "--n", "20000"],
])
def test_verify_applies_caps_before_building(monkeypatch, capsys, argv):
    # An over-cap verify must exit before it builds anything, even though
    # the polygon constructors are linear in n.
    def fail(tag):
        pytest.fail(f"built {tag} before checking the caps")
    monkeypatch.setattr(constructors, "from_family", fail)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    work = {"pstar": "n=2000, d=2: the Upper Bound Theorem allows 4003 faces; "
                     "work 2000 * 4003 = 8006000",
            "prism3": "n=20000, d=3: the Upper Bound Theorem allows 119997 "
                      "faces; work 20000 * 119997 = 2399940000"}[argv[1]]
    assert captured.err == f"error: {work} exceeds max_work=5000000\n"


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
    with pytest.raises(ValueError) as lp_error:
        lp_redundant_constraints(parse_hrep(text))
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 3
    assert doc["redundant_indices"] is None
    assert doc["warnings"] == [f"redundancy scan skipped: {lp_error.value}"]


def test_profile_over_cap_exits_3_with_profile(tmp_path, capsys):
    path = tmp_path / "dc.hrep"
    assert run(["construct", "dualcyclic", "--n", "60", "--d", "7",
                "--out", str(path)]) == 0
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 3
    assert (doc["n"], doc["d"], doc["is_li2"]) == (60, 7, False)
    assert doc["redundant_indices"] is None
    assert doc["warnings"] == [
        "redundancy scan skipped: n=60, d=7: the Upper Bound Theorem allows "
        "722433 faces; work 60 * 722433 = 43345980 exceeds max_work=5000000"]
    # dual_cyclic(25,4), 25 * 1249 = 31225 of work, is admitted.
    assert run(["construct", "dualcyclic", "--n", "25", "--d", "4",
                "--out", str(path)]) == 0
    code, doc = run_json(capsys, ["profile", "--in", str(path)])
    assert code == 0
    assert (doc["n"], doc["d"], doc["redundant_indices"]) == (25, 4, [])


def test_report_ratio_csv(capsys):
    assert run(["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
                "--n-end", "16", "--step", "4", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,f_dual_cyclic,f_pstar,ratio,limit,within_limit"
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
    # At k = d-1 both counts are n, so the ratio sits on its limit 1.
    assert all(row["ratio"] == row["limit"] == "1" and row["within_limit"] is True
               for row in doc["rows"])


def test_report_ratio_divisibility_exits_3(capsys):
    assert run(["report", "ratio", "--d", "6", "--k", "0", "--n-start", "10",
                "--n-end", "10", "--step", "3"]) == 3
    capsys.readouterr()


def test_a_reader_that_closes_stdout_early_gets_exit_141(tmp_path):
    # The document, about 2 MB, is far larger than a pipe's buffer, so a
    # write fails once the reader has gone. That is no failed check (exit 1)
    # and no traceback: exit 128 + SIGPIPE with nothing on stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "li2poly.cli", "report", "ratio", "--d", "4", "--k", "0",
         "--n-start", "8", "--n-end", "40000", "--step", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ["verify", "pstar", "--n", "8", "--d", "4", "--json", "--no-timing"],
    ["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8", "--n-end", "16",
     "--step", "4"],
    ["construct", "pstar", "--n", "8", "--d", "4"],
], ids=["verify", "report_ratio", "construct"])
def test_a_full_stdout_gets_one_error_line_and_exit_3(tmp_path, argv):
    # Output that cannot be written is no failed check (exit 1) and no
    # traceback: one line on stderr and exit 3, as for `construct --out`.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "li2poly.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"


def test_report_bounds(capsys):
    code, doc = run_json(capsys, ["report", "bounds", "--n", "12",
                                  "--n-prime", "12", "--d", "6"])
    assert code == 0
    assert doc["ridge_bound"] == "368/5"
    assert doc["ridge_note"] == "vacuous: bound is at least C(n,2)"
    assert doc["ridge_count_max"] == 66
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
    code, doc = run_json(capsys, ["report", "bounds", "--n", "14",
                                  "--n-prime", "14", "--d", "4"])
    assert (doc["ridge_bound"], doc["ridge_note"]) == ("539/6", "")
    assert doc["ridge_count_max"] == 91
    # n' = d(d-1) + 1 makes D = 0: the bound equals C(n,2) and is vacuous.
    code, doc = run_json(capsys, ["report", "bounds", "--n", "13",
                                  "--n-prime", "13", "--d", "4"])
    assert (doc["ridge_bound"], doc["ridge_count_max"], doc["deficit"]) == ("78", 78, "0")
    assert doc["ridge_note"] == "vacuous: bound is at least C(n,2)"
    assert doc["deficit_vacuous"] is True


@pytest.mark.parametrize("n, n_prime, message", [
    (3, 0, "c*(n, d) needs n > d, got n=3 d=4"),
    (12, 13, "need 0 <= n_prime <= n"),
])
def test_report_bounds_out_of_range_exits_3(capsys, n, n_prime, message):
    assert run(["report", "bounds", "--n", str(n), "--n-prime", str(n_prime),
                "--d", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--n", "12", "--n-prime", "12", "--d", "400"],
     "c*(n, d) needs n > d, got n=12 d=400"),
    (["ratio", "--d", "4", "--k", "0", "--n-start", "2", "--n-end", "8", "--step", "2"],
     "c*(n, d) needs n > d, got n=2 d=4"),
], ids=["bounds_d_400", "ratio_n_start_2"])
def test_report_without_more_rows_than_dimensions_exits_3(capsys, argv, message):
    # The dual cyclic count names n and d, which both reports take.
    assert run(["report", *argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_report_bounds_small_d_exits_3(capsys, d):
    assert run(["report", "bounds", "--n", "12", "--n-prime", "12",
                "--d", str(d)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the ridge bound assumes d >= 4\n"


def test_verify_reports_failed_separation_at_triangle_factors(capsys):
    # pstar(6,4) provably attains the dual cyclic counts, so the strict
    # separation check fails and verify exits 1, honestly.
    code, doc = run_json(capsys, ["verify", "pstar", "--n", "6", "--d", "4",
                                  "--json", "--no-timing"])
    assert code == 1
    assert doc["checks"]["thm42_strict"] is False
    assert doc["checks"]["oracle_match"] is True
    assert doc["pass"] is False


def test_face_count_over_the_upper_bound_exits_4(monkeypatch, capsys, tmp_path):
    # A bound one below pstar(8,4)'s f_1 = 32 trips the f-vector's check.
    path = str(tmp_path / "pstar.hrep")
    assert run(["construct", "pstar", "--n", "8", "--d", "4", "--out", path]) == 0
    argv = ["fvector", "--method", "enumerate", "--in", path, "--no-timing"]
    code, doc = run_json(capsys, argv)
    assert (code, doc["f"]) == (0, [16, 32, 24, 8, 1])
    bound = faces.face_bound(8, 4)
    monkeypatch.setattr(faces, "face_bound", lambda n, d: (bound[0], 31, *bound[2:]))
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: f-vector (16, 32, 24, 8, 1) exceeds "
                            f"the Upper Bound Theorem's ({bound[0]}, 31, "
                            f"{', '.join(map(str, bound[2:]))})\n")


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
    if attr == "fk_dual_cyclic":  # the enumerator reads no closed form; thm42 does
        argv = ["verify", "pstar", "--n", "8", "--d", "4", "--json", "--no-timing"]
    monkeypatch.setattr(importlib.import_module(f"li2poly.{module}"), attr, broken)
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"internal error: invariant broken in {module} "
                            "second line\n")
