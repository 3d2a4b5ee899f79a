"""The CLI's output byte for byte: each invocation's stdout, stderr and exit
code are compared with files under tests/golden/ (`<stem>.out`, and
`<stem>.err` where stderr is not empty), and a timed document ends with its
timing block. Seven cases, five of them verify's, also run as a process of
their own, through `main()`. The failing cases are the package's own error
lines; argparse's messages and `--help` are left out, because their wording
varies across Python versions.

After an intended change of output, rewrite the files from the repository
root with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from li2poly import constructors, model
from li2poly.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = {  # file name -> H-representation text or bytes, written to the working directory
    "pstar_8_4.hrep": model.serialize_hrep(constructors.pstar(8, 4)),
    "dual_cyclic_24_6.hrep": model.serialize_hrep(constructors.dual_cyclic(24, 6)),
    "strip.hrep": "2 2\n1 0 0\n-1 0 0\n",
    "dual_cyclic_60_7.hrep": model.serialize_hrep(constructors.dual_cyclic(60, 7)),
    "malformed.hrep": "1 1\n1.5 2\n",
    "empty.hrep": "2 1\n1 -2\n-1 1\n",
    "square_pyramid.hrep": "5 3\n0 0 -1 0\n1 0 1 1\n-1 0 1 1\n0 1 1 1\n0 -1 1 1\n",
    "pstar_7_3.hrep": model.serialize_hrep(constructors.pstar(7, 3)),
    "prism3_4.hrep": "# family: prism3 n=4 d=3\n4 3\n1 0 0 1\n-1 0 0 0\n0 1 0 1\n0 0 1 1\n",
    "polygon_2.hrep": "# family: polygon n=2 d=2\n2 2\n1 0 1\n0 1 1\n",
    "not_utf8.hrep": b"\xff\xfe",
    "comment_only.hrep": "# no header follows\n\n",
}
RATIO = ["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
         "--n-end", "16", "--step", "4"]
CASES = {  # golden file stem -> (argv, exit code)
    "fvector_enumerate": (["fvector", "--in", "pstar_8_4.hrep", "--method",
                           "enumerate", "--no-timing"], 0),
    "fvector_formula": (["fvector", "--in", "pstar_8_4.hrep", "--method",
                         "formula", "--no-timing"], 0),
    "hvector_repeat_3": (["hvector", "--in", "pstar_8_4.hrep", "--seed", "0",
                          "--repeat", "3", "--no-timing"], 0),
    "verify_pstar_12_6": (["verify", "pstar", "--n", "12", "--d", "6", "--json",
                           "--no-timing"], 0),
    "verify_pstar_13_7": (["verify", "pstar", "--n", "13", "--d", "7", "--json",
                           "--no-timing"], 0),
    "verify_pstar_6_4": (["verify", "pstar", "--n", "6", "--d", "4", "--json",
                          "--no-timing"], 1),
    "verify_dualcyclic_9_5": (["verify", "dualcyclic", "--n", "9", "--d", "5",
                               "--json", "--no-timing"], 0),
    "verify_prism3_8": (["verify", "prism3", "--n", "8", "--json", "--no-timing"], 0),
    "verify_text_pstar_13_7": (["verify", "pstar", "--n", "13", "--d", "7",
                                "--no-timing"], 0),
    "verify_text_pstar_6_4": (["verify", "pstar", "--n", "6", "--d", "4",
                               "--no-timing"], 1),
    "profile_dual_cyclic_24_6": (["profile", "--in", "dual_cyclic_24_6.hrep"], 0),
    "profile_strip": (["profile", "--in", "strip.hrep"], 3),
    "profile_pstar_7_3": (["profile", "--in", "pstar_7_3.hrep"], 3),
    "report_ratio_json": (RATIO, 0),
    "report_ratio_csv": (RATIO + ["--csv"], 0),
    "report_ratio_csv_decimal": (RATIO + ["--csv", "--decimal", "4"], 0),
    "report_bounds": (["report", "bounds", "--n", "12", "--n-prime", "12",
                       "--d", "6"], 0),
    "verify_text_polygon_6": (["verify", "polygon", "--n", "6", "--no-timing"], 0),
    "report_ratio_json_decimal": (RATIO + ["--decimal", "4"], 0),
    "report_ratio_odd_d_csv": (["report", "ratio", "--d", "5", "--k", "2", "--n-start",
                                "9", "--n-end", "13", "--step", "2", "--csv"], 0),
    # Failures: one line on stderr, nothing on stdout.
    "usage_fvector_max_work_0": (["fvector", "--in", "pstar_8_4.hrep", "--method",
                                  "enumerate", "--max-work", "0"], 2),
    "fvector_over_cap": (["fvector", "--in", "dual_cyclic_60_7.hrep", "--method",
                          "enumerate"], 3),
    "fvector_malformed": (["fvector", "--in", "malformed.hrep", "--method",
                           "enumerate"], 3),
    "verify_pstar_7_4_divisibility": (["verify", "pstar", "--n", "7", "--d", "4"], 3),
    "verify_polygon_2": (["verify", "polygon", "--n", "2"], 3),
    "fvector_empty": (["fvector", "--in", "empty.hrep", "--method", "enumerate"], 3),
    "hvector_square_pyramid": (["hvector", "--in", "square_pyramid.hrep",
                                "--seed", "0"], 3),
    "hvector_pstar_7_3": (["hvector", "--in", "pstar_7_3.hrep", "--seed", "0"], 3),
    "verify_pstar_2000_1000": (["verify", "pstar", "--n", "2000", "--d", "1000"], 3),
    "usage_report_ratio_empty_range": (["report", "ratio", "--d", "4", "--k", "0",
                                        "--n-start", "12", "--n-end", "8",
                                        "--step", "4"], 2),
    "fvector_formula_prism3_4": (["fvector", "--in", "prism3_4.hrep", "--method",
                                  "formula"], 3),
    "fvector_formula_polygon_2": (["fvector", "--in", "polygon_2.hrep", "--method",
                                   "formula"], 3),
    "construct_dualcyclic_3_1": (["construct", "dualcyclic", "--n", "3", "--d", "1"], 3),
    "verify_pstar_3_1": (["verify", "pstar", "--n", "3", "--d", "1"], 3),
    "fvector_not_utf8": (["fvector", "--in", "not_utf8.hrep", "--method",
                          "enumerate"], 3),
    "fvector_comment_only": (["fvector", "--in", "comment_only.hrep", "--method",
                              "enumerate"], 3),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    _write_inputs(folder)
    return folder


def _write_inputs(folder) -> None:
    for name, content in INPUTS.items():
        if isinstance(content, bytes):
            Path(folder, name).write_bytes(content)
        else:
            Path(folder, name).write_text(content, encoding="utf-8")


def _golden(name: str, stream: str = "out") -> Path:
    return GOLDEN / f"{name}.{stream}"


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(inputs, monkeypatch, capsys, name):
    argv, code = CASES[name]
    monkeypatch.chdir(inputs)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == _golden(name).read_text(encoding="utf-8")
    err = _golden(name, "err")
    assert captured.err == (err.read_text(encoding="utf-8") if err.exists() else "")


@pytest.mark.parametrize("name", ["verify_pstar_12_6", "verify_pstar_13_7",
                                  "verify_dualcyclic_9_5", "verify_pstar_6_4",
                                  "verify_pstar_2000_1000", "fvector_over_cap",
                                  "usage_fvector_max_work_0"])
def test_a_process_prints_the_golden_bytes(inputs, name):
    argv, code = CASES[name]
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "li2poly.cli", *argv], capture_output=True,
                          env=env, cwd=inputs, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == _golden(name).read_bytes()
    err = _golden(name, "err")
    assert proc.stderr == (err.read_bytes() if err.exists() else b"")


@pytest.mark.parametrize("name", ["fvector_enumerate", "hvector_repeat_3",
                                  "verify_pstar_12_6"])
def test_timing_block_comes_last(inputs, monkeypatch, capsys, name):
    argv, code = CASES[name]
    monkeypatch.chdir(inputs)
    assert run([a for a in argv if a != "--no-timing"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert list(doc)[:2] == ["schema_version", "command"]
    assert list(doc)[-1] == "timing_ms"
    assert list(json.loads(_golden(name).read_text(encoding="utf-8"))) == list(doc)[:-1]


def _rewrite() -> None:
    """Write every golden file from the code as it stands."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        _write_inputs(folder)
        here = os.getcwd()
        os.chdir(folder)
        for name, (argv, code) in CASES.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert run(argv) == code, name
            _golden(name).write_text(out.getvalue(), encoding="utf-8")
            if err.getvalue():
                _golden(name, "err").write_text(err.getvalue(), encoding="utf-8")
            else:
                _golden(name, "err").unlink(missing_ok=True)
        os.chdir(here)


if __name__ == "__main__":
    _rewrite()
