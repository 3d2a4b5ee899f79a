"""The package runs no linear program: every subcommand runs without the
LP code, which lives in the test suite as the reference, and the suite
itself collects without errors."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import li2poly
from li2poly.cli import run

ROOT = Path(__file__).resolve().parent.parent
LP_MODULES = ("simplex", "geometry")


def test_every_subcommand_runs_without_the_lp_modules(tmp_path, capsys):
    path = str(tmp_path / "p.hrep")
    commands = [
        ["construct", "pstar", "--n", "8", "--d", "4", "--out", path],
        ["fvector", "--in", path, "--method", "enumerate", "--no-timing"],
        ["fvector", "--in", path, "--method", "formula", "--no-timing"],
        ["hvector", "--in", path, "--seed", "0", "--no-timing"],
        ["verify", "pstar", "--n", "7", "--d", "3", "--json", "--no-timing"],
        ["profile", "--in", path],
        ["report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
         "--n-end", "12", "--step", "4"],
        ["report", "bounds", "--n", "12", "--n-prime", "12", "--d", "6"],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
    capsys.readouterr()
    for name in LP_MODULES:
        assert f"li2poly.{name}" not in sys.modules
        assert not hasattr(li2poly, name)
        assert importlib.util.find_spec(f"li2poly.{name}") is None
    for module_name in [m for m in sys.modules if m.startswith("li2poly.")]:
        assert not hasattr(importlib.import_module(module_name), "solve_lp_max")


def test_suite_collects_without_errors():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", str(ROOT / "tests")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    summary = result.stdout.strip().splitlines()[-1]
    assert re.fullmatch(r"\d+ tests collected in [\d.]+s", summary), summary
