"""The package runs no linear program and no elimination outside its
double-description kernel: every subcommand runs without the LP code, the
Fraction linear algebra and a rank routine, which live in the test suite as
the reference, and the suite itself collects without errors. Face queries
have one handle, faces.Analysis, over integer generators. A command imports
only the modules it runs, and none imports dataclasses or inspect; the
enumerator and the h comparison load no closed form."""

import ast
import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import li2poly
from li2poly import constructors, faces, formulas, hvector, model
from li2poly.cli import run

ROOT = Path(__file__).resolve().parent.parent
ABSENT_MODULES = ("simplex", "geometry", "ratlin", "errors")


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
    for name in ABSENT_MODULES:
        assert f"li2poly.{name}" not in sys.modules
        assert not hasattr(li2poly, name)
        assert importlib.util.find_spec(f"li2poly.{name}") is None
    for module_name in [m for m in sys.modules if m.startswith("li2poly.")]:
        module = importlib.import_module(module_name)
        for name in ("solve_lp_max", "_row_reduce", "_independent"):
            assert not hasattr(module, name)


def test_queries_have_one_handle_over_integer_generators():
    for name in li2poly.__all__:
        assert getattr(li2poly, name) is not None, name
    for name in ("analyze", "f_vector", "is_simple", "redundant_constraints",
                 "facet_adjacency_count"):
        assert not hasattr(faces, name), name
        assert name not in li2poly.__all__ and not hasattr(li2poly, name), name
    assert isinstance(faces.Analysis.facet_adjacency_count, functools.cached_property)
    assert not hasattr(faces.Analysis, "vertices")
    assert not hasattr(faces.Analysis, "face_bits") and not hasattr(faces, "BitFace")
    assert not hasattr(model, "dot")
    assert not hasattr(hvector, "Fraction") and not hasattr(hvector, "_draw_objective")
    for name in ("Fraction", "Constraint", "_in_cone"):  # redundancy runs the kernel again
        assert not hasattr(faces, name), name
    # The bound and h checks return plain values, and a row carries no label.
    # A ratio row is a dict, so formulas needs no record type, and it is
    # compared with its exact limit, so no constant stands in for e. The
    # evenness oracle, which no command reads, is a test reference.
    for module, name in ((formulas, "BoundReport"), (formulas, "ridge_bound_report"),
                         (formulas, "separation_bound_reports"),
                         (formulas, "E_UPPER"), (formulas, "ENVELOPE_SLACK"),
                         (formulas, "gale_evenness_facet_count"),
                         (hvector, "UbtEntry"), (hvector, "UbtComparison"),
                         (formulas, "RatioRow"), (formulas, "NamedTuple")):
        assert not hasattr(module, name) and not hasattr(li2poly, name), name
    assert "label" not in model.Constraint._fields
    assert not hasattr(hvector, "f_from_h")


RETIRED_ERRORS = ("LI2PolyError", "DivisibilityError", "InfeasibleError",
                  "UnboundedInputError", "RedundantInputError", "NotSimpleError",
                  "CapExceededError", "GenericObjectiveError", "InputError",
                  "HRepParseError")


def test_an_error_type_is_one_that_some_caller_tells_apart():
    # Every rejected input is a plain ValueError, one exit code in the CLI.
    # A subclass stays only while some code in src/ catches it by name.
    defined, caught, modules = [], set(), []
    for path in sorted((ROOT / "src" / "li2poly").glob("*.py")):
        module = importlib.import_module(
            "li2poly" if path.stem == "__init__" else f"li2poly.{path.stem}")
        modules.append(module)
        defined += [f"{path.stem}.{name}" for name, value in vars(module).items()
                    if isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id for t in types if isinstance(t, ast.Name)}
    assert defined == ["cli.UsageError", "faces.NonPointedError"]
    assert issubclass(faces.NonPointedError, ValueError)
    uncaught = [name for name in defined if name.split(".")[1] not in caught]
    assert not uncaught, uncaught
    for name in RETIRED_ERRORS:
        assert not any(hasattr(module, name) for module in modules), name


def test_lazy_exports_keep_the_public_surface():
    for name in li2poly.__all__:
        home = importlib.import_module(f"li2poly.{li2poly._HOME[name]}")
        assert getattr(li2poly, name) is getattr(home, name), name
    star = {}
    exec("from li2poly import *", star)
    assert set(li2poly.__all__) <= set(star)
    assert set(li2poly.__all__) <= set(dir(li2poly))
    for name in ("simplex", "no_such_name", "_no_such_name"):
        assert not hasattr(li2poly, name)
    with pytest.raises(AttributeError, match="'li2poly' has no attribute 'simplex'"):
        li2poly.simplex


def _imports(argv, cwd) -> tuple[int, set[str]]:
    """Exit code and imported modules of a command, from -X importtime.

    -S keeps the site's imports out of the set: only the package's count.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "li2poly.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    return result.returncode, {line.rsplit("|", 1)[1].strip()
                               for line in result.stderr.splitlines()
                               if line.startswith("import time:")}


def test_commands_import_only_what_they_run(tmp_path):
    small, big = tmp_path / "small.hrep", tmp_path / "big.hrep"
    small.write_text(model.serialize_hrep(constructors.pstar(8, 4)))
    big.write_text(model.serialize_hrep(constructors.dual_cyclic(60, 7)))
    hv, cons, fm = "li2poly.hvector", "li2poly.constructors", "li2poly.formulas"
    expected = {  # argv -> (exit code, which of hvector, constructors, formulas run)
        ("fvector", "--method", "enumerate", "--in", str(small)): (0, set()),
        ("profile", "--in", str(small)): (0, set()),
        ("hvector", "--in", str(big), "--seed", "0"): (3, set()),  # over the cap
        ("fvector", "--method", "enumerate", "--in", str(big)): (3, set()),
        ("hvector", "--in", str(small), "--seed", "0"): (0, {hv}),
        ("report", "bounds", "--n", "12", "--n-prime", "12", "--d", "6"): (0, {fm}),
        ("report", "ratio", "--d", "4", "--k", "0", "--n-start", "8",
         "--n-end", "12", "--step", "4"): (0, {fm}),
        ("construct", "pstar", "--n", "8", "--d", "4", "--out", "c"): (0, {cons, fm}),
        ("fvector", "--method", "formula", "--in", str(small)): (0, {cons, fm}),
        ("verify", "pstar", "--n", "8", "--d", "4", "--json"): (0, {hv, cons, fm}),
    }
    for argv, (code, runs) in expected.items():
        exit_code, modules = _imports(argv, tmp_path)
        assert "li2poly.faces" in modules, argv  # the list is read at all
        assert not {"dataclasses", "inspect"} & modules, argv
        assert (exit_code, modules & {hv, cons, fm}) == (code, runs), argv


def _loaded(module: str) -> str:
    """The li2poly modules that importing `module` loads in a fresh -S
    interpreter, as a printed sorted list."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('li2poly')))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_keeps_its_module_level_imports():
    # Every start compiles and loads what cli imports at its top, and peak
    # RSS moves in 128 KiB heap steps: `from fractions import Fraction`
    # there raised `import li2poly.cli` from 15.141 to 15.277 MiB with
    # bytecode caching off, past the benchmark's 0.05 MiB bound. A module
    # that only some commands run is imported inside them.
    tree = ast.parse((ROOT / "src" / "li2poly" / "cli.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += ([f"{'.' * node.level}{node.module}"] if node.module else
                      [f"{'.' * node.level}{alias.name}" for alias in node.names])
    assert names == ["__future__", "argparse", "json", "sys", "time", ".faces",
                     ".model"]


def test_importing_the_package_loads_no_module():
    assert _loaded("li2poly") == "['li2poly']"


@pytest.mark.parametrize("module, loaded", [
    ("faces", ["li2poly", "li2poly.faces", "li2poly.model"]),
    ("hvector", ["li2poly", "li2poly.faces", "li2poly.hvector", "li2poly.model"]),
], ids=["faces", "hvector"])
def test_the_enumerator_loads_no_formula(module, loaded):
    # The work cap and the h comparison read McMullen's h-vector in faces,
    # not the closed forms the enumeration is checked against.
    assert _loaded(f"li2poly.{module}") == repr(loaded)


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
