"""One Analysis per polytope: build counts and no linear program,
shared-versus-fresh agreement, empty and non-pointed inputs, caps."""

import sys
import time

import pytest

from conftest import square_pyramid
from li2poly import constructors, faces, hvector, model
from li2poly.cli import run
from li2poly.errors import (CapExceededError, InfeasibleError, LI2PolyError,
                            NonPointedError, NotSimpleError, UnboundedInputError)


def _count_calls(monkeypatch, functions) -> dict[str, int]:
    """Wrap each function wherever a li2poly module binds it; count the calls."""
    counts = {}
    for fn in functions:
        name = f"{fn.__module__}.{fn.__name__}"
        counts[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "li2poly" or module_name.startswith("li2poly."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return counts


WORKERS = (faces.face_lattice, faces.enumerate_vertices)
LP_MODULES = ("li2poly.simplex", "li2poly.geometry")


def _write(tmp_path, p: model.HPolytope) -> str:
    path = tmp_path / "p.hrep"
    path.write_text(model.serialize_hrep(p))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify", "pstar", "--n", "8", "--d", "4", "--json", "--no-timing"],
    ["verify", "pstar", "--n", "12", "--d", "6", "--json", "--no-timing"],
    ["verify", "dualcyclic", "--n", "10", "--d", "4", "--json", "--no-timing"],
    ["fvector", "--method", "enumerate", "--no-timing", "--in"],
], ids=["verify_pstar_8_4", "verify_pstar_12_6", "verify_dualcyclic_10_4",
        "fvector_pstar_9_5"])
def test_commands_build_each_result_once_and_run_no_program(monkeypatch, capsys,
                                                            tmp_path, argv):
    if argv[0] == "fvector":
        argv = argv + [_write(tmp_path, constructors.pstar(9, 5))]
    counts = _count_calls(monkeypatch, WORKERS)
    assert run(argv) == 0
    capsys.readouterr()
    assert counts == {"li2poly.faces.face_lattice": 1,
                      "li2poly.faces.enumerate_vertices": 1}
    assert not any(name in sys.modules for name in LP_MODULES)


def test_facet_adjacency_runs_no_program(monkeypatch):
    counts = _count_calls(monkeypatch, WORKERS + (faces.redundant_rows,))
    assert faces.facet_adjacency_count(constructors.convex_polygon(5)) == 5
    assert set(counts.values()) == {1}
    assert not any(name in sys.modules for name in LP_MODULES)


EMPTY = "2 1\n1 -2\n-1 1"  # x <= -2 and x >= -1: pointed and empty
STRIP = "2 2\n0 1 1\n0 -1 0"  # 0 <= y <= 1: nonempty, not pointed


def test_empty_input_is_reported_empty(tmp_path, capsys):
    with pytest.raises(InfeasibleError, match=r"^polyhedron is empty$"):
        faces.Analysis(model.parse_hrep(EMPTY)).bounded
    path = _write(tmp_path, model.parse_hrep(EMPTY))
    for argv in (["hvector", "--in", path, "--seed", "0", "--no-timing"],
                 ["fvector", "--method", "enumerate", "--in", path, "--no-timing"]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: polyhedron is empty\n")


@pytest.mark.parametrize("query", [faces.is_simple, faces.edge_graph,
                                   faces.facet_adjacency_count])
def test_non_pointed_input_is_rejected_as_non_pointed(query):
    with pytest.raises(NonPointedError):
        query(model.parse_hrep(STRIP))


def test_hvector_repeat_shares_one_lattice(monkeypatch, capsys, tmp_path):
    path = _write(tmp_path, constructors.pstar(8, 4))
    counts = _count_calls(monkeypatch, WORKERS)
    assert run(["hvector", "--in", path, "--seed", "0", "--repeat", "3",
                "--no-timing"]) == 0
    capsys.readouterr()
    assert set(counts.values()) == {1}


def _outcome(query, x):
    try:
        return ("ok", query(x))
    except LI2PolyError as exc:
        return ("error", type(exc), str(exc))


def _queries(n: int):
    queries = {"f_vector": faces.f_vector, "edge_graph": faces.edge_graph,
               "is_simple": faces.is_simple,
               "ubt": lambda x: hvector.strengthened_ubt_check(x, n)}
    for seed in (0, 1, 2):
        queries[f"h_seed_{seed}"] = (
            lambda x, seed=seed: hvector.indegree_hvector(x, seed))
    return queries


UNBOUNDED = {"edge_graph": UnboundedInputError, "is_simple": UnboundedInputError,
             "h_seed_0": NotSimpleError, "h_seed_1": NotSimpleError,
             "h_seed_2": NotSimpleError}
NOT_SIMPLE = {"ubt": NotSimpleError, "h_seed_0": NotSimpleError,
              "h_seed_1": NotSimpleError, "h_seed_2": NotSimpleError}


@pytest.mark.parametrize("build, expected_errors", [
    (lambda: constructors.pstar(8, 4), {}),
    (lambda: constructors.pstar(9, 5), UNBOUNDED),
    (lambda: constructors.dual_cyclic(8, 4), {}),
    (lambda: constructors.prism3(8), {}),
    (square_pyramid, NOT_SIMPLE),
], ids=["pstar_8_4", "pstar_9_5", "dualcyclic_8_4", "prism3_8", "pyramid"])
def test_shared_analysis_matches_fresh_calls(build, expected_errors):
    p = build()
    shared = faces.Analysis(p)
    for name, query in _queries(p.n).items():
        fresh = _outcome(query, p)
        assert _outcome(query, shared) == fresh, name
        assert _outcome(query, shared) == fresh, name  # served from the cache
        if name in expected_errors:
            assert fresh[:2] == ("error", expected_errors[name]), name
        else:
            assert fresh[0] == "ok", (name, fresh)


def test_caps_apply_before_the_vertex_scan():
    big = constructors.dual_cyclic(60, 7)  # C(60,7) = 386206920 subsets
    for check in (lambda: hvector.indegree_hvector(big, 0),
                  lambda: hvector.strengthened_ubt_check(big, 60),
                  lambda: faces.is_simple(big)):
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="386206920"):
            check()
        assert time.perf_counter() - start < 1
    with pytest.raises(CapExceededError, match=r"over max_subsets=1000000$"):
        faces.Analysis(big, max_subsets=10 ** 6)


def test_hvector_over_cap_exits_3_quickly(tmp_path, capsys):
    path = _write(tmp_path, constructors.dual_cyclic(60, 7))
    start = time.perf_counter()
    assert run(["hvector", "--in", path, "--seed", "0", "--no-timing"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "default caps" in err and "C(60,7) = 386206920" in err
