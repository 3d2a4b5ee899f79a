"""One Analysis per polytope: build counts and no linear program,
shared-versus-fresh agreement, empty and non-pointed inputs, caps."""

import sys
import time

import pytest

from conftest import collect_lattice, outcome, square_pyramid
from li2poly import constructors, faces, hvector, model
from li2poly.cli import run
from li2poly.errors import InputError, NonPointedError


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
    counts = _count_calls(monkeypatch, WORKERS + (faces.edge_graph,
                                                  hvector.strengthened_ubt_check))
    assert run(argv) == 0
    capsys.readouterr()
    # A bounded verify reads the f-vector, the edges and the UBT check, all
    # from the one streamed lattice pass.
    reads = int(argv[0] == "verify")
    assert counts == {"li2poly.faces.face_lattice": 1,
                      "li2poly.faces.enumerate_vertices": 1,
                      "li2poly.faces.edge_graph": reads,
                      "li2poly.hvector.strengthened_ubt_check": reads}
    assert not any(name in sys.modules for name in LP_MODULES)


@pytest.mark.parametrize("argv, builds", [
    (["verify", "pstar", "--n", "8", "--d", "4", "--json", "--no-timing"], 1),
    (["verify", "pstar", "--n", "13", "--d", "7", "--json", "--no-timing"], 0),
    (["fvector", "--method", "enumerate", "--no-timing", "--in"], 0),
    (["hvector", "--seed", "0", "--repeat", "3", "--no-timing", "--in"], 1),
], ids=["verify_pstar_8_4", "verify_pstar_13_7", "fvector_pstar_8_4",
        "hvector_pstar_8_4"])
def test_edge_graph_is_built_once_and_only_when_oriented(monkeypatch, capsys,
                                                         tmp_path, argv, builds):
    # The three verify seeds and the three hvector repeats share one build;
    # an unbounded verify and an f-vector orient nothing.
    if argv[-1] == "--in":
        argv = argv + [_write(tmp_path, constructors.pstar(8, 4))]
    counts = _count_calls(monkeypatch, (faces.edge_graph,))
    assert run(argv) == 0
    capsys.readouterr()
    assert counts == {"li2poly.faces.edge_graph": builds}


def test_lattice_and_redundancy_scan_share_one_transpose(monkeypatch):
    # profile's redundancy scan reads the lattice's on_row, not its own copy.
    analysis = faces.Analysis(constructors.dual_cyclic(8, 4))
    analysis.generators  # the kernel transposes its intermediate zero sets
    counts = _count_calls(monkeypatch, (faces._transpose,))
    collect_lattice(analysis)
    assert analysis.redundant == frozenset()
    assert counts == {"li2poly.faces._transpose": 1}


def test_facet_adjacency_runs_no_program(monkeypatch):
    counts = _count_calls(monkeypatch, WORKERS + (faces.redundant_rows,))
    assert faces.Analysis(constructors.convex_polygon(5)).facet_adjacency_count == 5
    assert set(counts.values()) == {1}
    assert not any(name in sys.modules for name in LP_MODULES)


EMPTY = "2 1\n1 -2\n-1 1"  # x <= -2 and x >= -1: pointed and empty
STRIP = "2 2\n0 1 1\n0 -1 0"  # 0 <= y <= 1: nonempty, not pointed
EMPTY_STRIP = "2 2\n0 1 -1\n0 -1 0"  # 0 <= y <= -1: empty, not pointed


def test_empty_input_is_reported_empty(tmp_path, capsys):
    # Emptiness is reported before a lineality space, so the empty strip
    # gets the same message as the pointed empty system.
    for text in (EMPTY, EMPTY_STRIP):
        with pytest.raises(InputError, match=r"^polyhedron is empty$"):
            faces.Analysis(model.parse_hrep(text)).bounded
        path = _write(tmp_path, model.parse_hrep(text))
        for argv in (["hvector", "--in", path, "--seed", "0", "--no-timing"],
                     ["fvector", "--method", "enumerate", "--in", path,
                      "--no-timing"]):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: polyhedron is empty\n")


@pytest.mark.parametrize("query", ["simple", "edge_graph", "facet_adjacency_count"],
                         ids=["is_simple", "edge_graph", "facet_adjacency_count"])
def test_non_pointed_input_is_rejected_as_non_pointed(query):
    with pytest.raises(NonPointedError):
        getattr(faces.Analysis(model.parse_hrep(STRIP)), query)


def test_hvector_repeat_shares_one_lattice(monkeypatch, capsys, tmp_path):
    path = _write(tmp_path, constructors.pstar(8, 4))
    counts = _count_calls(monkeypatch, WORKERS)
    assert run(["hvector", "--in", path, "--seed", "0", "--repeat", "3",
                "--no-timing"]) == 0
    capsys.readouterr()
    assert set(counts.values()) == {1}


def _queries():
    queries = {"f_vector": lambda a: a.f_vector,
               "edge_graph": lambda a: a.edge_graph,
               "simple": lambda a: a.simple,
               "facet_adjacency_count": lambda a: a.facet_adjacency_count,
               "ubt": hvector.strengthened_ubt_check}
    for seed in (0, 1, 2):
        queries[f"h_seed_{seed}"] = (
            lambda x, seed=seed: hvector.indegree_hvector(x, seed))
    return queries


NO_ORIENTATION = "indegree histogram requires a bounded polytope"
UNBOUNDED = {"edge_graph": "edge graph requires a bounded polytope",
             "facet_adjacency_count": "facet adjacency requires a bounded polytope",
             "h_seed_0": NO_ORIENTATION, "h_seed_1": NO_ORIENTATION,
             "h_seed_2": NO_ORIENTATION}
NOT_SIMPLE_VERTEX = ("indegree histogram requires a simple polytope "
                     "(every vertex on exactly d rows)")
NOT_SIMPLE = {"ubt": "the h comparison assumes a simple polytope",
              "h_seed_0": NOT_SIMPLE_VERTEX, "h_seed_1": NOT_SIMPLE_VERTEX,
              "h_seed_2": NOT_SIMPLE_VERTEX}


@pytest.mark.parametrize("build, expected_errors", [
    (lambda: constructors.pstar(8, 4), {}),
    (lambda: constructors.pstar(9, 5), UNBOUNDED),
    (lambda: constructors.dual_cyclic(8, 4), {}),
    (lambda: constructors.prism3(8), {}),
    (square_pyramid, NOT_SIMPLE),
], ids=["pstar_8_4", "pstar_9_5", "dualcyclic_8_4", "prism3_8", "pyramid"])
def test_shared_analysis_matches_fresh_calls(build, expected_errors):
    # Each query on a fresh Analysis, and all of them in turn on one shared
    # Analysis whose caches they fill, give the same answer or error.
    p = build()
    shared = faces.Analysis(p)
    for name, query in _queries().items():
        fresh = outcome(lambda: query(faces.Analysis(p)))
        assert outcome(lambda: query(shared)) == fresh, name
        assert outcome(lambda: query(shared)) == fresh, name  # served from the cache
        if name in expected_errors:
            assert fresh == ("error", InputError, expected_errors[name]), name
        else:
            assert fresh[0] == "ok", (name, fresh)


def test_simple_reads_vertices_on_pointed_unbounded_inputs():
    # Each vertex of pstar(9,5) lies on 5 rows and its rays do not count, as
    # in the h comparison; the pyramid's cone has its apex on 4 rows in R^3.
    a = faces.Analysis(constructors.pstar(9, 5))
    assert not a.bounded and a.simple
    assert hvector.strengthened_ubt_check(a) is True
    cone = faces.Analysis(model.HPolytope(3, square_pyramid().constraints[1:]))
    assert not cone.bounded and not cone.simple


OVER_CAP = ("n=60, d=7: the Upper Bound Theorem allows 722433 faces; "
            "work 60 * 722433 = 43345980 exceeds max_work=")


def test_caps_apply_before_the_vertex_scan():
    big = constructors.dual_cyclic(60, 7)  # sum_k f_k(c*(61,7)) = 722433
    for check in (lambda: hvector.indegree_hvector(faces.Analysis(big), 0),
                  lambda: hvector.strengthened_ubt_check(faces.Analysis(big)),
                  lambda: faces.Analysis(big).simple):
        start = time.perf_counter()
        with pytest.raises(InputError) as exc:
            check()
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"{OVER_CAP}5000000"
    with pytest.raises(InputError) as exc:
        faces.Analysis(big, max_work=43345979)
    assert str(exc.value) == f"{OVER_CAP}43345979"
    faces.Analysis(big, max_work=43345980)  # admitted; no work until read


def test_analysis_checks_caps_before_it_stores_or_enumerates(monkeypatch):
    stored = []

    class Watched(faces.Analysis):
        def __setattr__(self, name, value):
            stored.append(name)
            super().__setattr__(name, value)

    monkeypatch.setattr(faces, "enumerate_vertices",
                        lambda p: pytest.fail("enumerated an over-cap input"))
    for p, max_work, message in (
            (constructors.dual_cyclic(60, 7), faces.DEFAULT_MAX_WORK, f"{OVER_CAP}5000000"),
            (constructors.pstar(8, 4), 1,
             "n=8, d=4: the 4-simplex's 2^5 - 1 faces alone put the work over max_work=1")):
        with pytest.raises(InputError) as exc:
            Watched(p, max_work)
        assert str(exc.value) == message
    assert stored == []
    p = constructors.pstar(8, 4)
    a = Watched(p)
    assert stored == ["p", "max_work"]
    assert (a.p, a.max_work) == (p, faces.DEFAULT_MAX_WORK)
    assert a == a and a != faces.Analysis(p)  # equality is identity


def test_hvector_over_cap_exits_3_quickly(tmp_path, capsys):
    path = _write(tmp_path, constructors.dual_cyclic(60, 7))
    start = time.perf_counter()
    assert run(["hvector", "--in", path, "--seed", "0", "--no-timing"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {OVER_CAP}5000000\n"


@pytest.mark.parametrize("argv, header", [
    (["verify", "pstar", "--n", "2000", "--d", "1000"], "n=2000, d=1000"),
    (["fvector", "--method", "enumerate", "--in", "EMPTY"], "n=0, d=1000"),
    (["hvector", "--in", "EMPTY", "--seed", "0"], "n=0, d=1000"),
])
def test_large_dimension_exits_3_at_once(tmp_path, capsys, argv, header):
    # The d-simplex's 2^(d+1) - 1 faces bound the face count from below, so
    # a large d is rejected before the Upper Bound Theorem's O(d^2)
    # binomials; a file with no rows still pays for the kernel's d + 1 lines.
    empty = tmp_path / "empty.hrep"
    empty.write_text("0 1000\n")
    argv = [str(empty) if a == "EMPTY" else a for a in argv]
    start = time.perf_counter()
    assert run(argv + ["--no-timing"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: {header}: the 1000-simplex's 2^1001 - 1 faces alone put the "
        "work over max_work=5000000\n")
