"""Orientation h-vectors, the f/h transforms, and the h comparison.

The integer orientation of hvector.orient_edges is checked against the
Fraction orientation it replaced, kept here as the reference.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (RANDOM, cached_analysis, cached_f_vector, collect_lattice,
                      simplex3, square_pyramid, two_variable_systems,
                      unit_square)
from li2poly import constructors, faces, hvector
from li2poly.model import parse_hrep
from fraction_linalg import ZERO, dot, vertex_points


def test_h_from_f_simplex():
    assert hvector.h_from_f((4, 6, 4, 1)) == (1, 1, 1, 1)


def test_h_from_f_three_quadrilaterals():
    assert hvector.h_from_f((64, 192, 240, 160, 60, 12, 1)) == (1, 6, 15, 20, 15, 6, 1)


def test_h_from_f_point_identity():
    assert hvector.h_from_f((1,)) == (1,)


def test_f_from_h_simplex():
    assert faces.f_from_h((1, 1, 1, 1)) == (4, 6, 4, 1)


def test_f_from_h_recovers_counts():
    f = faces.f_from_h((1, 6, 15, 20, 15, 6, 1))
    assert f[0] == 64 and f[5] == 12


@settings(max_examples=200)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=9))
def test_transforms_are_mutually_inverse(v):
    v = tuple(v)
    assert faces.f_from_h(hvector.h_from_f(v)) == v
    assert hvector.h_from_f(faces.f_from_h(v)) == v


def test_indegree_pentagon():
    p = faces.Analysis(constructors.convex_polygon(5))
    assert hvector.indegree_hvector(p, 0) == (1, 3, 1)


def test_indegree_simplex():
    assert hvector.indegree_hvector(faces.Analysis(simplex3()), 0) == (1, 1, 1, 1)


def test_indegree_pstar_12_6():
    p = cached_analysis("pstar", 12, 6)
    assert hvector.indegree_hvector(p, 5) == (1, 6, 15, 20, 15, 6, 1)


def test_indegree_rejects_non_simple():
    with pytest.raises(ValueError, match=r"^indegree histogram requires a simple polytope "
                       r"\(every vertex on exactly d rows\)$"):
        hvector.indegree_hvector(faces.Analysis(square_pyramid()), 0)


def test_indegree_rejects_unbounded():
    with pytest.raises(ValueError, match="^indegree histogram requires a bounded polytope$"):
        hvector.indegree_hvector(faces.Analysis(constructors.pstar(7, 3)), 0)


def fraction_orient_edges(points, edges, seed):
    """The replaced orientation: Fraction points and Fraction dot products.

    Draws the same integers as hvector.orient_edges; returns the objective
    and the directed edges tail->head.
    """
    rng = random.Random(seed)
    for _ in range(hvector._REDRAW_LIMIT):
        c = tuple(Fraction(rng.randrange(-2 ** 31, 2 ** 31))
                  for _ in range(len(points[0]) if points else 0))
        values = [dot(c, pt) for pt in points]
        if any(values[u] == values[v] for u, v in edges):
            continue
        return c, [(u, v) if values[u] < values[v] else (v, u) for u, v in edges]
    raise ValueError(f"no tie-free objective within {hvector._REDRAW_LIMIT} redraws")


def _check_orientation_matches_fraction_reference(analysis, seeds):
    vertices = [g for g, _ in analysis.generators]
    points = [x for x, _ in vertex_points(analysis.generators)]
    edges = analysis.edge_graph
    for seed in seeds:
        try:
            expected = ("ok", fraction_orient_edges(points, edges, seed)[1])
        except ValueError as exc:
            expected = ("tie", str(exc))
        try:
            got = ("ok", hvector.orient_edges(vertices, edges, seed))
        except ValueError as exc:
            got = ("tie", str(exc))
        assert got == expected, seed


@pytest.mark.parametrize("build", [
    lambda: constructors.pstar(8, 4), lambda: constructors.pstar(12, 6),
    lambda: constructors.dual_cyclic(8, 4), lambda: constructors.dual_cyclic(10, 4),
    lambda: constructors.prism3(8), lambda: constructors.convex_polygon(6),
], ids=["pstar_8_4", "pstar_12_6", "dual_cyclic_8_4", "dual_cyclic_10_4",
        "prism3_8", "polygon_6"])
def test_integer_orientation_matches_fraction_reference(build):
    analysis = faces.Analysis(build())
    _check_orientation_matches_fraction_reference(analysis, range(10))


@RANDOM
@given(two_variable_systems())
def test_integer_orientation_matches_fraction_reference_on_random_systems(p):
    analysis = faces.Analysis(p)
    assume(analysis.bounded)
    _check_orientation_matches_fraction_reference(analysis, range(10))


def test_orient_edges_redraw_limit():
    # Coincident endpoints tie under every objective, whatever the scale of
    # their homogeneous vectors, and so they do in the Fraction reference.
    with pytest.raises(ValueError, match="^no tie-free objective within 64 redraws$"):
        fraction_orient_edges([(ZERO, ZERO), (ZERO, ZERO)], [(0, 1)], seed=0)
    for vertices in ([(0, 0, 1), (0, 0, 1)], [(1, 1), (2, 2)],
                     [(3, -1, 2), (6, -2, 4)]):
        with pytest.raises(ValueError, match="^no tie-free objective within 64 redraws$"):
            hvector.orient_edges(vertices, [(0, 1)], seed=0)


def test_objective_independence_small_instances():
    for p, seeds in ((constructors.convex_polygon(6), [0, 1, 2, 3, 4]),
                     (constructors.dual_cyclic(8, 4), [0, 1, 2])):
        a = faces.Analysis(p)
        assert ({hvector.indegree_hvector(a, s) for s in seeds}
                == {hvector.h_from_f(a.f_vector)})


def test_unique_source_and_sink_per_face():
    # Every face of a generic orientation has exactly one sink and one
    # source; the polytope itself gives the global ones.
    for p in (unit_square(), constructors.convex_polygon(6),
              constructors.dual_cyclic(6, 3)):
        analysis = faces.Analysis(p)
        vertices = [g for g, _ in analysis.generators]
        directed = hvector.orient_edges(vertices, analysis.edge_graph, seed=11)
        for dim, tight, face in collect_lattice(analysis):
            if dim < 1:
                continue
            # Bounded, so face bit k is vertex k of the edge graph.
            members = {k for k in range(len(vertices)) if face >> k & 1}
            inside = [(u, v) for u, v in directed if u in members and v in members]
            outs = {u for u, _ in inside}
            ins = {v for _, v in inside}
            sinks = [v for v in members if v not in outs]
            sources = [v for v in members if v not in ins]
            assert len(sinks) == 1, f"face {bin(tight)} has sinks {sinks}"
            assert len(sources) == 1


def test_dehn_sommerville_symmetry():
    for family, n, d in (("pstar", 8, 4), ("pstar", 12, 6),
                         ("dualcyclic", 8, 4), ("prism3", 8, 3)):
        h = hvector.h_from_f(cached_f_vector(family, n, d))
        assert h == tuple(reversed(h))


def test_ubt_pstar_12_6_componentwise():
    a = cached_analysis("pstar", 12, 6)
    assert hvector.strengthened_ubt_check(a) is True
    assert hvector.h_from_f(a.f_vector) == (1, 6, 15, 20, 15, 6, 1)
    assert faces.dual_cyclic_h(12, 6) == (1, 6, 21, 56, 21, 6, 1)


def test_ubt_fails_when_one_entry_exceeds(monkeypatch):
    # h_3 = 20 of pstar(12,6) against a right side one below it there.
    a = cached_analysis("pstar", 12, 6)
    monkeypatch.setattr(hvector, "dual_cyclic_h",
                        lambda n, d: (1, 6, 21, 19, 21, 6, 1))
    assert hvector.strengthened_ubt_check(a) is False


def test_ubt_dual_cyclic_self_equality():
    a = faces.Analysis(constructors.dual_cyclic(8, 4))
    assert hvector.strengthened_ubt_check(a) is True
    assert hvector.h_from_f(a.f_vector) == faces.dual_cyclic_h(8, 4)


def test_ubt_prism_attains_d3_bound():
    a = faces.Analysis(constructors.prism3(8))
    assert hvector.strengthened_ubt_check(a) is True
    assert hvector.h_from_f(a.f_vector) == faces.dual_cyclic_h(8, 3) == (1, 5, 5, 1)


def test_ubt_rejects_non_simple():
    with pytest.raises(ValueError, match="^the h comparison assumes a simple polytope$"):
        hvector.strengthened_ubt_check(faces.Analysis(square_pyramid()))


def test_ubt_names_n_and_d_when_rows_do_not_exceed_dimensions():
    # The orthant in R^3 is simple and pointed, but c*(3, 3) does not exist.
    a = faces.Analysis(parse_hrep("3 3\n-1 0 0 0\n0 -1 0 0\n0 0 -1 0"))
    assert a.simple and a.f_vector == (1, 3, 3, 1)
    with pytest.raises(ValueError, match=r"^c\*\(n, d\) needs n > d, got n=3 d=3$"):
        hvector.strengthened_ubt_check(a)


def test_ubt_covers_pointed_unbounded():
    a = faces.Analysis(constructors.pstar(7, 3))
    assert hvector.strengthened_ubt_check(a) is True
    assert hvector.h_from_f(a.f_vector) == (0, 1, 4, 1)
