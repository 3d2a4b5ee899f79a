"""Orientation h-vectors, the f/h transforms, and the h comparison."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cached_analysis, cached_f_vector, simplex3,
                      square_pyramid, unit_square)
from li2poly import constructors, faces, hvector
from li2poly.errors import GenericObjectiveError, NotSimpleError
from fraction_linalg import ZERO, dot


def test_h_from_f_simplex():
    assert hvector.h_from_f((4, 6, 4, 1)) == (1, 1, 1, 1)


def test_h_from_f_three_quadrilaterals():
    assert hvector.h_from_f((64, 192, 240, 160, 60, 12, 1)) == (1, 6, 15, 20, 15, 6, 1)


def test_h_from_f_point_identity():
    assert hvector.h_from_f((1,)) == (1,)


def test_f_from_h_simplex():
    assert hvector.f_from_h((1, 1, 1, 1)) == (4, 6, 4, 1)


def test_f_from_h_recovers_counts():
    f = hvector.f_from_h((1, 6, 15, 20, 15, 6, 1))
    assert f[0] == 64 and f[5] == 12


@settings(max_examples=200)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=9))
def test_transforms_are_mutually_inverse(v):
    v = tuple(v)
    assert hvector.f_from_h(hvector.h_from_f(v)) == v
    assert hvector.h_from_f(hvector.f_from_h(v)) == v


def test_indegree_pentagon():
    p = constructors.convex_polygon(5)
    assert hvector.indegree_hvector(p, 0) == (1, 3, 1)


def test_indegree_simplex():
    assert hvector.indegree_hvector(simplex3(), 0) == (1, 1, 1, 1)


def test_indegree_pstar_12_6():
    p = cached_analysis("pstar", 12, 6)
    assert hvector.indegree_hvector(p, 5) == (1, 6, 15, 20, 15, 6, 1)


def test_indegree_rejects_non_simple():
    with pytest.raises(NotSimpleError):
        hvector.indegree_hvector(square_pyramid(), 0)


def test_indegree_rejects_unbounded():
    with pytest.raises(NotSimpleError):
        hvector.indegree_hvector(constructors.pstar(7, 3), 0)


def test_orient_edges_redraw_limit():
    # Coincident endpoints tie under every objective.
    with pytest.raises(GenericObjectiveError):
        hvector.orient_edges([(ZERO,), (ZERO,)], [(0, 1)], seed=0)


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
        points, edges = faces.edge_graph(analysis)
        c, directed = hvector.orient_edges(points, edges, seed=11)
        for dim, tight, face in analysis.face_bits:
            if dim < 1:
                continue
            # Bounded, so face bit k is point k of the edge graph.
            members = {k for k in range(len(points)) if face >> k & 1}
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
    report = hvector.strengthened_ubt_check(cached_analysis("pstar", 12, 6))
    assert report.satisfied
    assert tuple(e.h_value for e in report.entries) == (1, 6, 15, 20, 15, 6, 1)
    assert tuple(e.h_dual_cyclic for e in report.entries) == (1, 6, 21, 56, 21, 6, 1)


def test_ubt_dual_cyclic_self_equality():
    report = hvector.strengthened_ubt_check(constructors.dual_cyclic(8, 4))
    assert report.satisfied
    assert all(e.h_value == e.h_dual_cyclic for e in report.entries)


def test_ubt_prism_attains_d3_bound():
    report = hvector.strengthened_ubt_check(constructors.prism3(8))
    assert report.satisfied
    assert all(e.h_value == e.h_dual_cyclic for e in report.entries)
    assert tuple(e.h_value for e in report.entries) == (1, 5, 5, 1)


def test_ubt_rejects_non_simple():
    with pytest.raises(NotSimpleError):
        hvector.strengthened_ubt_check(square_pyramid())


def test_ubt_covers_pointed_unbounded():
    report = hvector.strengthened_ubt_check(constructors.pstar(7, 3))
    assert report.satisfied
    assert tuple(e.h_value for e in report.entries) == (0, 1, 4, 1)
