"""Brute-force face enumeration against hand-checkable instances."""

import random

import pytest

from conftest import cached_f_vector, square_pyramid, unit_square
from li2poly import constructors, faces
from li2poly.errors import (CapExceededError, NonPointedError,
                            RedundantInputError, UnboundedInputError)
from li2poly.model import HPolytope, parse_hrep


def test_square_vertices(square):
    assert len(faces.enumerate_vertices(square)) == 4


def test_square_lattice(square):
    assert faces.f_vector(square) == (4, 4, 1)


def test_non_pointed_rejected():
    strip = parse_hrep("2 2\n0 1 1\n0 -1 0")
    with pytest.raises(NonPointedError):
        faces.enumerate_vertices(strip)


def test_face_dims_match_tight_ranks(square):
    for face in faces.Analysis(square).lattice:
        assert 0 <= face.dim <= 2
        if face.dim == 2:
            assert face.tight_set == frozenset()


def test_pyramid_apex_tight_on_four():
    pyramid = square_pyramid()
    vertices = faces.Analysis(pyramid).vertices
    assert len(vertices) == 5
    sizes = sorted(len(t) for _, t in vertices)
    assert sizes == [3, 3, 3, 3, 4]
    assert not faces.is_simple(pyramid)
    assert faces.f_vector(pyramid) == (5, 8, 5, 1)


def test_pstar_12_6_lattice():
    assert cached_f_vector("pstar", 12, 6) == (64, 192, 240, 160, 60, 12, 1)


def test_pstar_13_7_includes_unbounded_faces():
    f = cached_f_vector("pstar", 13, 7)
    base = cached_f_vector("pstar", 12, 6)
    assert f[0] == base[0]
    for k in range(1, 7):
        assert f[k] == base[k - 1] + base[k]
    assert f[7] == 1


def test_unbounded_faces_have_no_vertex_ids():
    p = constructors.pstar(7, 3)
    lattice = faces.Analysis(p).lattice
    xlast_row = next(i for i, c in enumerate(p.constraints)
                     if c.label == "xlast_lo")
    for face in lattice:
        if xlast_row in face.tight_set:
            assert face.vertex_ids is not None
        else:
            assert face.vertex_ids is None


def test_reduced_euler_on_bounded_instances():
    for family, n, d in (("pstar", 8, 4), ("pstar", 12, 6),
                         ("dualcyclic", 6, 3), ("dualcyclic", 9, 5),
                         ("prism3", 8, 3)):
        f = cached_f_vector(family, n, d)
        assert sum((-1) ** k * f[k] for k in range(d)) == 1 - (-1) ** d


def test_simple_bounded_edge_count_identity():
    for family, n, d in (("pstar", 8, 4), ("pstar", 12, 6), ("dualcyclic", 8, 4)):
        f = cached_f_vector(family, n, d)
        assert 2 * f[1] == d * f[0]


def test_edge_graph_square_cycle(square):
    points, edges = faces.edge_graph(square)
    assert len(points) == 4 and len(edges) == 4
    degree = [0] * 4
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [2, 2, 2, 2]


def test_edge_graph_pstar_8_4_regular():
    points, edges = faces.edge_graph(constructors.pstar(8, 4))
    assert len(points) == 16 and len(edges) == 32
    degree = [0] * len(points)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert set(degree) == {4}


def test_edge_graph_rejects_unbounded():
    with pytest.raises(UnboundedInputError):
        faces.edge_graph(constructors.pstar(7, 3))


def test_facet_adjacency_square(square):
    assert faces.facet_adjacency_count(square) == 4


def test_facet_adjacency_pstar_12_6():
    assert faces.facet_adjacency_count(constructors.pstar(12, 6)) == 60


def test_facet_adjacency_dual_cyclic_8_4_complete():
    assert faces.facet_adjacency_count(constructors.dual_cyclic(8, 4)) == 28


def test_facet_adjacency_rejects_redundant(square):
    dup = HPolytope(2, square.constraints + (square.constraints[0],))
    with pytest.raises(RedundantInputError):
        faces.facet_adjacency_count(dup)


def test_f_vector_invariant_under_row_permutation():
    rng = random.Random(7)
    for p in (constructors.pstar(8, 4), constructors.dual_cyclic(6, 3),
              constructors.prism3(6)):
        base = faces.f_vector(p)
        order = list(range(p.n))
        rng.shuffle(order)
        assert faces.f_vector(p.permuted(order)) == base


def test_caps_reject_oversized_input():
    big = constructors.dual_cyclic(25, 2)
    with pytest.raises(CapExceededError, match="default caps"):
        faces.Analysis(big)
    # explicit budget overrides the n-cap
    assert faces.f_vector(faces.Analysis(big, max_subsets=10 ** 6)) == (25, 25, 1)
    with pytest.raises(CapExceededError, match=r"C\(25,2\) = 300 subsystems"):
        faces.Analysis(big, max_subsets=10)
    # The 3-cube fits its C(6,3) = 20 vertex subsystems into a budget of 20,
    # but its lattice has 27 candidate tight sets (1 + 6 + 12 + 8).
    cube = parse_hrep("6 3\n1 0 0 1\n0 1 0 1\n0 0 1 1\n"
                      "-1 0 0 0\n0 -1 0 0\n0 0 -1 0")
    assert faces.f_vector(faces.Analysis(cube, max_subsets=27)) == (8, 12, 6, 1)
    with pytest.raises(CapExceededError, match="candidate tight sets exceed"):
        faces.Analysis(cube, max_subsets=20).lattice


def test_duplicate_rows_do_not_change_face_counts(square):
    dup = HPolytope(2, square.constraints + (square.constraints[0],))
    assert faces.f_vector(dup) == (4, 4, 1)
    lattice = faces.Analysis(dup).lattice
    right_edge = next(f for f in lattice if f.dim == 1 and 0 in f.tight_set)
    assert right_edge.tight_set == frozenset({0, 4})  # both copies tight


def test_lower_dimensional_polytope():
    # The segment x = 1, 0 <= y <= 1 in the plane: implicit equality rows.
    p = parse_hrep("4 2\n1 0 1\n-1 0 -1\n0 1 1\n0 -1 0")
    assert faces.f_vector(p) == (2, 1, 0)
    top = faces.Analysis(p).lattice[-1]
    assert top.dim == 1 and top.tight_set == frozenset({0, 1})


def test_product_structure_total_face_count():
    # A product of two hexagons: the face lattice is the product of the
    # factors' lattices minus the doubled top, so the total face count is
    # the square of the polygon's (13 for a hexagon: 6 + 6 + 1).
    analysis = faces.Analysis(constructors.pstar(12, 4))
    assert len(analysis.lattice) == 13 * 13
    assert faces.f_vector(analysis) == (36, 72, 48, 12, 1)


def test_one_dimensional_segment():
    p = parse_hrep("2 1\n1 1\n-1 0")
    assert faces.f_vector(p) == (2, 1)
    points, edges = faces.edge_graph(p)
    assert len(points) == 2 and edges == [(0, 1)]
