"""Brute-force face enumeration against hand-checkable instances."""

import random

import pytest
from hypothesis import given

import fraction_linalg
from fraction_linalg import vertex_points
from conftest import (RANDOM, cached_f_vector, collect_lattice, permuted,
                      square_pyramid, two_variable_systems, unit_square)
from li2poly import constructors, faces, formulas, hvector
from li2poly.faces import NonPointedError
from li2poly.model import HPolytope, parse_hrep
from test_double_description import REDUNDANCY


def test_square_vertices(square):
    assert len(faces.enumerate_vertices(square)) == 4


def test_square_lattice(square):
    assert faces.Analysis(square).f_vector == (4, 4, 1)


def test_non_pointed_rejected():
    strip = parse_hrep("2 2\n0 1 1\n0 -1 0")
    with pytest.raises(NonPointedError):
        faces.enumerate_vertices(strip)


# The square, the segment, pstar(7,3) and the flat and pinned inputs.
DIM_CASES = {"square": unit_square,
             **{name: REDUNDANCY[name] for name in (
                 "segment", "unbounded", "flat_square", "point",
                 "point_with_slack", "pinned_point", "segment_in_3d")}}


def _check_face_dims(p):
    # The lattice reads each dimension from its order; a face's dimension
    # is also d minus the rank of the rows tight on it.
    for dim, tight, _ in collect_lattice(faces.Analysis(p)):
        rows = [c.coeffs for i, c in enumerate(p.constraints) if tight >> i & 1]
        assert dim == p.dim - fraction_linalg.rank(fraction_linalg.mat(rows))


@pytest.mark.parametrize("name", DIM_CASES)
def test_face_dims_match_tight_ranks(name):
    _check_face_dims(DIM_CASES[name]())


@RANDOM
@given(two_variable_systems(equalities=2))
def test_face_dims_match_tight_ranks_on_lower_dimensional_systems(p):
    _check_face_dims(p)


def test_pyramid_apex_tight_on_four():
    analysis = faces.Analysis(square_pyramid())
    vertices = vertex_points(analysis.generators)
    assert len(vertices) == 5
    sizes = sorted(t.bit_count() for _, t in vertices)
    assert sizes == [3, 3, 3, 3, 4]
    assert analysis.bounded and not analysis.simple
    assert analysis.f_vector == (5, 8, 5, 1)


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
    analysis = faces.Analysis(p)
    rays = sum(1 << k for k, (g, _) in enumerate(analysis.generators) if not g[-1])
    xlast_row = p.n - 1  # odd d: the last row is x_d >= 0
    assert p.constraints[xlast_row] == ((0, 0, -1), 0)
    for _, tight, face in collect_lattice(analysis):
        if tight >> xlast_row & 1:
            assert not face & rays
        else:
            assert face & rays


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
    analysis = faces.Analysis(square)
    edges = analysis.edge_graph
    assert len(analysis.generators) == 4 and len(edges) == 4
    degree = [0] * 4
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [2, 2, 2, 2]


def test_edge_graph_pstar_8_4_regular():
    analysis = faces.Analysis(constructors.pstar(8, 4))
    edges = analysis.edge_graph
    assert len(analysis.generators) == 16 and len(edges) == 32
    assert edges == sorted(edges) and all(u < v for u, v in edges)
    degree = [0] * len(analysis.generators)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert set(degree) == {4}


def test_edge_graph_rejects_unbounded():
    with pytest.raises(ValueError, match=r"^edge graph requires a bounded polytope$"):
        faces.Analysis(constructors.pstar(7, 3)).edge_graph


def test_facet_adjacency_square(square):
    assert faces.Analysis(square).facet_adjacency_count == 4
    # A segment has no ridge: f_{d-2} would wrap round to f_1 = 1 at d = 1.
    assert faces.Analysis(parse_hrep("2 1\n1 1\n-1 1")).facet_adjacency_count == 0


def test_facet_adjacency_pstar_12_6():
    assert faces.Analysis(constructors.pstar(12, 6)).facet_adjacency_count == 60


def test_facet_adjacency_dual_cyclic_8_4_complete():
    assert faces.Analysis(constructors.dual_cyclic(8, 4)).facet_adjacency_count == 28


def test_facet_adjacency_rejects_lower_dimensional():
    # The unit square at z = 0 in R^3. No row is redundant, but z <= 0 and
    # -z <= 0 are tight on every face, so each of the 4 edges lies on 3 rows
    # and rows are not facets.
    flat = parse_hrep("6 3\n1 0 0 1\n-1 0 0 0\n0 1 0 1\n0 -1 0 0\n"
                      "0 0 1 0\n0 0 -1 0")
    assert faces.Analysis(flat).redundant == frozenset()
    with pytest.raises(ValueError, match=r"^the polytope is not full-dimensional in R\^3; "
                       "adjacency counts need rows in bijection with facets$"):
        faces.Analysis(flat).facet_adjacency_count


def test_facet_adjacency_rejects_redundant(square):
    dup = HPolytope(2, square.constraints + (square.constraints[0],))
    with pytest.raises(ValueError, match=r"^rows \[4\] are redundant; adjacency counts "
                       "need a nonredundant system$"):
        faces.Analysis(dup).facet_adjacency_count


def test_f_vector_invariant_under_row_permutation():
    rng = random.Random(7)
    for p in (constructors.pstar(8, 4), constructors.dual_cyclic(6, 3),
              constructors.prism3(6)):
        base = faces.Analysis(p).f_vector
        order = list(range(p.n))
        rng.shuffle(order)
        assert faces.Analysis(permuted(p, order)).f_vector == base


def test_caps_reject_oversized_input(monkeypatch):
    # The one rule: n rows times the Upper Bound Theorem's face count,
    # sum_k f_k(c*(n + 1, d)), must fit the budget. dual_cyclic(25,2) has
    # 26 + 26 + 1 = 53 faces at most, so 25 * 53 = 1325 of work.
    big = constructors.dual_cyclic(25, 2)
    assert faces.Analysis(big).f_vector == (25, 25, 1)
    assert faces.Analysis(big, max_work=1325).f_vector == (25, 25, 1)
    with pytest.raises(ValueError, match=r"^n=25, d=2: the Upper Bound Theorem allows 53 "
                       r"faces; work 25 \* 53 = 1325 exceeds max_work=1324$"):
        faces.Analysis(big, max_work=1324)
    # The 3-cube's 6 rows allow f(c*(7,3)) = (10, 15, 7, 1): 6 * 33 = 198.
    cube = parse_hrep("6 3\n1 0 0 1\n0 1 0 1\n0 0 1 1\n"
                      "-1 0 0 0\n0 -1 0 0\n0 0 -1 0")
    assert faces.Analysis(cube, max_work=198).f_vector == (8, 12, 6, 1)
    monkeypatch.setattr(faces, "enumerate_vertices", lambda p: pytest.fail("ran"))
    monkeypatch.setattr(faces, "face_lattice", lambda a: pytest.fail("ran"))
    with pytest.raises(ValueError, match=r"^n=6, d=3: the Upper Bound Theorem allows 33 "
                       r"faces; work 6 \* 33 = 198 exceeds max_work=197$"):
        faces.Analysis(cube, max_work=197).f_vector


def test_caps_apply_one_rule():
    # max(n, d) * sum(face_bound(n, d)) against the budget; the d-simplex
    # shortcut only rejects what that product rejects too.
    for d in range(8):
        for n in (0, 1, d, d + 1, d + 5, 3 * d + 7):
            size, total = max(n, d), sum(faces.face_bound(n, d))
            assert total >= 2 ** (d + 1) - 1
            for budget in {0, 1, size * (2 ** (d + 1) - 1) - 1,
                           size * total - 1, size * total}:
                if budget < 0:
                    continue
                if size * total > budget:
                    if size * (2 ** (d + 1) - 1) > budget:
                        message = (f"n={n}, d={d}: the {d}-simplex's 2^{d + 1} - 1 "
                                   f"faces alone put the work over max_work={budget}")
                    else:
                        message = (f"n={n}, d={d}: the Upper Bound Theorem allows "
                                   f"{total} faces; work {size} * {total} = "
                                   f"{size * total} exceeds max_work={budget}")
                    with pytest.raises(ValueError) as exc:
                        faces.check_caps(n, d, budget)
                    assert str(exc.value) == message
                else:
                    faces.check_caps(n, d, budget)


def test_dual_cyclic_h_matches_the_closed_forms_on_a_grid():
    # McMullen's h-vector against the two-sum formula it replaced in the
    # cap, and face_bound against the f-vector it stands for, n < d included.
    for d in range(13):
        for m in range(d + 1, 60):
            f = formulas.dual_cyclic_f_vector(m, d)
            assert faces.dual_cyclic_h(m, d) == hvector.h_from_f(f), (m, d)
            assert faces.face_bound(m - 1, d) == f, (m, d)
        simplex = formulas.dual_cyclic_f_vector(d + 1, d)
        for n in range(d):
            assert faces.face_bound(n, d) == simplex, (n, d)


@pytest.mark.parametrize("n, d", [(3, 3), (0, 0), (2, 5)])
def test_dual_cyclic_h_needs_more_rows_than_dimensions(n, d):
    with pytest.raises(ValueError, match=rf"^c\*\(n, d\) needs n > d, got n={n} d={d}$"):
        faces.dual_cyclic_h(n, d)


def _check_face_bound(p):
    # Upper Bound Theorem: a pointed polyhedron with n rows has at most
    # f_k(c*(n + 1, d)) k-faces, lower-dimensional and unbounded ones too.
    f = faces.Analysis(p).f_vector
    bound = formulas.dual_cyclic_f_vector(p.n + 1, p.dim)
    assert faces.face_bound(p.n, p.dim) == bound
    assert all(fk <= bk for fk, bk in zip(f, bound)), (f, bound)


@RANDOM
@given(two_variable_systems())
def test_face_counts_within_upper_bound_on_random_systems(p):
    _check_face_bound(p)


@RANDOM
@given(two_variable_systems(equalities=1))
def test_face_counts_within_upper_bound_on_lower_dimensional_systems(p):
    _check_face_bound(p)


@pytest.mark.parametrize("make", [
    lambda: constructors.pstar(7, 3),
    lambda: HPolytope(3, square_pyramid().constraints[1:]),
], ids=["pstar_7_3", "pyramid_cone"])
def test_face_counts_within_upper_bound_on_unbounded_inputs(make):
    p = make()
    assert not faces.Analysis(p).bounded
    _check_face_bound(p)


def test_duplicate_rows_do_not_change_face_counts(square):
    dup = HPolytope(2, square.constraints + (square.constraints[0],))
    assert faces.Analysis(dup).f_vector == (4, 4, 1)
    right_edge = next(tight for dim, tight, _ in collect_lattice(faces.Analysis(dup))
                      if dim == 1 and tight & 1)
    assert right_edge == 1 << 0 | 1 << 4  # both copies tight


def test_lower_dimensional_polytope():
    # The segment x = 1, 0 <= y <= 1 in the plane: implicit equality rows.
    p = parse_hrep("4 2\n1 0 1\n-1 0 -1\n0 1 1\n0 -1 0")
    assert faces.Analysis(p).f_vector == (2, 1, 0)
    dim, tight, _ = max(collect_lattice(faces.Analysis(p)))
    assert dim == 1 and tight == 1 << 0 | 1 << 1


def test_product_structure_total_face_count():
    # A product of two hexagons: the face lattice is the product of the
    # factors' lattices minus the doubled top, so the total face count is
    # the square of the polygon's (13 for a hexagon: 6 + 6 + 1).
    analysis = faces.Analysis(constructors.pstar(12, 4))
    assert len(collect_lattice(analysis)) == 13 * 13
    assert analysis.f_vector == (36, 72, 48, 12, 1)


def test_one_dimensional_segment():
    p = parse_hrep("2 1\n1 1\n-1 0")
    analysis = faces.Analysis(p)
    assert analysis.f_vector == (2, 1)
    assert len(analysis.generators) == 2 and analysis.edge_graph == [(0, 1)]
