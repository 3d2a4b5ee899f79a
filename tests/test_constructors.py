"""Constructor families: counts, structure, and validation."""

import pytest

from conftest import collect_lattice
from li2poly import constructors, faces, model
from li2poly.cli import run
from fraction_linalg import ZERO, slack, vertex_points
from lp_geometry import is_bounded


def test_polygon_triangle_f_vector():
    assert faces.Analysis(constructors.convex_polygon(3)).f_vector == (3, 3, 1)


def test_polygon_five_gon_structure():
    p = constructors.convex_polygon(5)
    assert p.n == 5
    assert len(faces.enumerate_vertices(p)) == 5
    origin = (ZERO, ZERO)
    assert all(slack(c, origin) >= 0 for c in p.constraints)


def test_polygon_each_edge_tight_on_two_vertices():
    p = constructors.convex_polygon(4)
    vertices = vertex_points(faces.Analysis(p).generators)
    for i in range(p.n):
        assert sum(1 for _, tight in vertices if tight >> i & 1) == 2
    for m in range(3, 61):
        points = constructors.polygon_vertices(m)
        for j, c in enumerate(constructors.convex_polygon(m).constraints):
            slacks = [slack(c, v) for v in points]
            assert min(slacks) == 0 and slacks.count(0) == 2, (m, j)


ORDERS = {"reversed": lambda v: v[::-1],
          "pentagram": lambda v: [v[2 * i % len(v)] for i in range(len(v))],
          "swapped": lambda v: [v[0], v[2], v[1]] + v[3:]}


@pytest.mark.parametrize("order", ORDERS)
def test_polygon_edges_reject_non_convex_orders(monkeypatch, capsys, order):
    ccw = constructors.polygon_vertices
    monkeypatch.setattr(constructors, "polygon_vertices",
                        lambda m: ORDERS[order](ccw(m)))
    with pytest.raises(AssertionError):
        constructors.convex_polygon(5)
    assert run(["construct", "polygon", "--n", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1


def test_polygon_vertices_on_unit_circle():
    for v in constructors.polygon_vertices(9):
        assert v[0] * v[0] + v[1] * v[1] == 1


def test_polygon_too_small():
    with pytest.raises(ValueError):
        constructors.convex_polygon(2)


def test_pstar_12_6_shape():
    p = constructors.pstar(12, 6)
    assert (p.n, p.dim) == (12, 6)
    prof = model.li2_profile(p)
    assert prof.is_li2 and len(prof.pair_counts) == 3
    assert len(faces.enumerate_vertices(p)) == 64


def test_pstar_counts_match_vertex_formula():
    for n, d, expect in ((8, 4, 16), (10, 4, 25), (12, 6, 64)):
        assert len(faces.enumerate_vertices(constructors.pstar(n, d))) == expect


def test_pstar_odd_is_pointed_with_base_vertices():
    p = constructors.pstar(13, 7)
    assert p.n == 13
    vertices = vertex_points(faces.Analysis(p).generators)
    assert len(vertices) == 64  # ((13-1)/3)^3
    assert all(v[6] == 0 for v, _ in vertices)


def test_pstar_divisibility_errors():
    with pytest.raises(ValueError, match=r"^floor\(d/2\) = 3 must be a divisor "
                                         r"of n = 10 when d is even$"):
        constructors.pstar(10, 6)
    with pytest.raises(ValueError, match=r"^floor\(d/2\) = 3 must be a divisor "
                                         r"of n-1 = 11 when d is odd$"):
        constructors.pstar(12, 7)
    with pytest.raises(ValueError,
                       match=r"^polygon size 2 < 3: each coordinate pair needs a polygon$"):
        constructors.pstar(4, 4)  # 2-gons are not polygons


def test_pstar_d2_is_polygon():
    p = constructors.pstar(7, 2)
    assert faces.Analysis(p).f_vector == (7, 7, 1)


def test_pstar_even_is_simple():
    for n, d in ((8, 4), (12, 6)):
        a = faces.Analysis(constructors.pstar(n, d))
        assert a.bounded and a.simple


def test_pstar_vertices_take_consecutive_pairs_per_polygon():
    # Each vertex is tight on exactly one cyclically consecutive edge pair
    # per polygon, and every such combination occurs. Row i*m + j is edge j
    # of polygon i.
    n, d = 12, 6
    m, half = n // (d // 2), d // 2
    p = constructors.pstar(n, d)
    combos = set()
    for _, tight in vertex_points(faces.Analysis(p).generators):
        rows = [r for r in range(p.n) if tight >> r & 1]
        per_pair = []
        for i in range(half):
            edges = sorted(r - i * m for r in rows if r // m == i)
            assert len(edges) == 2
            j, jj = edges
            assert (jj - j) % m in (1, m - 1), (i, edges)
            per_pair.append(tuple(edges))
        combos.add(tuple(per_pair))
    assert len(combos) == m ** half


def test_dual_cyclic_6_3():
    assert faces.Analysis(constructors.dual_cyclic(6, 3)).f_vector == (8, 12, 6, 1)


def test_dual_cyclic_8_4():
    assert faces.Analysis(constructors.dual_cyclic(8, 4)).f_vector == (20, 40, 28, 8, 1)


def test_dual_cyclic_planar_is_polygon():
    for n in (3, 5, 8):
        if n > 2:
            p = constructors.dual_cyclic(n, 2)
            assert faces.Analysis(p).f_vector == (n, n, 1)


def test_dual_cyclic_rejects_small_n():
    with pytest.raises(ValueError):
        constructors.dual_cyclic(4, 4)


def test_dual_cyclic_is_simple_and_bounded():
    p = constructors.dual_cyclic(8, 4)
    assert is_bounded(p)
    assert faces.Analysis(p).simple


def test_prism3_paper_counts():
    assert faces.Analysis(constructors.prism3(8)).f_vector == (12, 18, 8, 1)
    assert faces.Analysis(constructors.prism3(5)).f_vector == (6, 9, 5, 1)


def test_prism3_profile():
    prof = model.li2_profile(constructors.prism3(8))
    assert prof.n_prime == 6 and prof.single_var_count == 2


def test_prism3_too_small():
    with pytest.raises(ValueError):
        constructors.prism3(4)


def test_constructors_full_dimensional():
    for p in (constructors.pstar(8, 4), constructors.pstar(9, 5),
              constructors.dual_cyclic(7, 3), constructors.prism3(6),
              constructors.convex_polygon(6)):
        assert max(collect_lattice(faces.Analysis(p)))[0] == p.dim


def test_from_family_round_trip():
    for build in (lambda: constructors.pstar(8, 4),
                  lambda: constructors.dual_cyclic(6, 3),
                  lambda: constructors.prism3(6),
                  lambda: constructors.convex_polygon(5)):
        p = build()
        assert constructors.from_family(p.family) == p


def test_from_family_rejects_an_unknown_name():
    with pytest.raises(ValueError, match=r"^unknown family 'cube'$"):
        constructors.from_family(model.FamilyTag("cube", 8, 3))


def test_family_registry_matches_parser_names():
    assert tuple(constructors.FAMILIES) == model.FAMILY_NAMES


def test_family_registry_closed_forms_match_enumeration():
    for name, n, d in (("pstar", 8, 4), ("pstar", 7, 3), ("dualcyclic", 7, 3),
                       ("prism3", 7, None), ("polygon", 5, None)):
        family = constructors.FAMILIES[name]
        p = family.build(n, d)
        assert p.dim == (family.fixed_dim or d)
        assert family.f_vector(n, d) == faces.Analysis(p).f_vector


def test_odd_pstar_every_row_supports_a_facet():
    # Nonredundancy for the unbounded odd case (the LP-based scan requires
    # boundedness): every row must appear alone as a facet tight set.
    p = constructors.pstar(7, 3)
    facet_rows = {tight.bit_length() - 1
                  for dim, tight, _ in collect_lattice(faces.Analysis(p))
                  if dim == p.dim - 1 and tight.bit_count() == 1}
    assert facet_rows == set(range(p.n))
