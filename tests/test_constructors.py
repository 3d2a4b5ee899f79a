"""Constructor families: counts, structure, and validation."""

import pytest

from li2poly import constructors, faces, model
from li2poly.errors import DivisibilityError
from li2poly.ratlin import ZERO
from lp_geometry import is_bounded


def test_polygon_triangle_f_vector():
    assert faces.f_vector(constructors.convex_polygon(3)) == (3, 3, 1)


def test_polygon_five_gon_structure():
    p = constructors.convex_polygon(5)
    assert p.n == 5
    assert len(faces.enumerate_vertices(p)) == 5
    origin = (ZERO, ZERO)
    assert all(c.slack(origin) >= 0 for c in p.constraints)


def test_polygon_each_edge_tight_on_two_vertices():
    p = constructors.convex_polygon(4)
    vertices = faces.Analysis(p).vertices
    for i in range(p.n):
        assert sum(1 for _, tight in vertices if i in tight) == 2


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
    vertices = faces.Analysis(p).vertices
    assert len(vertices) == 64  # ((13-1)/3)^3
    assert all(v[6] == 0 for v, _ in vertices)


def test_pstar_divisibility_errors():
    with pytest.raises(DivisibilityError, match="divisor of n"):
        constructors.pstar(10, 6)
    with pytest.raises(DivisibilityError, match="divisor of n-1"):
        constructors.pstar(12, 7)
    with pytest.raises(DivisibilityError):
        constructors.pstar(4, 4)  # 2-gons are not polygons


def test_pstar_d2_is_polygon():
    p = constructors.pstar(7, 2)
    assert faces.f_vector(p) == (7, 7, 1)


def test_pstar_even_is_simple():
    for n, d in ((8, 4), (12, 6)):
        assert faces.is_simple(constructors.pstar(n, d))


def test_pstar_vertices_take_consecutive_pairs_per_polygon():
    # Each vertex is tight on exactly one cyclically consecutive edge pair
    # per polygon, and every such combination occurs.
    n, d = 12, 6
    m, half = n // (d // 2), d // 2
    p = constructors.pstar(n, d)
    combos = set()
    for _, tight in faces.Analysis(p).vertices:
        labels = sorted(p.constraints[i].label for i in tight)
        per_pair = []
        for i in range(half):
            edges = sorted(int(l.split("e")[1]) for l in labels
                           if l.startswith(f"p{i}e"))
            assert len(edges) == 2
            j, jj = edges
            assert (jj - j) % m in (1, m - 1), (i, edges)
            per_pair.append(tuple(edges))
        combos.add(tuple(per_pair))
    assert len(combos) == m ** half


def test_dual_cyclic_6_3():
    assert faces.f_vector(constructors.dual_cyclic(6, 3)) == (8, 12, 6, 1)


def test_dual_cyclic_8_4():
    assert faces.f_vector(constructors.dual_cyclic(8, 4)) == (20, 40, 28, 8, 1)


def test_dual_cyclic_planar_is_polygon():
    for n in (3, 5, 8):
        if n > 2:
            p = constructors.dual_cyclic(n, 2)
            assert faces.f_vector(p) == (n, n, 1)


def test_dual_cyclic_rejects_small_n():
    with pytest.raises(ValueError):
        constructors.dual_cyclic(4, 4)


def test_dual_cyclic_is_simple_and_bounded():
    p = constructors.dual_cyclic(8, 4)
    assert is_bounded(p)
    assert faces.is_simple(p)


def test_prism3_paper_counts():
    assert faces.f_vector(constructors.prism3(8)) == (12, 18, 8, 1)
    assert faces.f_vector(constructors.prism3(5)) == (6, 9, 5, 1)


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
        assert faces.Analysis(p).lattice[-1].dim == p.dim


def test_from_family_round_trip():
    for build in (lambda: constructors.pstar(8, 4),
                  lambda: constructors.dual_cyclic(6, 3),
                  lambda: constructors.prism3(6),
                  lambda: constructors.convex_polygon(5)):
        p = build()
        assert constructors.from_family(p.family) == p


def test_family_registry_matches_parser_names():
    assert tuple(constructors.FAMILIES) == model.FAMILY_NAMES


def test_family_registry_closed_forms_match_enumeration():
    for name, n, d in (("pstar", 8, 4), ("pstar", 7, 3), ("dualcyclic", 7, 3),
                       ("prism3", 7, None), ("polygon", 5, None)):
        family = constructors.FAMILIES[name]
        p = family.build(n, d)
        assert p.dim == (family.fixed_dim or d)
        assert family.f_vector(n, d) == faces.f_vector(p)


def test_odd_pstar_every_row_supports_a_facet():
    # Nonredundancy for the unbounded odd case (the LP-based scan requires
    # boundedness): every row must appear alone as a facet tight set.
    p = constructors.pstar(7, 3)
    facet_rows = {min(f.tight_set) for f in faces.Analysis(p).lattice
                  if f.dim == p.dim - 1 and len(f.tight_set) == 1}
    assert facet_rows == set(range(p.n))
