"""The LP reference: boundedness and redundancy in lp_geometry, and the
interior witnesses of lp_oracle."""

from fractions import Fraction

import pytest

from conftest import square_pyramid
from fraction_linalg import contains, slack, tight_at
from li2poly import constructors
from li2poly.model import Constraint, HPolytope, parse_hrep
from lp_geometry import feasible_point, is_bounded, redundant_constraints
from lp_oracle import relative_interior_point
from scan_oracle import scan_vertices


def test_relint_on_edge(square):
    pt = relative_interior_point(square, {0})
    assert pt[0] == 1
    assert 0 < pt[1] < 1


def test_relint_opposite_facets_empty(square):
    assert relative_interior_point(square, {0, 2}) is None


def test_relint_full_interior(square):
    pt = relative_interior_point(square, set())
    assert all(slack(c, pt) > 0 for c in square.constraints)


def test_relint_on_degenerate_apex():
    pyramid = square_pyramid()
    # Two opposite side facets meet only at the apex; the other two side
    # facets are forced tight there as well.
    pt = relative_interior_point(pyramid, {1, 2})
    assert pt == (Fraction(0), Fraction(0), Fraction(1))
    assert tight_at(pyramid, pt) == frozenset({1, 2, 3, 4})


def test_relint_detects_outside_forcing():
    # x <= 1 tight plus a separate row x <= 0 makes the face empty.
    p = parse_hrep("3 2\n1 0 1\n1 0 0\n0 1 1")
    assert relative_interior_point(p, {0}) is None


def test_is_bounded_square(square):
    assert is_bounded(square)


def test_is_bounded_halfplane_false():
    p = parse_hrep("1 2\n-1 0 0")
    assert not is_bounded(p)


def test_is_bounded_pstar_even_and_odd():
    assert is_bounded(constructors.pstar(12, 6))
    assert not is_bounded(constructors.pstar(13, 7))


def test_is_bounded_requires_nonempty():
    empty = parse_hrep("2 1\n1 -2\n-1 1")
    with pytest.raises(ValueError, match=r"^polyhedron is empty$"):
        is_bounded(empty)


def test_feasible_point_and_full_dim(square):
    assert contains(square, feasible_point(square))


def test_redundant_duplicate_keeps_lowest_index(square):
    dup = HPolytope(2, square.constraints + (square.constraints[0],))
    assert redundant_constraints(dup) == {4}


def test_redundant_slack_row(square):
    extra = Constraint((Fraction(1), Fraction(0)), Fraction(5))
    p = HPolytope(2, square.constraints + (extra,))
    assert redundant_constraints(p) == {4}


def test_constructors_are_nonredundant():
    for p in (constructors.pstar(12, 6), constructors.dual_cyclic(8, 4),
              constructors.prism3(8), constructors.convex_polygon(5)):
        assert redundant_constraints(p) == set()


def test_redundancy_rejects_unbounded():
    with pytest.raises(ValueError, match=r"^redundancy scan requires a bounded polytope$"):
        redundant_constraints(constructors.pstar(13, 7))


def test_redundancy_rejects_infeasible():
    empty = parse_hrep("2 1\n1 -2\n-1 1")
    with pytest.raises(ValueError, match=r"^polyhedron is empty$"):
        redundant_constraints(empty)


def test_relint_agrees_with_vertex_incidence_oracle():
    # For a bounded polytope, the face forced by tight set S is nonempty
    # iff some vertex is tight on all of S, and its closed tight set is
    # the intersection of the tight sets of those vertices. That gives an
    # exact independent oracle for both outcomes of the witness search.
    import random
    from itertools import combinations


    rng = random.Random(202)
    for _ in range(25):
        m = rng.randrange(2, 4)
        rows = []
        for j in range(m):
            e = [Fraction(0)] * m
            e[j] = Fraction(1)
            rows.append((tuple(e), Fraction(5)))
            rows.append((tuple(-x for x in e), Fraction(5)))
        for _ in range(rng.randrange(1, 4)):
            coeffs = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(m))
            if any(coeffs):
                rows.append((coeffs, Fraction(rng.randrange(0, 7))))
        p = HPolytope(m, tuple(Constraint(r, b) for r, b in rows))
        vertices = scan_vertices(p)
        if not vertices:
            continue
        for size in range(0, m + 1):
            for s in list(combinations(range(p.n), size))[:40]:
                s = frozenset(s)
                incident = [t for _, t in vertices if s <= t]
                witness = relative_interior_point(p, s)
                if not incident:
                    assert witness is None, (rows, s)
                    continue
                assert witness is not None, (rows, s)
                closure = frozenset.intersection(*incident)
                assert tight_at(p, witness) == closure, (rows, s)
