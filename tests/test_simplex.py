"""The exact simplex: optima, unboundedness, infeasibility, degeneracy."""

from fractions import Fraction

from li2poly.ratlin import vec
from lp_simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, max_min_slack,
                        solve_lp_max)

F = Fraction


def box_rows():
    return [vec([1, 0]), vec([0, 1]), vec([-1, 0]), vec([0, -1])]


def test_max_over_square():
    res = solve_lp_max(vec([1, 1]), box_rows(), [F(1)] * 2 + [F(0)] * 2)
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.point == (F(1), F(1))


def test_negative_rhs_needs_phase_one():
    # x >= 1 (as -x <= -1), x <= 3: maximize -x hits the lower bound.
    res = solve_lp_max(vec([-1]), [vec([-1]), vec([1])], [F(-1), F(3)])
    assert res.status == OPTIMAL
    assert res.value == -1
    assert res.point == (F(1),)


def test_unbounded():
    res = solve_lp_max(vec([1, 0]), [vec([0, 1]), vec([0, -1])], [F(1), F(0)])
    assert res.status == UNBOUNDED


def test_infeasible():
    res = solve_lp_max(vec([1]), [vec([1]), vec([-1])], [F(-2), F(1)])
    assert res.status == INFEASIBLE


def test_duplicate_and_redundant_rows():
    rows = box_rows() + [vec([1, 0]), vec([1, 1])]
    rhs = [F(1), F(1), F(0), F(0), F(1), F(5)]
    res = solve_lp_max(vec([1, 2]), rows, rhs)
    assert res.status == OPTIMAL
    assert res.value == 3


def test_degenerate_vertex_terminates():
    # Four facets through (1,1): heavy ratio ties exercise Bland's rule.
    rows = [vec([1, 0]), vec([0, 1]), vec([1, 1]), vec([1, 2]), vec([2, 1])]
    rhs = [F(1), F(1), F(2), F(3), F(3)]
    res = solve_lp_max(vec([1, 1]), rows, rhs)
    assert res.status == OPTIMAL
    assert res.value == 2


def test_fractional_coefficients_exact():
    res = solve_lp_max(vec([F(1, 3)]), [vec([F(2, 7)])], [F(5, 11)])
    assert res.status == OPTIMAL
    assert res.point == (F(35, 22),)
    assert res.value == F(35, 66)


def test_no_rows():
    assert solve_lp_max(vec([0, 0]), [], []).status == OPTIMAL
    assert solve_lp_max(vec([1, 0]), [], []).status == UNBOUNDED


def test_max_min_slack_interior():
    value, z = max_min_slack(box_rows(), [F(1), F(1), F(0), F(0)], 2)
    assert value == F(1, 2)
    assert z == (F(1, 2), F(1, 2))


def test_max_min_slack_infeasible_system_goes_negative():
    value, _ = max_min_slack([vec([1]), vec([-1])], [F(-2), F(1)], 1)
    assert value < 0


def test_max_min_slack_cap_on_unbounded_region():
    value, _ = max_min_slack([vec([-1])], [F(0)], 1)
    assert value == 1  # capped, not unbounded


def test_optimum_matches_vertex_enumeration_on_random_boxed_lps():
    # Exact dual-route check: on a bounded feasible region the optimum of
    # a linear objective is attained at a vertex, and vertex enumeration
    # only relies on linear solving, not on the simplex.
    import random

    from li2poly.model import Constraint, HPolytope
    from li2poly.ratlin import dot
    from scan_oracle import scan_vertices

    rng = random.Random(31)
    for _ in range(60):
        m = rng.randrange(1, 4)
        rows = []
        for j in range(m):
            e = [F(0)] * m
            e[j] = F(1)
            rows.append((tuple(e), F(10)))
            rows.append((tuple(-x for x in e), F(10)))
        for _ in range(rng.randrange(0, 6)):
            coeffs = tuple(F(rng.randrange(-5, 6)) for _ in range(m))
            if any(coeffs):
                rows.append((coeffs, F(rng.randrange(-5, 6))))
        c = tuple(F(rng.randrange(-5, 6)) for _ in range(m))
        res = solve_lp_max(c, [r for r, _ in rows], [b for _, b in rows])
        p = HPolytope(m, tuple(Constraint(r, b) for r, b in rows))
        vertices = scan_vertices(p)
        if not vertices:
            assert res.status == INFEASIBLE
            continue
        assert res.status == OPTIMAL
        assert res.value == max(dot(c, v) for v, _ in vertices)
