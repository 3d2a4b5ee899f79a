"""Exact geometric predicates backed by the rational simplex.

Feasibility, boundedness and redundancy are each decided by a few exact
linear programs over the whole system. They are the reference that
faces.Analysis.bounded and faces.redundant_rows, which read the same
answers off the double-description incidences, are checked against.
"""

from __future__ import annotations

from li2poly.errors import InputError
from li2poly.model import HPolytope
from fraction_linalg import ONE, ZERO, Vec, rows_of
from lp_simplex import OPTIMAL, max_min_slack, solve_lp_max


def feasible_point(p: HPolytope) -> Vec | None:
    """Any point of the polyhedron, or None when it is empty."""
    if p.n == 0:
        return (ZERO,) * p.dim
    value, z = max_min_slack(rows_of(p), [c.rhs for c in p.constraints], p.dim)
    return tuple(z) if value >= 0 else None


def is_bounded(p: HPolytope) -> bool:
    """True iff the recession cone {y : Ay <= 0} is the origin.

    Decided by 2*dim exact programs maximizing +/- each coordinate of y
    over the recession cone, each capped at 1 along its own objective
    direction so the program stays bounded; a cone direction with nonzero
    i-th coordinate scales into one of the capped programs with positive
    value. Raises InputError on an empty polyhedron.
    """
    if feasible_point(p) is None:
        raise InputError("polyhedron is empty")
    rows = rows_of(p)
    rhs = [ZERO] * p.n
    for i in range(p.dim):
        box_row = tuple(ONE if j == i else ZERO for j in range(p.dim))
        neg_row = tuple(-x for x in box_row)
        for obj in (box_row, neg_row):
            res = solve_lp_max(obj, rows + [obj], rhs + [ONE])
            if res.status != OPTIMAL:
                raise AssertionError("boxed recession program must be bounded")
            if res.value > 0:
                return False
    return True


def redundant_constraints(p: HPolytope) -> set[int]:
    """Indices whose removal leaves the solution set unchanged.

    Row i is redundant iff maximizing its left-hand side subject to the
    other (still active) rows cannot exceed its right-hand side. Rows are
    scanned from the highest index down, so among duplicates the lowest
    index is the one kept. Requires a feasible bounded input; is_bounded
    raises InputError on an empty one.
    """
    if not is_bounded(p):
        raise InputError("redundancy scan requires a bounded polytope")
    active = list(range(p.n))
    redundant: set[int] = set()
    for i in reversed(range(p.n)):
        others = [j for j in active if j != i]
        rows = [p.constraints[j].coeffs for j in others]
        rhs = [p.constraints[j].rhs for j in others]
        res = solve_lp_max(p.constraints[i].coeffs, rows, rhs)
        if res.status == OPTIMAL and res.value <= p.constraints[i].rhs:
            redundant.add(i)
            active.remove(i)
    return redundant
