"""Exact geometric predicates backed by the rational simplex.

The workhorse is relative_interior_point: given a set of rows forced to
equality, it parametrizes the affine subspace they cut out, then maximizes
the minimum slack of the remaining rows over that subspace. A positive
optimum yields a witness that is strictly inside every face-defining
inequality; zero optimum means more rows are implicitly tight, which we
detect one row at a time and fold into the equality system (the rank grows
each round, so this terminates).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleError, UnboundedInputError
from .model import HPolytope
from .ratlin import ONE, ZERO, Vec, dot, solve_affine, vec_add, vec_scale
from .simplex import OPTIMAL, UNBOUNDED, max_min_slack, solve_lp_max


def relative_interior_point(p: HPolytope, tight: frozenset[int] | set[int]
                            ) -> Vec | None:
    """A point with equality exactly on the closure of `tight`, or None.

    The returned point satisfies every row of `tight` with equality, every
    other row weakly, and strictly whenever the row is not forced tight by
    the face itself. None means the face is empty.
    """
    if not all(0 <= i < p.n for i in tight):
        raise ValueError("tight indices out of range")
    work = set(tight)
    d = p.dim
    while True:
        eq_rows = [p.constraints[i].coeffs for i in sorted(work)]
        eq_rhs = [p.constraints[i].rhs for i in sorted(work)]
        solved = solve_affine(eq_rows, eq_rhs, d)
        if solved is None:
            return None
        x0, basis = solved
        m = len(basis)
        # Slack of row j on the subspace: rhs_c[j] - rows_g[j].z
        lp_rows: list[tuple[Fraction, ...]] = []
        lp_rhs: list[Fraction] = []
        lp_idx: list[int] = []
        for j, c in enumerate(p.constraints):
            if j in work:
                continue
            g = tuple(dot(c.coeffs, bv) for bv in basis)
            const = c.rhs - dot(c.coeffs, x0)
            if all(x == 0 for x in g):
                if const < 0:
                    return None
                continue  # constant slack on the subspace; never binds
            lp_rows.append(g)
            lp_rhs.append(const)
            lp_idx.append(j)
        if m == 0 or not lp_rows:
            return x0
        value, z = max_min_slack(lp_rows, lp_rhs, m)
        if value < 0:
            return None
        if value > 0:
            pt = x0
            for coef, bv in zip(z, basis):
                if coef != 0:
                    pt = vec_add(pt, vec_scale(bv, coef))
            return pt
        # Optimum zero: at least one row is tight on the whole face.
        forced = []
        for pos, j in enumerate(lp_idx):
            neg_g = tuple(-x for x in lp_rows[pos])
            res = solve_lp_max(neg_g, lp_rows, lp_rhs)
            if res.status == UNBOUNDED:
                continue
            if lp_rhs[pos] + res.value == 0:
                forced.append(j)
        if not forced:
            raise AssertionError("zero slack optimum without a forced-tight row")
        work.update(forced)


def feasible_point(p: HPolytope) -> Vec | None:
    """Any point of the polyhedron, or None when it is empty."""
    if p.n == 0:
        return (ZERO,) * p.dim
    value, z = max_min_slack(p.rows(), p.rhs(), p.dim)
    return tuple(z) if value >= 0 else None


def is_bounded(p: HPolytope) -> bool:
    """True iff the recession cone {y : Ay <= 0} is the origin.

    Decided by 2*dim exact programs maximizing +/- each coordinate of y
    over the recession cone, each capped at 1 along its own objective
    direction so the program stays bounded; a cone direction with nonzero
    i-th coordinate scales into one of the capped programs with positive
    value. Raises InfeasibleError on an empty polyhedron.
    """
    if feasible_point(p) is None:
        raise InfeasibleError("polyhedron is empty")
    rows = list(p.rows())
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
    index is the one kept. Requires a feasible bounded input.
    """
    if feasible_point(p) is None:
        raise InfeasibleError("polyhedron is empty")
    if not is_bounded(p):
        raise UnboundedInputError("redundancy scan requires a bounded polytope")
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


def is_full_dimensional(p: HPolytope) -> bool:
    """True iff the polyhedron has an interior point (all slacks positive)."""
    if p.n == 0:
        return True
    value, _ = max_min_slack(p.rows(), p.rhs(), p.dim)
    return value > 0
