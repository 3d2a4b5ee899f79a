"""Reference face lattice by linear programming, for differential tests.

faces.face_lattice closes each candidate tight set by set algebra over
vertex and ray incidences. This module closes it the independent way: the
vertices come from the subset scan of scan_oracle, not from the
double-description kernel, an exact program finds a point in the relative
interior of each candidate's face, and the rows tight there form the
closed tight set. Every face of a
bounded polyhedron is bounded; on an unbounded one, faces are tested by
lp_geometry.is_bounded with the face's rows turned into equalities, and the
face order passes each answer on to the faces it settles, so no recession
ray list is involved.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from li2poly.model import Constraint, HPolytope
from li2poly.ratlin import Vec, dot, rank, solve_affine
from lp_geometry import is_bounded
from lp_simplex import UNBOUNDED, max_min_slack, solve_lp_max
from scan_oracle import scan_vertices


def relative_interior_point(p: HPolytope, tight: frozenset[int] | set[int]
                            ) -> Vec | None:
    """A point with equality exactly on the closure of `tight`, or None.

    The rows of `tight` cut out an affine subspace; the minimum slack of
    the remaining rows is maximized over it. A positive optimum yields a
    point strictly inside every other row. A zero optimum means more rows
    are implicitly tight: they are found one row at a time and folded into
    the equality system (the rank grows each round, so this terminates).
    None means the face is empty.
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
        # Slack of row j on the subspace: lp_rhs[j] - lp_rows[j].z
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
        if not basis or not lp_rows:
            return x0
        value, z = max_min_slack(lp_rows, lp_rhs, len(basis))
        if value < 0:
            return None
        if value > 0:
            return tuple(x + sum(coef * bv[i] for coef, bv in zip(z, basis))
                         for i, x in enumerate(x0))
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


def face_is_bounded(p: HPolytope, tight: frozenset[int]) -> bool:
    """is_bounded on P with the rows of `tight` also added reversed."""
    reversed_rows = tuple(
        Constraint(tuple(-a for a in p.constraints[i].coeffs), -p.constraints[i].rhs)
        for i in sorted(tight))
    return is_bounded(HPolytope(p.dim, p.constraints + reversed_rows))


def faces_bounded(p: HPolytope, dims: dict[frozenset[int], int]
                  ) -> dict[frozenset[int], bool]:
    """Boundedness of each face (closed tight set -> dim) by is_bounded.

    Two face-of-face facts spare programs: a face of a bounded face is
    bounded, and a face containing an unbounded face is unbounded. So the
    faces one dimension below the top are tested first and pass
    boundedness down; the rest are decided upward from the smallest, and
    only those neither fact settles are tested.
    """
    if is_bounded(p):
        return dict.fromkeys(dims, True)
    top = max(dims.values())
    bounded = {t: face_is_bounded(p, t) for t, dim in dims.items() if dim == top - 1}
    for t, dim in dims.items():
        if dim == top:
            bounded[t] = False
        elif dim < top - 1 and any(b and f <= t for f, b in bounded.items()):
            bounded[t] = True
    for t in sorted(set(dims) - set(bounded), key=dims.get):
        bounded[t] = (not any(not b and t < g for g, b in bounded.items())
                      and face_is_bounded(p, t))
    return bounded


def lp_face_lattice(p: HPolytope
                    ) -> list[tuple[frozenset[int], int, frozenset[int] | None]]:
    """(tight_set, dim, vertex_ids) of every nonempty face, sorted like
    faces.face_lattice, with each candidate closed through a witness."""
    d = p.dim
    vertices = scan_vertices(p)
    candidates = {frozenset(sub) for _, tight in vertices
                  for size in range(min(d, len(tight)) + 1)
                  for sub in combinations(sorted(tight), size)}
    dims = {}
    for cand in candidates:
        witness = relative_interior_point(p, cand)
        assert witness is not None, "a subset of a vertex tight set has a face"
        closed = p.tight_at(witness)
        if closed not in dims:
            dims[closed] = d - rank([p.constraints[i].coeffs for i in sorted(closed)])
    bounded = faces_bounded(p, dims)
    lattice = [(closed, dim, frozenset(v for v, (_, vt) in enumerate(vertices)
                                       if closed <= vt) if bounded[closed] else None)
               for closed, dim in dims.items()]
    return sorted(lattice, key=lambda f: (f[1], sorted(f[0])))
