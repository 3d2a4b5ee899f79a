"""Reference vertices and rays by subset scan, for differential tests.

faces.enumerate_vertices finds vertices and extreme rays in one
double-description pass. This module finds them the brute-force way: every
d-row subsystem is solved for the vertices, and the rays come from the
(d-1)-subsets of single vertex tight sets.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from li2poly.errors import NonPointedError
from li2poly.model import HPolytope
from li2poly.ratlin import ZERO, Vec, dot, rank, solve_affine, solve_linear_system


def scan_vertices(p: HPolytope) -> list[tuple[Vec, frozenset[int]]]:
    """All vertices with their full tight sets, sorted by coordinates.

    Every d-subset of rows with a nonsingular coefficient matrix is solved;
    solutions satisfying the whole system are kept and deduplicated by
    point. Raises NonPointedError when the lineality space is nonzero.
    """
    d = p.dim
    if rank(tuple(p.rows())) < d:
        raise NonPointedError(
            "row rank below the ambient dimension: nonzero lineality space")
    seen: dict[Vec, frozenset[int]] = {}
    for subset in combinations(range(p.n), d):
        m = tuple(p.constraints[i].coeffs for i in subset)
        rhs = tuple(p.constraints[i].rhs for i in subset)
        x = solve_linear_system(m, rhs)
        if x is None or x in seen:
            continue
        if p.contains(x):
            seen[x] = p.tight_at(x)
    return sorted(seen.items())


def recession_ray_candidates(p: HPolytope,
                             vertices: list[tuple[Vec, frozenset[int]]]) -> list[Vec]:
    """The extreme rays of the recession cone {y : Ay <= 0}, normalized so
    the first nonzero coordinate is +/-1. Each spans an unbounded edge at a
    vertex, cut out by d-1 independent rows tight at that vertex alone, so
    only the (d-1)-subsets of exactly one vertex tight set are solved; rows
    tight at two vertices cut out a bounded segment, not a ray.
    """
    d = p.dim
    rows = p.rows()
    holders = Counter(sub for _, tight in vertices
                      for sub in combinations(sorted(tight), d - 1))
    found: set[Vec] = set()
    for subset in [sub for sub, count in holders.items() if count == 1]:
        solved = solve_affine([rows[i] for i in subset], [ZERO] * (d - 1), d)
        if solved is None or len(solved[1]) != 1:
            continue
        y = solved[1][0]
        lead = next(a for a in y if a != 0)
        y = tuple(a / abs(lead) for a in y)
        for cand in (y, tuple(-a for a in y)):
            if cand not in found and all(dot(r, cand) <= 0 for r in rows):
                found.add(cand)
    return sorted(found)
