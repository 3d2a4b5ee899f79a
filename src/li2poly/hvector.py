"""Indegree h-vectors, the f/h transforms, and the maximal-count comparison.

Orient every edge of a simple bounded polytope toward the endpoint with
the larger value of a generic linear objective; h_i counts vertices of
indegree i. Genericity is obtained by rejection sampling from a seeded
integer generator, and ties are detected exactly, so a redraw is the only
possible reaction to a degenerate draw. The alternating-sum transform
recovers the same histogram from the f-vector alone, which also extends
the comparison against the dual cyclic counts to pointed unbounded inputs
where no orientation machinery applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GenericObjectiveError, NotSimpleError
from .faces import Analysis, analyze
from .formulas import binom, dual_cyclic_f_vector
from .model import HPolytope, Vec, dot

HVector = tuple[int, ...]

_REDRAW_LIMIT = 64


def h_from_f(f: Sequence[int]) -> HVector:
    """h_i = sum_{k>=i} (-1)^(k-i) C(k,i) f_k, the inverse of f_from_h."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * binom(k, i) * f[k] for k in range(i, d + 1))
        for i in range(d + 1))


def f_from_h(h: Sequence[int]) -> tuple[int, ...]:
    """f_k = sum_{r>=k} C(r,k) h_r: every k-face has a unique sink."""
    d = len(h) - 1
    return tuple(
        sum(binom(r, k) * h[r] for r in range(k, d + 1)) for k in range(d + 1))


def _draw_objective(rng: random.Random, dim: int) -> Vec:
    # Integer entries in [-2^31, 2^31); exact, and small downstream products.
    return tuple(Fraction(rng.randrange(-2 ** 31, 2 ** 31)) for _ in range(dim))


def orient_edges(points: list[Vec], edges: list[tuple[int, int]], seed: int
                 ) -> tuple[Vec, list[tuple[int, int]]]:
    """Draw a tie-free objective and orient each edge toward larger value.

    Returns (objective, directed edges tail->head). Redraws on any exact
    tie, up to a fixed limit.
    """
    rng = random.Random(seed)
    for _ in range(_REDRAW_LIMIT):
        c = _draw_objective(rng, len(points[0]) if points else 0)
        values = [dot(c, pt) for pt in points]
        if any(values[u] == values[v] for u, v in edges):
            continue
        directed = [(u, v) if values[u] < values[v] else (v, u) for u, v in edges]
        return c, directed
    raise GenericObjectiveError(
        f"no tie-free objective within {_REDRAW_LIMIT} redraws")


def indegree_hvector(x: HPolytope | Analysis, seed: int) -> HVector:
    """Histogram of vertex indegrees under a seeded generic objective.

    Requires a bounded simple polytope; the histogram has d+1 bins and is
    the same for every generic objective.
    """
    a = analyze(x)
    if not a.bounded:
        raise NotSimpleError("indegree histogram requires a bounded polytope")
    if not a.simple:
        raise NotSimpleError(
            "indegree histogram requires a simple polytope "
            "(every vertex on exactly d rows)")
    points, edges = a.edge_graph
    _, directed = orient_edges(points, edges, seed)
    indeg = [0] * len(points)
    for _, head in directed:
        indeg[head] += 1
    counts = [0] * (a.p.dim + 1)
    for item in indeg:
        counts[item] += 1
    return tuple(counts)


@dataclass(frozen=True)
class UbtEntry:
    index: int
    h_value: int
    h_dual_cyclic: int
    ok: bool


@dataclass(frozen=True)
class UbtComparison:
    """Componentwise h(P) <= h(c*(n, d)) report."""
    entries: tuple[UbtEntry, ...]
    satisfied: bool


def strengthened_ubt_check(x: HPolytope | Analysis) -> UbtComparison:
    """Compare h of a simple n-row polytope against the dual cyclic h(n, d).

    Both sides come from the f-to-h transform: the right side from the
    closed-form dual cyclic f-vector, the left from brute-force
    enumeration, so no objective draw is involved. Simplicity is required
    in the vertex sense (every vertex on exactly d rows), which also covers
    pointed unbounded inputs, where face counts include unbounded faces.
    """
    a = analyze(x)
    if not a.simple:
        raise NotSimpleError("the h comparison assumes a simple polytope")
    h_p = h_from_f(a.f_vector)
    h_c = h_from_f(dual_cyclic_f_vector(a.p.n, a.p.dim))
    entries = tuple(
        UbtEntry(i, hp, hc, hp <= hc) for i, (hp, hc) in enumerate(zip(h_p, h_c)))
    return UbtComparison(entries, all(e.ok for e in entries))
