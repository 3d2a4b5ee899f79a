"""Indegree h-vectors, the f/h transforms, and the maximal-count comparison.

Orient every edge of a simple bounded polytope toward the endpoint with
the larger value of a generic linear objective; h_i counts vertices of
indegree i. Genericity is obtained by rejection sampling from a seeded
integer generator over the integer vertices of a faces.Analysis, and ties
are detected exactly, so a redraw is the only possible reaction to a
degenerate draw. The alternating-sum transform recovers the same
histogram from the f-vector alone, which also extends the comparison
against McMullen's h-vector of c*, faces.dual_cyclic_h, to pointed
unbounded inputs where no orientation machinery applies.
"""

from __future__ import annotations

import random
from math import comb
from typing import Sequence

from .errors import InputError
from .faces import Analysis, IntVec, dual_cyclic_h

HVector = tuple[int, ...]

_REDRAW_LIMIT = 64


def h_from_f(f: Sequence[int]) -> HVector:
    """h_i = sum_{k>=i} (-1)^(k-i) C(k,i) f_k, the inverse of faces.f_from_h."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(k, i) * f[k] for k in range(i, d + 1))
        for i in range(d + 1))


def orient_edges(vertices: list[IntVec], edges: list[tuple[int, int]], seed: int
                 ) -> list[tuple[int, int]]:
    """Draw a tie-free objective and orient each edge toward larger value.

    Vertex k is a homogeneous integer vector (g_k, t_k), t_k > 0, with
    value s_k/t_k for s_k = c.g_k, so edge {u, v} ties iff s_u t_v ==
    s_v t_u and points to v iff s_u t_v < s_v t_u. c has integer entries
    in [-2^31, 2^31). Returns the directed edges tail->head. Redraws on
    any exact tie, up to a fixed limit.
    """
    rng = random.Random(seed)
    dim = len(vertices[0]) - 1 if vertices else 0
    for _ in range(_REDRAW_LIMIT):
        c = [rng.randrange(-2 ** 31, 2 ** 31) for _ in range(dim)]
        values = [sum(a * b for a, b in zip(c, g)) for g in vertices]
        cross = [(values[u] * vertices[v][-1], values[v] * vertices[u][-1])
                 for u, v in edges]
        if any(su == sv for su, sv in cross):
            continue
        return [(u, v) if su < sv else (v, u)
                for (u, v), (su, sv) in zip(edges, cross)]
    raise InputError(f"no tie-free objective within {_REDRAW_LIMIT} redraws")


def indegree_hvector(a: Analysis, seed: int) -> HVector:
    """Histogram of vertex indegrees under a seeded generic objective.

    Requires a bounded simple polytope; the histogram has d+1 bins and is
    the same for every generic objective.
    """
    if not a.bounded:
        raise InputError("indegree histogram requires a bounded polytope")
    if not a.simple:
        raise InputError(
            "indegree histogram requires a simple polytope "
            "(every vertex on exactly d rows)")
    vertices = [g for g, _ in a.generators]  # bounded: every generator is a vertex
    directed = orient_edges(vertices, a.edge_graph, seed)
    indeg = [0] * len(vertices)
    for _, head in directed:
        indeg[head] += 1
    counts = [0] * (a.p.dim + 1)
    for item in indeg:
        counts[item] += 1
    return tuple(counts)


def strengthened_ubt_check(a: Analysis) -> bool:
    """True iff h(P) <= h(c*(n, d)) in every entry, for P simple with n rows.

    The left side is the f-to-h transform of the brute-force f-vector, so
    no objective draw is involved; the right side is McMullen's h-vector
    of c*(n, d), faces.dual_cyclic_h, which raises ValueError naming n and
    d when n <= d. Simplicity is required in the vertex sense (every vertex
    on exactly d rows), which also covers pointed unbounded inputs, where
    face counts include unbounded faces.
    """
    if not a.simple:
        raise InputError("the h comparison assumes a simple polytope")
    return all(hp <= hc for hp, hc in zip(h_from_f(a.f_vector),
                                          dual_cyclic_h(a.p.n, a.p.dim)))
