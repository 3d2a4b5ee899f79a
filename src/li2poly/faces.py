"""Brute-force exact enumeration of the face lattice of a pointed polyhedron.

This module is the independent oracle the closed-form counts are checked
against, so it favors exhaustiveness over cleverness. Vertices come from
solving every d-row subsystem, the only scan over all row subsets. Every
extreme ray spans an unbounded edge at one vertex, so the rays, and with
them boundedness, come from the vertex tight sets without a linear program.
Faces are identified by their closed tight sets: every nonempty face of a
pointed polyhedron contains a vertex, hence its tight set is a subset of
some vertex's tight set, so scanning subsets of vertex tight sets (up to
size d) finds every face, including the unbounded ones. Each candidate is
closed by set algebra alone: a face is the convex hull of its vertices
plus the cone of its extreme rays, so the rows tight on all of it are the
intersection of its vertices' tight sets and its rays' zero sets. No
linear program runs per face.

The query functions below and in hvector take an HPolytope or an
Analysis; sharing one Analysis enumerates the polytope once. A work
budget other than the default caps is given when the Analysis is made.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import (CapExceededError, InfeasibleError, NonPointedError,
                     RedundantInputError, UnboundedInputError)
from .geometry import redundant_constraints
from .model import HPolytope
from .ratlin import ZERO, Vec, dot, rank, solve_affine, solve_linear_system

DEFAULT_N_CAP = 24
DEFAULT_D_CAP = 7

FVector = tuple[int, ...]


@dataclass(frozen=True)
class Face:
    """A nonempty face, keyed by its maximal (closed) tight constraint set.

    `vertex_ids` indexes into the analysis's vertex list and is None for
    unbounded faces.
    """
    tight_set: frozenset[int]
    dim: int
    vertex_ids: frozenset[int] | None


def enumerate_vertices(p: HPolytope) -> list[tuple[Vec, frozenset[int]]]:
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


@dataclass(frozen=True, eq=False)
class Analysis:
    """The enumeration results of one polytope under one work budget.

    Each property is computed on first access and cached on this object
    only; cached values are shared, so callers must not mutate them. Rays,
    boundedness and faces all come from the vertex tight sets. The caps are
    checked here, before any work: n <= 24, d <= 7 by default, or else
    C(n, d) vertex subsystems and the lattice's candidate tight sets must
    each fit in the explicit max_subsets budget.
    """
    p: HPolytope
    max_subsets: int | None = None

    def __post_init__(self):
        n, d = self.p.n, self.p.dim
        scan = f"the vertex scan would solve C({n},{d}) = {comb(n, d)} subsystems"
        if self.max_subsets is None:
            if n > DEFAULT_N_CAP or d > DEFAULT_D_CAP:
                raise CapExceededError(
                    f"n={n}, d={d} exceeds the default caps n<={DEFAULT_N_CAP}, "
                    f"d<={DEFAULT_D_CAP} ({scan}); pass max_subsets to override")
        elif comb(n, d) > self.max_subsets:
            raise CapExceededError(f"{scan}, over max_subsets={self.max_subsets}")

    @cached_property
    def vertices(self) -> list[tuple[Vec, frozenset[int]]]:
        return enumerate_vertices(self.p)

    @cached_property
    def bounded(self) -> bool:
        if not self.vertices:
            raise InfeasibleError("polyhedron is empty")
        return not self.rays

    @cached_property
    def rays(self) -> list[Vec]:
        """The extreme rays of the recession cone; none for a bounded polytope."""
        return recession_ray_candidates(self.p, self.vertices)

    @cached_property
    def lattice(self) -> list[Face]:
        return face_lattice(self)

    @cached_property
    def f_vector(self) -> FVector:
        counts = [0] * (self.p.dim + 1)
        for face in self.lattice:
            counts[face.dim] += 1
        return tuple(counts)

    @cached_property
    def edge_graph(self) -> tuple[list[Vec], list[tuple[int, int]]]:
        if not self.bounded:
            raise UnboundedInputError("edge graph requires a bounded polytope")
        edges = []
        for f in self.lattice:
            if f.dim == 1:
                if len(f.vertex_ids) != 2:
                    raise AssertionError("bounded 1-face without exactly two vertices")
                edges.append(tuple(sorted(f.vertex_ids)))
        return [x for x, _ in self.vertices], sorted(edges)


def analyze(x: HPolytope | Analysis) -> Analysis:
    """x itself when it is an Analysis, else a new Analysis of x."""
    return x if isinstance(x, Analysis) else Analysis(x)


def face_lattice(a: Analysis) -> list[Face]:
    """Every nonempty face of a feasible pointed polyhedron, P itself included.

    Candidate tight sets are the subsets (of size at most d) of vertex
    tight sets. The face of a candidate S holds the vertices whose tight
    set contains S and the rays whose zero set {i : a_i.y = 0} contains S;
    its closed tight set is the intersection of those sets, and faces are
    deduplicated by it. Faces are returned sorted by (dim, tight_set).
    Vertices, boundedness and rays come from the analysis, which also
    applies the caps. This is the builder behind Analysis.lattice: each
    call builds a new lattice, so read analyze(p).lattice for the cached
    one.
    """
    p, d = a.p, a.p.dim
    vertices = a.vertices
    if not vertices:
        raise InfeasibleError("no vertices: polyhedron is empty")

    candidates: set[frozenset[int]] = set()
    for _, tight in vertices:
        base = sorted(tight)
        for size in range(min(d, len(base)) + 1):
            for sub in combinations(base, size):
                candidates.add(frozenset(sub))
                if a.max_subsets is not None and len(candidates) > a.max_subsets:
                    raise CapExceededError(
                        f"candidate tight sets exceed max_subsets={a.max_subsets}")

    ray_zeros = [frozenset(i for i, r in enumerate(p.rows()) if dot(r, y) == 0)
                 for y in a.rays]
    faces: dict[frozenset[int], Face] = {}
    for cand in candidates:
        vertex_ids = [vid for vid, (_, vt) in enumerate(vertices) if cand <= vt]
        zeros = [z for z in ray_zeros if cand <= z]
        closed = frozenset.intersection(*(vertices[v][1] for v in vertex_ids), *zeros)
        if closed in faces:
            continue
        fdim = d - rank([p.constraints[i].coeffs for i in sorted(closed)])
        faces[closed] = Face(closed, fdim, None if zeros else frozenset(vertex_ids))
    return sorted(faces.values(), key=lambda f: (f.dim, sorted(f.tight_set)))


def f_vector(x: HPolytope | Analysis) -> FVector:
    """Counts (f_0, ..., f_d) of k-dimensional faces, by brute force."""
    return analyze(x).f_vector


def is_simple(x: HPolytope | Analysis) -> bool:
    """True iff every vertex lies on exactly d constraints; bounded input."""
    a = analyze(x)
    if not a.bounded:
        raise UnboundedInputError("simplicity test requires a bounded polytope")
    return all(len(tight) == a.p.dim for _, tight in a.vertices)


def facet_adjacency_count(x: HPolytope | Analysis) -> int:
    """Number of unordered facet pairs meeting in a (d-2)-face.

    Requires a bounded nonredundant input, where rows and facets are in
    bijection: the count is the number of pairs {i, j} whose joint face
    closes to dimension d-2. Equals f_{d-2} for simple polytopes.
    """
    a = analyze(x)
    if not a.bounded:
        raise UnboundedInputError("facet adjacency requires a bounded polytope")
    redundant = redundant_constraints(a.p)
    if redundant:
        raise RedundantInputError(
            f"rows {sorted(redundant)} are redundant; adjacency counts need "
            "a nonredundant system")
    count = 0
    for face in a.lattice:
        if face.dim == a.p.dim - 2:
            t = len(face.tight_set)
            count += t * (t - 1) // 2
    return count


def edge_graph(x: HPolytope | Analysis) -> tuple[list[Vec], list[tuple[int, int]]]:
    """Vertices and undirected edges (as index pairs) of a bounded polytope."""
    return analyze(x).edge_graph
