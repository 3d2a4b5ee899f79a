"""Exact enumeration of the face lattice of a pointed polyhedron.

This module is the independent oracle the closed-form counts are checked
against; it reads no formula. Vertices and extreme rays come from one
integer double-description pass (Motzkin, Raiffa, Thompson & Thrall 1953;
Fukuda & Prodon 1996) over the homogenised cone {(x, t) : a_i.x - b_i.t <= 0,
t >= 0}: its extreme rays with t > 0 are the vertices, those with t = 0
the extreme recession rays, so the polyhedron is bounded exactly when it
has none of the latter. Each generator carries the bitset of rows it
is tight on, and everything else is read from those incidences without a
linear program.

Faces are identified by their closed tight sets: every nonempty face of a
pointed polyhedron contains a vertex, hence its tight set is a subset of
some vertex's tight set, so scanning subsets of vertex tight sets (up to
size d) finds every face, including the unbounded ones. Each candidate is
closed by set algebra alone: a face is the convex hull of its vertices
plus the cone of its extreme rays, so the rows tight on all of it are the
intersection of its vertices' tight sets and its rays' zero sets.
Redundant rows are read from the same incidences (see redundant_rows).

The query functions below and in hvector take an HPolytope or an
Analysis; sharing one Analysis enumerates the polytope once. A work
budget other than the default caps is given when the Analysis is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm

from .errors import (CapExceededError, InfeasibleError, NonPointedError,
                     RedundantInputError, UnboundedInputError)
from .model import Constraint, HPolytope
from .ratlin import Vec, rank, solve_linear_system

DEFAULT_N_CAP = 24
DEFAULT_D_CAP = 7

FVector = tuple[int, ...]
IntVec = tuple[int, ...]
Generator = tuple[IntVec, int]


@dataclass(frozen=True)
class Face:
    """A nonempty face, keyed by its maximal (closed) tight constraint set.

    `vertex_ids` indexes into the analysis's vertex list and is None for
    unbounded faces.
    """
    tight_set: frozenset[int]
    dim: int
    vertex_ids: frozenset[int] | None


def _cleared(entries) -> IntVec:
    """Rationals scaled by the lcm of their denominators, as integers."""
    scale = lcm(*(e.denominator for e in entries))
    return tuple(e.numerator * (scale // e.denominator) for e in entries)


def _integer_rows(p: HPolytope) -> list[IntVec]:
    """Row i as the integer vector (a_i, -b_i), denominators cleared."""
    return [_cleared(c.coeffs + (-c.rhs,)) for c in p.constraints]


def _independent(vectors, limit: int | None = None) -> list[int]:
    """Indices of the first maximal linearly independent subsequence of the
    integer vectors (fraction-free elimination), stopping at `limit` picks."""
    echelon: list[tuple[int, list[int]]] = []
    picked: list[int] = []
    for k, v in enumerate(vectors):
        for col, b in echelon:
            if v[col]:
                v = [x * b[col] - y * v[col] for x, y in zip(v, b)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        g = gcd(*v)
        echelon.append((lead, [x // g for x in v]))
        picked.append(k)
        if len(picked) == limit:
            break
    return picked


def _members(bits: int) -> frozenset[int]:
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


def _primitive(v) -> IntVec:
    g = gcd(*v)
    return tuple(x // g for x in v)


def enumerate_vertices(p: HPolytope) -> list[Generator]:
    """The extreme rays of the homogenised cone, by double description.

    Each is a pair (g, zeros): g = (g_1, ..., g_d, t) is a primitive
    integer vector, a vertex g[:d]/t when t > 0 and an extreme recession
    ray g[:d] when t = 0, and bit i of `zeros` is set iff row i is tight
    there (a_i.x = b_i at the vertex, a_i.y = 0 along the ray). Sorted by
    g. The pass starts from the simplicial cone on t >= 0 and the first d
    independent rows, adds the other rows in index order and joins each
    pair of rays on opposite sides of the new row that is adjacent: no
    third ray is tight on every row both are tight on. Raises
    NonPointedError when the lineality space is nonzero and InfeasibleError
    when there is no vertex.
    """
    d, n = p.dim, p.n
    rows = _integer_rows(p)
    basis = _independent([r[:d] for r in rows], d)
    if len(basis) < d:
        raise NonPointedError(
            "row rank below the ambient dimension: nonzero lineality space")
    # The row t >= 0 is bit n; ray k of the start cone is tight on every
    # start row but the k-th.
    start = [tuple(map(Fraction, rows[i])) for i in basis]
    start.append((Fraction(0),) * d + (Fraction(-1),))
    bits = [1 << i for i in basis] + [1 << n]
    everything = sum(bits)
    rays: list[IntVec] = []
    zeros: list[int] = []
    for k, bit in enumerate(bits):
        rhs = tuple(Fraction(-1 if j == k else 0) for j in range(d + 1))
        rays.append(_primitive(_cleared(solve_linear_system(tuple(start), rhs))))
        zeros.append(everything & ~bit)
    chosen = set(basis)
    for i in (i for i in range(n) if i not in chosen):
        h, bit = rows[i], 1 << i
        values = [sum(a * x for a, x in zip(h, r)) for r in rays]
        plus = [k for k, v in enumerate(values) if v > 0]
        minus = [k for k, v in enumerate(values) if v < 0]
        new_rays, new_zeros = [], []
        for a in plus:
            for b in minus:
                common = zeros[a] & zeros[b]
                if common.bit_count() < d - 1:
                    continue
                if any(z & common == common for k, z in enumerate(zeros)
                       if k != a and k != b):
                    continue
                va, vb = values[a], values[b]
                new_rays.append(_primitive([va * y - vb * x
                                            for x, y in zip(rays[a], rays[b])]))
                new_zeros.append(common | bit)
        for k, v in enumerate(values):
            if v <= 0:
                new_rays.append(rays[k])
                new_zeros.append(zeros[k] | bit if v == 0 else zeros[k])
        rays, zeros = new_rays, new_zeros
    if not any(r[-1] for r in rays):
        raise InfeasibleError("polyhedron is empty")
    rows_mask = (1 << n) - 1
    return sorted((r, z & rows_mask) for r, z in zip(rays, zeros))


@dataclass(frozen=True, eq=False)
class Analysis:
    """The enumeration results of one polytope under one work budget.

    Each property is computed on first access and cached on this object
    only; cached values are shared, so callers must not mutate them. The
    integer generators of enumerate_vertices and their row bitsets are
    the source of everything else: boundedness and redundancy are read
    from them directly, and `Fraction` vertices are built only for the
    lattice, the edge graph and the h-vectors. The caps are checked here,
    before any work: n <= 24, d <= 7 by default, or else C(n, d), which
    bounds the number of vertices, and the lattice's candidate tight sets
    must each fit in the explicit max_subsets budget.
    """
    p: HPolytope
    max_subsets: int | None = None

    def __post_init__(self):
        n, d = self.p.n, self.p.dim
        bound = (f"C({n},{d}) = {comb(n, d)} subsystems of {d} rows "
                 "bound the vertex count")
        if self.max_subsets is None:
            if n > DEFAULT_N_CAP or d > DEFAULT_D_CAP:
                raise CapExceededError(
                    f"n={n}, d={d} exceeds the default caps n<={DEFAULT_N_CAP}, "
                    f"d<={DEFAULT_D_CAP} ({bound}); pass max_subsets to override")
        elif comb(n, d) > self.max_subsets:
            raise CapExceededError(f"{bound}, over max_subsets={self.max_subsets}")

    @cached_property
    def generators(self) -> list[Generator]:
        return enumerate_vertices(self.p)

    @cached_property
    def bounded(self) -> bool:
        return all(g[-1] for g, _ in self.generators)

    @cached_property
    def vertices(self) -> list[tuple[Vec, frozenset[int]]]:
        """Each vertex with its tight set, sorted by coordinates."""
        return sorted((tuple(Fraction(x, g[-1]) for x in g[:-1]), _members(zeros))
                      for g, zeros in self.generators if g[-1])

    @cached_property
    def lattice(self) -> list[Face]:
        return face_lattice(self)

    @cached_property
    def redundant(self) -> frozenset[int]:
        return redundant_rows(self)

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
    Vertices and rays come from the analysis, which also applies the caps.
    This is the builder behind Analysis.lattice: each call builds a new
    lattice, so read analyze(p).lattice for the cached one.
    """
    p, d = a.p, a.p.dim
    vertices = a.vertices
    candidates: set[frozenset[int]] = set()
    for _, tight in vertices:
        base = sorted(tight)
        for size in range(min(d, len(base)) + 1):
            for sub in combinations(base, size):
                candidates.add(frozenset(sub))
                if a.max_subsets is not None and len(candidates) > a.max_subsets:
                    raise CapExceededError(
                        f"candidate tight sets exceed max_subsets={a.max_subsets}")

    ray_zeros = [_members(z) for g, z in a.generators if not g[-1]]
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


def _restricted(p: HPolytope) -> tuple[list[int], HPolytope | None]:
    """The first independent columns J of A, and the system in the
    variables J alone, None when A is zero. Ax = A_J z, so the system is
    pointed, and empty iff p is."""
    cols = _independent(list(zip(*(r[:-1] for r in _integer_rows(p)))))
    if not cols:
        return cols, None
    return cols, HPolytope(len(cols), tuple(
        Constraint(tuple(c.coeffs[j] for j in cols), c.rhs) for c in p.constraints))


def _in_cone(v: IntVec, gens: list[IntVec]) -> bool:
    """True iff v is a nonnegative combination of gens.

    That needs v in span(gens). On the columns J that _restricted keeps,
    the span maps one to one, and v is in the cone iff no extreme ray y of
    the pointed polar cone {y : g_J.y <= 0} has v_J.y > 0.
    """
    if len(_independent(list(gens) + [v])) > len(_independent(gens)):
        return False
    cols, polar = _restricted(HPolytope(len(v), tuple(
        Constraint(tuple(map(Fraction, g)), Fraction(0)) for g in gens)))
    return polar is None or all(sum(v[j] * y for j, y in zip(cols, g)) <= 0
                                for g, _ in enumerate_vertices(polar))


def redundant_rows(a: Analysis) -> frozenset[int]:
    """Rows whose removal leaves the polytope unchanged, from incidences.

    This is the builder behind Analysis.redundant. Rows are scanned from
    the highest index down and each redundant one is dropped before the
    next is tested, so among duplicates the lowest index is kept. E, the
    rows tight at every vertex, are the implicit equalities: one of them is
    redundant iff its normal lies in the cone of the other active rows of
    E (Farkas; no row outside E can take part). Any other row is redundant
    iff it is tight at no vertex, or its vertices span less than a facet
    (homogenised rank below dim P), or an active row is tight at exactly
    the same vertices. Requires a nonempty bounded polytope; the empty one
    raises InfeasibleError.
    """
    p = a.p
    unbounded = UnboundedInputError("redundancy scan requires a bounded polytope")
    try:
        generators = a.generators
    except NonPointedError:
        # Nonempty with a lineality space means unbounded; an empty system
        # raises InfeasibleError here.
        _, restricted = _restricted(p)
        if restricted is not None:
            enumerate_vertices(restricted)
        elif any(c.rhs < 0 for c in p.constraints):
            raise InfeasibleError("polyhedron is empty") from None
        raise unbounded from None
    if not a.bounded:
        raise unbounded
    points = [g for g, _ in generators]
    on_row = [0] * p.n
    for k, (_, zeros) in enumerate(generators):
        for i in _members(zeros):
            on_row[i] |= 1 << k
    everywhere = (1 << len(points)) - 1
    dim = len(_independent(points)) - 1
    normals = [r[:-1] for r in _integer_rows(p)]
    active = set(range(p.n))
    for i in reversed(range(p.n)):
        tight = on_row[i]
        others = active - {i}
        if tight == everywhere:
            drop = _in_cone(normals[i], [normals[j] for j in sorted(others)
                                         if on_row[j] == everywhere])
        else:
            drop = (not tight
                    or len(_independent([points[k] for k in _members(tight)], dim)) < dim
                    or any(on_row[j] == tight for j in others))
        if drop:
            active.remove(i)
    return frozenset(set(range(p.n)) - active)


def f_vector(x: HPolytope | Analysis) -> FVector:
    """Counts (f_0, ..., f_d) of k-dimensional faces."""
    return analyze(x).f_vector


def is_simple(x: HPolytope | Analysis) -> bool:
    """True iff every vertex lies on exactly d constraints; bounded input."""
    a = analyze(x)
    if not a.bounded:
        raise UnboundedInputError("simplicity test requires a bounded polytope")
    return all(len(tight) == a.p.dim for _, tight in a.vertices)


def redundant_constraints(x: HPolytope | Analysis) -> frozenset[int]:
    """Indices whose removal leaves the polytope unchanged (see redundant_rows)."""
    return analyze(x).redundant


def facet_adjacency_count(x: HPolytope | Analysis) -> int:
    """Number of unordered facet pairs meeting in a (d-2)-face.

    Requires a bounded nonredundant input, where rows and facets are in
    bijection: the count is the number of pairs {i, j} whose joint face
    closes to dimension d-2. Equals f_{d-2} for simple polytopes.
    """
    a = analyze(x)
    if not a.bounded:
        raise UnboundedInputError("facet adjacency requires a bounded polytope")
    if a.redundant:
        raise RedundantInputError(
            f"rows {sorted(a.redundant)} are redundant; adjacency counts need "
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
