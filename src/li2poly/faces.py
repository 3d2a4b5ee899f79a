"""Exact enumeration of the face lattice of a pointed polyhedron.

This module is the independent oracle the closed-form counts are checked
against, and it reads none of them: the Upper Bound Theorem's counts that
decide whether to run and check its f-vector (face_bound) come from
McMullen's h-vector, computed here (dual_cyclic_h). Vertices and extreme
rays come from one integer double-description pass (Motzkin, Raiffa,
Thompson & Thrall 1953; Fukuda & Prodon 1996) over the homogenised cone
{(x, t) : a_i.x - b_i.t <= 0, t >= 0}, started from the whole space, so
the same pass finds emptiness and a lineality space: its extreme rays
with t > 0 are the vertices, those with t = 0 the extreme recession rays,
and the polyhedron is bounded exactly when it has none of the latter.
Each generator carries the bitset of rows it is tight on, and everything
else is read from those incidences without a linear program; the pass
tests ray adjacency on their transpose (Terzer & Stelling 2008).

Faces are sets of generators: a face is the convex hull of its vertices
plus the cone of its extreme rays, and it is cut out by the rows tight on
all of it; bit k of a face is generator k. Holding, for each row, the
bitset of generators it is tight on, the lattice is closed under AND from
P itself (Kaibel & Pfetsch 2002), and a face's closed tight set is the set
of rows whose bitset contains it.
One pass of n ANDs per face gives the faces, as bitsets, and from the
lattice order their codimensions; it streams them and keeps none. After
the kernel all work is combinatorial: facets are the maximal proper faces
among the rows' bitsets, and the only other arithmetic is the test for
implicit equalities: the kernel run again without the row (see
redundant_rows).

Analysis, which carries the work budget, is the one query handle: its
cached properties and the builders here and in hvector enumerate once.
"""

from __future__ import annotations

from functools import cached_property
from math import comb, gcd, lcm
from operator import mul

from .errors import InputError, NonPointedError
from .model import HPolytope

DEFAULT_MAX_WORK = 5_000_000

FVector = tuple[int, ...]
IntVec = tuple[int, ...]
Generator = tuple[IntVec, int]


def _cleared(entries) -> IntVec:
    """Rationals scaled by the lcm of their denominators, as integers."""
    scale = lcm(*(e.denominator for e in entries))
    return tuple(e.numerator * (scale // e.denominator) for e in entries)


def _integer_rows(p: HPolytope) -> list[IntVec]:
    """Row i as the integer vector (a_i, -b_i), denominators cleared."""
    return [_cleared(c.coeffs + (-c.rhs,)) for c in p.constraints]


def _bits(x: int):
    """The positions of the set bits, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _transpose(bitsets: list[int], n: int) -> list[int]:
    """Bit k of entry i is set iff bit i of bitsets[k] is, for i < n.

    Writes each bitset, masked to n bits, as n binary digits, the last
    bitset first; digit n-1-i of every block is bit i, so the slice from
    there in steps of n reads entry i, bitsets[0]'s bit last. The leading
    block of zeros keeps the slices nonempty when there are no bitsets.
    """
    mask, width = (1 << n) - 1, f"0{n}b"
    digits = "0" * n + "".join([format(z & mask, width) for z in reversed(bitsets)])
    return [int(digits[n - 1 - i::n], 2) for i in range(n)]


def _dot(u: IntVec, v: IntVec) -> int:
    return sum(map(mul, u, v))


def _primitive(v) -> IntVec:
    g = gcd(*v)
    return tuple(x // g for x in v)


def enumerate_vertices(p: HPolytope) -> list[Generator]:
    """The extreme rays of the homogenised cone, by double description.

    Each is a pair (g, zeros): g = (g_1, ..., g_d, t) is a primitive
    integer vector, a vertex g[:d]/t when t > 0 and an extreme recession
    ray g[:d] when t = 0, and bit i of `zeros` is set iff row i is tight
    there (a_i.x = b_i at the vertex, a_i.y = 0 along the ray). Sorted by
    g. The pass starts from R^(d+1), spanned by d+1 unit lines, and adds
    t >= 0, then the rows in index order. A line l that the new row cuts
    becomes a ray on its feasible side, tight on every row seen so far, and
    the other lines and rays are projected along l onto the row's
    hyperplane. Once no line is cut, each adjacent pair of rays on opposite
    sides of the row is joined: no third ray is tight on every row both are
    tight on. That is tested on the transposed zero sets, on[r] = the rays
    tight on row r (Terzer & Stelling, Bioinformatics 24, 2008): adjacent
    rays share at least need = d - 1 - (lines left) rows, bit-sliced
    counters over a + ray's rows pick the - rays that do, and such a pair
    is adjacent iff ANDing on[r] over its common rows, from all rays,
    leaves the pair alone. Raises InputError when no ray has t > 0 (the
    polyhedron is empty), and else NonPointedError when a line is left.
    """
    d, n = p.dim, p.n
    lines = [tuple(int(j == k) for j in range(d + 1)) for k in range(d + 1)]
    rays, zeros, seen = [], [], 0
    for i, h in [(n, (0,) * d + (-1,)), *enumerate(_integer_rows(p))]:
        bit = 1 << i
        line = next((l for l in lines if _dot(h, l)), None)
        if line is not None:
            lines.remove(line)
            hl = _dot(h, line)
            if hl > 0:
                line, hl = tuple(-x for x in line), -hl
            def project(x):  # x - (h.x / h.l) l, scaled by -h.l > 0: on h = 0
                return _primitive([_dot(h, x) * y - hl * v for v, y in zip(x, line)])
            lines = [project(l) for l in lines]
            rays = [project(r) for r in rays] + [line]
            zeros = [z | bit for z in zeros] + [seen]
        else:
            values = [_dot(h, r) for r in rays]
            minus = sum(1 << k for k, v in enumerate(values) if v < 0)
            plus = [k for k, v in enumerate(values) if v > 0 and minus]  # to be joined
            need = max(d - 1 - len(lines), 0)  # rows two adjacent rays share, at least
            on = _transpose(zeros, n + 1) if plus else []  # rays tight on row
            everyone = (1 << len(rays)) - 1
            new_rays, new_zeros = [], []
            for a in plus:
                ge = [minus] + [0] * need  # ge[m]: the - rays sharing >= m rows with a
                for r in _bits(zeros[a]):
                    for m in range(need, 0, -1):
                        ge[m] |= ge[m - 1] & on[r]
                for b in _bits(ge[need]):
                    common, pair, alike = zeros[a] & zeros[b], 1 << a | 1 << b, everyone
                    for r in _bits(common):
                        alike &= on[r]
                        if alike == pair:
                            break
                    if alike != pair:
                        continue
                    va, vb = values[a], values[b]
                    new_rays.append(_primitive([va * y - vb * x for x, y
                                                in zip(rays[a], rays[b])]))
                    new_zeros.append(common | bit)
            for k, v in enumerate(values):
                if v <= 0:
                    new_rays.append(rays[k])
                    new_zeros.append(zeros[k] | bit if v == 0 else zeros[k])
            rays, zeros = new_rays, new_zeros
        seen |= bit
    if not any(r[-1] for r in rays):
        raise InputError("polyhedron is empty")
    if lines:
        raise NonPointedError(
            "row rank below the ambient dimension: nonzero lineality space")
    rows_mask = (1 << n) - 1
    return sorted((r, z & rows_mask) for r, z in zip(rays, zeros))


def dual_cyclic_h(n: int, d: int) -> tuple[int, ...]:
    """h(c*(n, d)): h_i = C(n - d - 1 + j, j) with j = min(i, d - i).

    The h-vector of the dual cyclic polytope, the Upper Bound Theorem's
    maximizer (McMullen 1970): its first half counts the monomials of
    degree i in n - d variables, and Dehn-Sommerville mirrors it.
    """
    if n <= d:
        raise ValueError(f"c*(n, d) needs n > d, got n={n} d={d}")
    return tuple(comb(n - d - 1 + min(i, d - i), min(i, d - i)) for i in range(d + 1))


def f_from_h(h: tuple[int, ...]) -> FVector:
    """f_k = sum_{r>=k} C(r,k) h_r: every k-face has a unique sink."""
    d = len(h) - 1
    return tuple(
        sum(comb(r, k) * h[r] for r in range(k, d + 1)) for k in range(d + 1))


def face_bound(n: int, d: int) -> FVector:
    """f_k(c*(max(n, d) + 1, d)) for k = 0..d: at most that many k-faces.

    A pointed polyhedron with n rows in d variables is projectively a
    polytope with at most n + 1 facets, so by the Upper Bound Theorem
    (McMullen 1970) it has at most f_k(c*(n + 1, d)) k-faces. A j-dimensional
    one spends d - j rows on its affine hull, and d - j pyramids, each with
    f_k(c*(m, j)) <= f_k(c*(m + 1, j + 1)), carry its bound to the same one;
    for n < d, which has lines, the max only keeps c* defined. The counts
    are f_from_h of dual_cyclic_h.
    """
    return f_from_h(dual_cyclic_h(max(n, d) + 1, d))


def check_caps(n: int, d: int, max_work: int = DEFAULT_MAX_WORK) -> None:
    """Raise InputError unless n rows in d variables fit the budget.

    The work is max(n, d) times the sum of face_bound(n, d): the lattice
    ANDs each face with each of the n rows, and the kernel starts from d + 1
    lines of d + 1 entries. A sum of at least the d-simplex's 2^(d+1) - 1
    faces rejects a large d before face_bound's O(d^2) binomials. Needs
    only the sizes, so a caller can check before it builds, and reads no
    closed form that the enumeration is checked against.
    """
    size = max(n, d)
    if d > max_work.bit_length() or size * (2 ** (d + 1) - 1) > max_work:
        raise InputError(f"n={n}, d={d}: the {d}-simplex's 2^{d + 1} - 1 faces "
                         f"alone put the work over max_work={max_work}")
    bound = sum(face_bound(n, d))
    if size * bound > max_work:
        raise InputError(
            f"n={n}, d={d}: the Upper Bound Theorem allows {bound} faces; "
            f"work {size} * {bound} = {size * bound} exceeds max_work={max_work}")


class Analysis:
    """The enumeration results of one polytope under one work budget.

    The constructor runs check_caps before it stores anything, so an
    over-budget input raises InputError and nothing is built; p and
    max_work are not reassigned afterwards, and equality is identity. Each
    property is computed on first access and cached on this object only;
    cached values are shared, so callers must not mutate them. The integer
    generators of enumerate_vertices and their row bitsets are the source
    of everything else, under one numbering: bit k of a face is
    generators[k], and on_row, their transpose, is built once for the
    lattice and the redundancy scan. Every query is read from these
    bitsets, the face lattice's from one pass that keeps no face; a vertex
    stays the integer generator (g, t), the point g/t; no point is built.
    """

    def __init__(self, p: HPolytope, max_work: int = DEFAULT_MAX_WORK):
        check_caps(p.n, p.dim, max_work)
        self.p, self.max_work = p, max_work

    @cached_property
    def generators(self) -> list[Generator]:
        return enumerate_vertices(self.p)

    @cached_property
    def bounded(self) -> bool:
        return all(g[-1] for g, _ in self.generators)

    @cached_property
    def on_row(self) -> list[int]:
        """Bit k of entry i is set iff row i is tight on generators[k]."""
        return _transpose([zeros for _, zeros in self.generators], self.p.n)

    @cached_property
    def simple(self) -> bool:
        """True iff every vertex is tight on exactly d rows; in this vertex
        sense a pointed unbounded input's extreme rays do not count."""
        return all(zeros.bit_count() == self.p.dim
                   for g, zeros in self.generators if g[-1])

    @cached_property
    def redundant(self) -> frozenset[int]:
        return redundant_rows(self)

    @cached_property
    def _lattice_pass(self) -> tuple[FVector, list[int]]:
        """One face_lattice pass: the f-vector (f_k counts codimension top - k,
        top the vertices') and the two-generator faces."""
        counts, pairs = [0] * (self.p.dim + 1), []
        for codim, face in face_lattice(self):
            counts[codim] += 1
            if face.bit_count() == 2:
                pairs.append(face)
        top = max(c for c, count in enumerate(counts) if count)
        return tuple(counts[top::-1]) + (0,) * (self.p.dim - top), pairs

    @cached_property
    def f_vector(self) -> FVector:
        f, bound = self._lattice_pass[0], face_bound(self.p.n, self.p.dim)
        if any(fk > bk for fk, bk in zip(f, bound)):  # the enumerator or the bound is wrong
            raise AssertionError(f"f-vector {f} exceeds the Upper Bound Theorem's {bound}")
        return f

    @cached_property
    def edge_graph(self) -> list[tuple[int, int]]:
        return edge_graph(self)

    @cached_property
    def facet_adjacency_count(self) -> int:
        """Number of unordered facet pairs meeting in a (d-2)-face.

        Requires a bounded, nonredundant, full-dimensional input, where rows
        and facets are in bijection (implicit equalities are tight on every
        face). Each (d-2)-face lies in exactly two facets and is their
        intersection (the diamond property; Ziegler 1995), so the count is
        f_{d-2}; a segment has no nonempty (d-2)-face and counts 0.
        """
        if not self.bounded:
            raise InputError("facet adjacency requires a bounded polytope")
        if self.redundant:
            raise InputError(
                f"rows {sorted(self.redundant)} are redundant; adjacency counts "
                "need a nonredundant system")
        if not self.f_vector[-1]:
            raise InputError(
                f"the polytope is not full-dimensional in R^{self.p.dim}; "
                "adjacency counts need rows in bijection with facets")
        return self.f_vector[self.p.dim - 2] if self.p.dim >= 2 else 0


def face_lattice(a: Analysis):
    """Every nonempty face of a feasible pointed polyhedron, P itself included.

    A face is held as the bitset of generators on it: bit k is the
    analysis's generators[k], a vertex or an extreme ray. Row i's bitset,
    Analysis.on_row[i], holds the generators it is tight on. Every face is P's
    bitset ANDed with some row bitsets, so ANDing each face found with each
    row, from P down, reaches them all; a result without a vertex is empty
    (Kaibel & Pfetsch 2002). One pass visits the faces in decreasing size
    and ANDs each with the n rows once: the results other than the face
    that hold a vertex are faces below it, new or seen. Each facet of a
    face F is F AND some row, and a face that reaches F without having it
    as a facet contains a smaller face that does. So the last face to reach
    F, a smallest one, has F as a facet, and F's codimension is one more
    than that face's; no row coefficient is read. Each size bucket maps its
    faces to their codimensions; an AND only shrinks a bitset, so no later
    face reaches a visited bucket, whose codimensions are then final, and
    it is dropped. Yields (codimension, generators) pairs in visiting
    order, the generators as a bitset; the vertices, at the bottom of the
    graded poset, have the largest codimension, dim P.
    The analysis supplies the generators and their transpose and applies
    the cap. Each call walks the lattice anew, so read Analysis's queries.
    """
    on_row = a.on_row
    on_vertex = sum(1 << k for k, (g, _) in enumerate(a.generators) if g[-1])
    everything = (1 << len(a.generators)) - 1
    by_size = [{} for _ in range(everything.bit_count())] + [{everything: 0}]
    while by_size:
        for face, codim in by_size.pop().items():
            below = codim + 1
            for bits in on_row:
                sub = face & bits
                if sub != face and sub & on_vertex:
                    by_size[sub.bit_count()][sub] = below
            yield codim, face


def redundant_rows(a: Analysis) -> frozenset[int]:
    """Rows whose removal leaves the polytope unchanged.

    This is the builder behind Analysis.redundant. Rows are scanned from
    the highest index down and each redundant one is dropped before the
    next is tested, so the remaining rows always cut out P and, among
    duplicates, the lowest index is kept. E, the rows tight at every
    vertex, are the implicit equalities. One of them is redundant iff the
    kernel run on the other remaining rows returns P's generators again,
    which is the definition: a new vertex or ray means the row was needed.
    That system holds P, so it is nonempty, and it is pointed: a nonzero v
    orthogonal to every other normal, with a_i.v <= 0 after a sign flip,
    would be a recession direction of the bounded P. The rule is Farkas'
    "its normal lies in the cone of the other remaining normals of E": a
    certificate a_i = sum l_j a_j, b_i >= sum l_j b_j, l >= 0 that the
    others imply row i, evaluated at a relative-interior point of P, where
    rows outside E have positive slack, puts no weight outside E.
    Any other row is redundant iff it is tight at no vertex, or its face is
    not a facet, or an active row is tight at exactly the same vertices.
    Every row's bitset is a face and the facets are the maximal proper
    faces, so the face is a facet iff no row's bitset lies strictly between
    it and all vertices. Requires a nonempty bounded polytope; the empty
    one raises InputError.
    """
    p = a.p
    unbounded = InputError("redundancy scan requires a bounded polytope")
    try:
        generators = a.generators
    except NonPointedError:
        # The kernel reports emptiness first: this system is nonempty and
        # has a lineality space.
        raise unbounded from None
    if not a.bounded:
        raise unbounded
    on_row = a.on_row
    everywhere = (1 << len(generators)) - 1
    active = set(range(p.n))
    for i in reversed(range(p.n)):
        tight = on_row[i]
        others = active - {i}
        if tight == everywhere:
            rest = HPolytope(p.dim, tuple(p.constraints[j] for j in sorted(others)))
            # rest numbers its rows anew, so compare the generators, not their bitsets
            drop = [g for g, _ in enumerate_vertices(rest)] == [g for g, _ in generators]
        else:
            drop = (not tight
                    or any(z & tight == tight and z not in (tight, everywhere)
                           for z in on_row)
                    or any(on_row[j] == tight for j in others))
        if drop:
            active.remove(i)
    return frozenset(set(range(p.n)) - active)


def edge_graph(a: Analysis) -> list[tuple[int, int]]:
    """A bounded polytope's edges, its f_1 faces with two generators (all
    vertices), as sorted index pairs. The builder behind Analysis.edge_graph."""
    if not a.bounded:
        raise InputError("edge graph requires a bounded polytope")
    pairs = a._lattice_pass[1]
    if len(pairs) != a.f_vector[1]:
        raise AssertionError("bounded 1-face without exactly two vertices")
    return sorted(tuple(_bits(face)) for face in pairs)
