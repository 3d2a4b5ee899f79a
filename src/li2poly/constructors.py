"""Constructors for the concrete polytope families under study.

All data is exact rational. Regular polygons are impossible over the
rationals, but every count we verify is combinatorial, so any convex
polygon works; we fix one reproducible recipe built from rational points
on the unit circle. The paired-polygon product family and the prism carry
at most two variables per inequality; the dual cyclic polytope is the
dense maximizer they are compared against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import formulas
from .model import Constraint, FamilyTag, HPolytope, Vec

ZERO = Fraction(0)
ONE = Fraction(1)


def polygon_vertices(m: int) -> list[Vec]:
    """m rational points on the unit circle in counterclockwise order.

    Uses the parametrization p(t) = ((1-t^2)/(1+t^2), 2t/(1+t^2)) at the
    m-1 integer parameters t = -floor((m-1)/2), ..., ceil((m-1)/2)-1,
    followed by the point (-1, 0). Distinct circle points are in strictly
    convex position, and listing them by increasing angle keeps the order
    counterclockwise.
    """
    if m < 3:
        raise ValueError(f"m = {m}: a polygon needs at least 3 vertices")
    points: list[Vec] = []
    for t in range(-((m - 1) // 2), m // 2):
        den = Fraction(1 + t * t)
        points.append((Fraction(1 - t * t) / den, Fraction(2 * t) / den))
    points.append((-ONE, ZERO))
    return points


def _polygon_edges(m: int) -> list[tuple[Vec, Fraction]]:
    """Outward edge rows (a, b), a.x <= b, from vertex j to j+1 of the m-gon.

    Checked in O(m): a strict left turn at every vertex and exactly one
    vertex below both neighbours in (x, y) order. A locally convex closed
    polygon winds once per such vertex, so this means convex and ccw.
    """
    vertices = polygon_vertices(m)
    edges, minima = [], 0
    for j, u in enumerate(vertices):
        v, w = vertices[(j + 1) % m], vertices[(j + 2) % m]
        a = (v[1] - u[1], u[0] - v[0])  # right normal of u -> v, outward for ccw
        b = a[0] * u[0] + a[1] * u[1]
        if a[0] * w[0] + a[1] * w[1] >= b:
            raise AssertionError("polygon has no strict left turn at a vertex")
        minima += u > v < w  # v below both neighbours in (x, y) order
        edges.append((a, b))
    if minima != 1:
        raise AssertionError(f"polygon winds {minima} times, not once")
    return edges


def convex_polygon(m: int) -> HPolytope:
    """A convex m-gon in the plane: m constraints, m vertices, origin inside."""
    constraints = tuple(Constraint(a, b) for a, b in _polygon_edges(m))
    return HPolytope(2, constraints, FamilyTag("polygon", m, 2))


def pstar(n: int, d: int) -> HPolytope:
    """The paired-polygon construction: d/2 disjoint polygons for even d.

    Even d places the edge rows of one (n/(d/2))-gon, built once, on each
    coordinate pair, giving a bounded simple d-polytope whose every row
    touches two variables. Odd d applies the even construction to the first
    d-1 coordinates with n-1 rows and adds the single half-space x_d >= 0;
    the result is a pointed but unbounded polyhedron, kept verbatim rather
    than capped. With m the polygon size, row i*m + j is edge j (vertex j
    to j+1) of polygon i, on x_{2i+1} and x_{2i+2}; for odd d the last row
    is x_d >= 0.
    """
    edges = _polygon_edges(formulas.pstar_polygon_size(n, d))
    rows = [Constraint((ZERO,) * (2 * i) + a + (ZERO,) * (d - 2 * i - 2), b)
            for i in range(d // 2) for a, b in edges]
    if d % 2:
        last = [ZERO] * d
        last[d - 1] = -ONE
        rows.append(Constraint(tuple(last), ZERO))
    return HPolytope(d, tuple(rows), FamilyTag("pstar", n, d))


def dual_cyclic(n: int, d: int) -> HPolytope:
    """A geometric realization of the dual cyclic polytope c*(n, d).

    Takes the n moment-curve points m(t) = (t, t^2, ..., t^d) at t = 1..n,
    recenters them at their centroid so the origin is interior, and emits
    the polar-style rows (m(t_i) - centroid).y <= 1. Integer parameters are
    generic on the moment curve, so the result is simple, bounded, and
    nonredundant with the extremal face counts.
    """
    if n <= d:
        raise ValueError(f"need more constraints than dimensions, got n={n} d={d}")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    points = [tuple(Fraction(t ** j) for j in range(1, d + 1)) for t in range(1, n + 1)]
    centroid = tuple(sum(p[j] for p in points) / n for j in range(d))
    rows = []
    for p in points:
        coeffs = tuple(p[j] - centroid[j] for j in range(d))
        rows.append(Constraint(coeffs, ONE))
    return HPolytope(d, tuple(rows), FamilyTag("dualcyclic", n, d))


def prism3(n: int) -> HPolytope:
    """A 3-polytope with n rows attaining the maximal d=3 face counts.

    An (n-2)-gon on the first two coordinates, extruded by 0 <= x_3 <= 1.
    Two variables per inequality, f_0 = 2n-4 and f_1 = 3n-6.
    """
    if n < 5:
        raise ValueError(f"n = {n}: the prism needs at least 5 constraints")
    rows = []
    for a, b in _polygon_edges(n - 2):
        rows.append(Constraint((a[0], a[1], ZERO), b))
    rows.append(Constraint((ZERO, ZERO, -ONE), ZERO))
    rows.append(Constraint((ZERO, ZERO, ONE), ONE))
    return HPolytope(3, tuple(rows), FamilyTag("prism3", n, 3))


class Family(NamedTuple):
    """A constructor family: builder and closed-form f-vector, both of (n, d)."""
    build: Callable[[int, int], HPolytope]
    f_vector: Callable[[int, int], tuple[int, ...]]
    fixed_dim: int | None = None


# The builders call the constructors by name, so a wrapper installed on a
# module attribute (a tracer, a test double) sees every call.
FAMILIES = {
    "pstar": Family(lambda n, d: pstar(n, d), formulas.pstar_f_vector),
    "dualcyclic": Family(lambda n, d: dual_cyclic(n, d),
                         formulas.dual_cyclic_f_vector),
    "prism3": Family(lambda n, d: prism3(n),
                     lambda n, d: formulas.prism3_f_vector(n), fixed_dim=3),
    "polygon": Family(lambda n, d: convex_polygon(n),
                      lambda n, d: formulas.polygon_f_vector(n), fixed_dim=2),
}


def from_family(tag: FamilyTag) -> HPolytope:
    """Rebuild a constructor instance from its family tag."""
    if tag.name not in FAMILIES:
        raise ValueError(f"unknown family {tag.name!r}")
    return FAMILIES[tag.name].build(tag.n, tag.d)
