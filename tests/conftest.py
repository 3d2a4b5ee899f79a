"""Shared instances, random systems and cached heavy computations for the
test suite."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from li2poly import constructors, faces, model
from li2poly.errors import InputError
from li2poly.model import Constraint, HPolytope
from fraction_linalg import dot, rank, rows_of


def unit_square() -> model.HPolytope:
    return model.parse_hrep("""4 2
1 0 1
0 1 1
-1 0 0
0 -1 0""")


def square_pyramid() -> model.HPolytope:
    # Apex (0,0,1) lies on four side facets: not simple.
    return model.parse_hrep("""5 3
0 0 -1 0
1 0 1 1
-1 0 1 1
0 1 1 1
0 -1 1 1""")


def simplex3() -> model.HPolytope:
    return model.parse_hrep("""4 3
-1 0 0 0
0 -1 0 0
0 0 -1 0
1 1 1 1""")


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
SCALES = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)])


@st.composite
def two_variable_systems(draw, equalities: int = 0) -> HPolytope:
    """A feasible pointed system in d <= 4 variables, two per row at most.

    Rows on random variable pairs and single-variable bounds all hold at
    one integer point, with zero slack often enough to make degenerate
    vertices. `equalities` more rows on random pairs pass through the point
    in both directions, which makes most draws lower-dimensional. Some rows
    are duplicated; every row is then scaled by a positive factor and the
    rows are permuted.
    """
    d = draw(st.integers(2, 4))
    point = [Fraction(draw(st.integers(-2, 2))) for _ in range(d)]
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                             unique=True))
        coeffs = [Fraction(0)] * d
        coeffs[i], coeffs[j] = draw(SMALL), draw(SMALL)
        rows.append(coeffs)
    for _ in range(draw(st.integers(0, d + 1))):
        coeffs = [Fraction(0)] * d
        coeffs[draw(st.integers(0, d - 1))] = Fraction(draw(st.sampled_from([-1, 1])))
        rows.append(coeffs)
    constraints = [Constraint(tuple(r), dot(r, point) + draw(st.integers(0, 2)))
                   for r in rows if any(r)]
    for _ in range(equalities):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                             unique=True))
        coeffs = [Fraction(0)] * d
        coeffs[i], coeffs[j] = draw(SMALL), draw(SMALL)
        rhs = dot(coeffs, point)
        constraints += [Constraint(tuple(coeffs), rhs),
                        Constraint(tuple(-a for a in coeffs), -rhs)]
    assume(constraints)
    for _ in range(draw(st.integers(0, 2))):
        constraints.append(draw(st.sampled_from(constraints)))
    scaled = []
    for c in constraints:
        s = draw(SCALES)
        scaled.append(Constraint(tuple(s * a for a in c.coeffs), s * c.rhs))
    p = HPolytope(d, tuple(draw(st.permutations(scaled))))
    assume(rank(rows_of(p)) == d)
    return p


RANDOM = settings(max_examples=20, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.filter_too_much,
                                         HealthCheck.too_slow])


@cache
def cached_instance(family: str, n: int, d: int) -> model.HPolytope:
    return constructors.FAMILIES[family].build(n, d)


@cache
def cached_analysis(family: str, n: int, d: int) -> faces.Analysis:
    """One shared Analysis per instance: its lattice is built at most once."""
    return faces.Analysis(cached_instance(family, n, d))


def cached_f_vector(family: str, n: int, d: int) -> tuple[int, ...]:
    return cached_analysis(family, n, d).f_vector


def collect_lattice(a: faces.Analysis) -> list[tuple[int, int, int]]:
    """The whole face lattice, which the package streams and never keeps, as
    sorted (dim, tight rows, generators) triples: dim = top - codim, where
    top, the largest codimension, is the vertices', and the tight rows, a
    bitset, are the rows whose generator bitset contains the face's."""
    def tight(face: int) -> int:
        return sum(1 << i for i, bits in enumerate(a.on_row) if bits & face == face)

    found = list(faces.face_lattice(a))
    top = max(codim for codim, _ in found)
    return sorted((top - codim, tight(face), face) for codim, face in found)


def outcome(thunk) -> tuple:
    """("ok", value) of thunk(), or ("error", type, message) if it rejects
    its input with an InputError, so two paths compare with ==."""
    try:
        return ("ok", thunk())
    except InputError as exc:
        return ("error", type(exc), str(exc))


def permuted(p: HPolytope, order) -> HPolytope:
    """p with its rows in the given order; family metadata is dropped."""
    return HPolytope(p.dim, tuple(p.constraints[i] for i in order))


@pytest.fixture
def square():
    return unit_square()


@pytest.fixture
def pyramid():
    return square_pyramid()
