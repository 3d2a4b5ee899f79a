"""Differential tests: the double-description kernel against the subset scan,
and redundancy from incidences against the linear programs.

faces.enumerate_vertices finds vertices and extreme rays in one integer
double-description pass; scan_oracle solves every d-row subsystem and the
(d-1)-subsets of single vertex tight sets. Both must give the same
vertices, rays and tight sets on the acceptance instances, on row
permutations of each and on random two-variable systems. Where the scan
takes 9-66 s, the vertex count is checked against the closed forms and
the Gale evenness count instead. On systems with a lineality space the
kernel must report emptiness exactly where lp_geometry finds no point.
Analysis.redundant must give the same rows, or the same error, as the LP
scan of lp_geometry.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (RANDOM, SMALL, outcome, permuted, square_pyramid,
                      two_variable_systems, unit_square)
from li2poly import constructors, faces, formulas
from li2poly.faces import NonPointedError
from li2poly.model import Constraint, HPolytope, parse_hrep
from fraction_linalg import vertex_points
from gale_evenness import gale_evenness_facet_count
from lp_geometry import feasible_point
from lp_geometry import redundant_constraints as lp_redundant_constraints
from scan_oracle import recession_ray_candidates, scan_vertices

INSTANCES = {
    "pstar_8_4": lambda: constructors.pstar(8, 4),
    "pstar_12_6": lambda: constructors.pstar(12, 6),
    "pstar_13_7": lambda: constructors.pstar(13, 7),
    "pstar_7_3": lambda: constructors.pstar(7, 3),
    "dual_cyclic_8_4": lambda: constructors.dual_cyclic(8, 4),
    "dual_cyclic_10_4": lambda: constructors.dual_cyclic(10, 4),
    "dual_cyclic_9_5": lambda: constructors.dual_cyclic(9, 5),
    "prism3_8": lambda: constructors.prism3(8),
    "square_pyramid": square_pyramid,
    "pyramid_cone": lambda: HPolytope(3, square_pyramid().constraints[1:]),
    "segment": lambda: parse_hrep("4 2\n1 0 1\n-1 0 -1\n0 1 1\n0 -1 0"),
}


def _kernel(p: HPolytope):
    """(vertices, rays) from the kernel: vertices with tight sets, sorted by
    coordinates as the scan gives them, rays scaled like
    recession_ray_candidates with zero sets."""
    a = faces.Analysis(p, max_work=10 ** 9)
    rows = lambda zeros: frozenset(i for i in range(p.n) if zeros >> i & 1)
    rays = []
    for g, zeros in a.generators:
        if not g[-1]:
            lead = abs(next(x for x in g if x))
            rays.append((tuple(Fraction(x, lead) for x in g[:-1]), rows(zeros)))
    return (sorted((x, rows(tight)) for x, tight in vertex_points(a.generators)),
            sorted(rays))


def _scan(p: HPolytope):
    vertices = scan_vertices(p)
    rays = [(y, frozenset(i for i, c in enumerate(p.constraints)
                          if sum(a * b for a, b in zip(c.coeffs, y)) == 0))
            for y in recession_ray_candidates(p, vertices)]
    return vertices, rays


def _relabel(result, order):
    """Map row indices of a run on permuted(p, order) back to p's rows."""
    vertices, rays = result
    back = lambda tight: frozenset(order[i] for i in tight)
    return ([(x, back(t)) for x, t in vertices], [(y, back(z)) for y, z in rays])


@pytest.mark.parametrize("name", INSTANCES)
def test_kernel_matches_subset_scan(name):
    p = INSTANCES[name]()
    expected = _scan(p)
    assert _kernel(p) == expected
    rng = random.Random(name)
    for _ in range(3):
        order = list(range(p.n))
        rng.shuffle(order)
        assert _relabel(_kernel(permuted(p, order)), order) == expected


@RANDOM
@given(two_variable_systems())
def test_kernel_matches_subset_scan_on_random_systems(p):
    assert _kernel(p) == _scan(p)


@RANDOM
@given(two_variable_systems(equalities=2))
def test_kernel_matches_subset_scan_on_lower_dimensional_systems(p):
    assert _kernel(p) == _scan(p)


@pytest.mark.parametrize("family, n, d", [
    ("pstar", 18, 6), ("pstar", 24, 6), ("dualcyclic", 16, 6), ("dualcyclic", 24, 6),
])
def test_kernel_vertex_count_matches_closed_forms(family, n, d):
    a = faces.Analysis(constructors.FAMILIES[family].build(n, d))
    assert a.bounded
    f0 = len(a.generators)
    if family == "pstar":
        assert f0 == formulas.fk_pstar(n, d, 0)
    else:
        assert f0 == formulas.fk_dual_cyclic(n, d, 0)
        assert f0 == gale_evenness_facet_count(n, d)


@st.composite
def lifted_systems(draw) -> HPolytope:
    """A two_variable_systems draw with one free variable inserted, so the
    system has a lineality space; some draws also get a pair of rows on a
    random variable pair that no point satisfies."""
    p = draw(two_variable_systems())
    d, k = p.dim + 1, draw(st.integers(0, p.dim))
    rows = [Constraint(c.coeffs[:k] + (Fraction(0),) + c.coeffs[k:], c.rhs)
            for c in p.constraints]
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                             unique=True))
        coeffs = [Fraction(0)] * d
        coeffs[i], coeffs[j] = draw(SMALL), draw(SMALL)
        rhs = Fraction(draw(st.integers(-2, 2)))
        rows += [Constraint(tuple(coeffs), rhs),
                 Constraint(tuple(-a for a in coeffs), -rhs - 1)]
    return HPolytope(d, tuple(draw(st.permutations(rows))))


@RANDOM
@given(lifted_systems())
def test_kernel_reports_emptiness_before_lineality(p):
    if feasible_point(p) is None:
        error, message = ValueError, "^polyhedron is empty$"
    else:
        error, message = NonPointedError, ("^row rank below the ambient dimension: "
                                           "nonzero lineality space$")
    with pytest.raises(error, match=message):
        faces.enumerate_vertices(p)


def _check_redundancy(p: HPolytope) -> None:
    assert outcome(lambda: set(faces.Analysis(p).redundant)) == \
        outcome(lambda: set(lp_redundant_constraints(p)))


def _with_rows(p: HPolytope, *rows: str) -> HPolytope:
    extra = tuple(Constraint(tuple(map(Fraction, r.split()[:-1])),
                             Fraction(r.split()[-1])) for r in rows)
    return HPolytope(p.dim, p.constraints + extra)


def _pinned_point(d: int, m: int) -> HPolytope:
    """The origin cut out by m rows tight there: m-1 random normals with a
    negative coordinate sum, then (1, ..., 1). Every row is an implicit
    equality, and the kernel reruns without the first rows are not trivial."""
    rng = random.Random(3)
    rows = []
    while len(rows) < m - 1:
        r = [rng.randint(-3, 3) for _ in range(d)]
        if sum(r) < 0:
            rows.append(" ".join(map(str, r + [0])))
    rows.append(" ".join(["1"] * d + ["0"]))
    return parse_hrep(f"{m} {d}\n" + "\n".join(rows))


SQUARE = unit_square()
REDUNDANCY = {
    "pstar_8_4": lambda: constructors.pstar(8, 4),
    "pstar_12_6": lambda: constructors.pstar(12, 6),
    "dual_cyclic_8_4": lambda: constructors.dual_cyclic(8, 4),
    "dual_cyclic_9_5": lambda: constructors.dual_cyclic(9, 5),
    "dual_cyclic_10_4": lambda: constructors.dual_cyclic(10, 4),
    "prism3_8": lambda: constructors.prism3(8),
    "pentagon": lambda: constructors.convex_polygon(5),
    "square_pyramid": square_pyramid,
    "duplicate_rows": lambda: _with_rows(SQUARE, "1 0 1", "0 -1 0", "1 0 1"),
    "scaled_rows": lambda: _with_rows(SQUARE, "3 0 3", "0 1/2 1/2"),
    "slack_rows": lambda: _with_rows(SQUARE, "1 0 5", "1 1 2", "1 1 3"),
    "pyramid_apex_rows": lambda: _with_rows(square_pyramid(), "1 1 1 1", "0 0 1 1"),
    "zero_rows": lambda: _with_rows(SQUARE, "0 0 0", "0 0 4"),
    "segment": INSTANCES["segment"],
    "flat_square": lambda: parse_hrep("8 3\n1 0 0 1\n-1 0 0 0\n0 1 0 1\n0 -1 0 0\n"
                                      "0 0 1 0\n0 0 -1 0\n0 0 2 0\n1 1 0 5"),
    "point": lambda: parse_hrep("3 2\n1 0 0\n0 1 0\n-1 -1 0"),
    "point_with_slack": lambda: parse_hrep("5 2\n1 0 0\n0 1 0\n-1 0 0\n0 -1 0\n1 1 1"),
    "pinned_point": lambda: _pinned_point(5, 16),
    "segment_in_3d": lambda: parse_hrep("6 3\n0 0 1 0\n0 0 -1 0\n0 1 0 0\n"
                                        "0 -1 0 0\n1 0 0 1\n-1 0 0 0"),
    # Row 5 is the sum of rows 3 and 4, not a multiple of one row.
    "segment_in_3d_summed_row": lambda: parse_hrep("6 3\n1 0 0 1\n-1 0 0 0\n0 1 0 0\n"
                                                   "0 0 1 0\n0 -1 -1 0\n0 -1 0 0"),
    "point_with_tight_sum_row": lambda: parse_hrep("5 2\n1 0 0\n-1 0 0\n0 1 0\n"
                                                   "0 -1 0\n1 1 0"),
    "point_in_1d": lambda: parse_hrep("3 1\n1 0\n-1 0\n2 0"),
    "unbounded": lambda: constructors.pstar(7, 3),
    "non_pointed": lambda: parse_hrep("1 2\n-1 0 0"),
    "empty": lambda: parse_hrep("2 1\n1 -2\n-1 1"),
    "empty_non_pointed": lambda: parse_hrep("2 2\n0 1 -1\n0 -1 0"),
}


@pytest.mark.parametrize("name", REDUNDANCY)
def test_redundancy_matches_lp_scan(name):
    _check_redundancy(REDUNDANCY[name]())


@RANDOM
@given(two_variable_systems())
def test_redundancy_matches_lp_scan_on_random_systems(p):
    _check_redundancy(p)


@RANDOM
@given(two_variable_systems(equalities=2))
def test_redundancy_matches_lp_scan_on_lower_dimensional_systems(p):
    _check_redundancy(p)
