"""Differential tests: the transposed kernel and the one-pass lattice against
the pairwise scan and the three-pass lattice they replaced.

dd_reference keeps the replaced forms. Generators, the errors raised and
the lattice's (dim, tight rows, generators) bitsets must be identical on
the acceptance instances, on random two-variable systems, on the inputs
that reach the kernel's edge cases (a row that cuts no line while lines
are left, so that two rays sharing no seen row are joined) and on seeded
row permutations of instances too large for the subset scan.
"""

import random

import pytest
from hypothesis import given

from conftest import (RANDOM, cached_instance, collect_lattice, outcome, permuted,
                      two_variable_systems)
from dd_reference import _incidence, reference_faces, reference_vertices
from li2poly import faces
from li2poly.faces import NonPointedError
from li2poly.model import parse_hrep
from test_double_description import INSTANCES, lifted_systems


def _check_bits(p):
    a = faces.Analysis(p, max_work=10 ** 9)
    assert outcome(lambda: a.generators) == outcome(lambda: reference_vertices(p))
    assert collect_lattice(a) == sorted(
        (dim, sum(1 << i for i in tight), face)
        for face, (dim, tight) in reference_faces(a).items())


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 64, 65])
def test_transpose_matches_the_per_bit_incidence(n):
    rng = random.Random(n)
    cases = [[], [0], [0] * 9, [1 << n - 1] * 3 if n else [], [(1 << n) - 1] * 5,
             [1 << n, (1 << n + 3) - 1]]  # bits at and above n are ignored
    cases += [[rng.getrandbits(n) for _ in range(m)] for m in (1, 7, 8, 9, 100)]
    cases += [[rng.getrandbits(n + 4) for _ in range(m)] for m in (3, 17)]
    for bitsets in cases:
        assert faces._transpose(bitsets, n) == _incidence(n, bitsets), bitsets


@pytest.mark.parametrize("name", INSTANCES)
def test_matches_reference_on_acceptance_instances(name):
    _check_bits(INSTANCES[name]())


@pytest.mark.parametrize("family, n, d", [
    ("dualcyclic", 24, 6), ("dualcyclic", 20, 8), ("pstar", 24, 8),
])
def test_matches_reference_on_permuted_large_instances(family, n, d):
    p = cached_instance(family, n, d)
    order = list(range(p.n))
    random.Random(f"{family}_{n}_{d}").shuffle(order)
    _check_bits(permuted(p, order))


@RANDOM
@given(two_variable_systems())
def test_matches_reference_on_random_systems(p):
    _check_bits(p)


@RANDOM
@given(two_variable_systems(equalities=2))
def test_matches_reference_on_lower_dimensional_systems(p):
    _check_bits(p)


@RANDOM
@given(lifted_systems())
def test_errors_match_reference_on_systems_with_lines(p):
    found = outcome(lambda: faces.enumerate_vertices(p))
    assert found[0] == "error"
    assert found == outcome(lambda: reference_vertices(p))


# After t >= 0 and y <= 1 one line is left and the two rays share no row;
# y >= 0 cuts no line and separates them, with no row to share (need 0).
NO_SHARED_ROW = "0 1 1\n0 -1 0"
EDGE_CASES = {
    "strip": ("2 2\n" + NO_SHARED_ROW, "NonPointedError"),
    "half_strip": ("3 2\n" + NO_SHARED_ROW + "\n-1 0 0", 3),
    "square_rows_y_first": ("4 2\n" + NO_SHARED_ROW + "\n1 0 1\n-1 0 0", 4),
    "lifted_strip": ("2 3\n0 1 0 1\n0 -1 0 0", "NonPointedError"),
    "prism_rows_y_first": ("5 3\n0 1 0 1\n0 -1 0 0\n-1 0 0 0\n0 0 -1 0\n1 0 1 1", 6),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_join_with_lines_left(name):
    text, expected = EDGE_CASES[name]
    p = parse_hrep(text)
    found = outcome(lambda: faces.enumerate_vertices(p))
    if expected == "NonPointedError":
        assert found[:2] == ("error", NonPointedError)
    else:
        assert len(found[1]) == expected
        _check_bits(p)
    assert found == outcome(lambda: reference_vertices(p))
