"""The Fraction reference linear algebra of the test oracles: solving, rank,
affine rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_linalg import (affine_rank, mat, matvec, rank, solve_affine,
                             solve_linear_system, vec)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


def test_identity_system():
    m = mat([[1, 0], [0, 1]])
    assert solve_linear_system(m, vec([3, 5])) == vec([3, 5])


def test_singular_system_is_absent():
    m = mat([[1, 1], [1, 1]])
    assert solve_linear_system(m, vec([0, 1])) is None


def test_diagonal_system():
    m = mat([[2, 0], [0, 4]])
    assert solve_linear_system(m, vec([1, 1])) == (Fraction(1, 2), Fraction(1, 4))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        solve_linear_system(mat([[1, 2]]), vec([1]))


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n))))
def test_solution_reproduces_rhs_exactly(case):
    rows, rhs = case
    m = mat(rows)
    x = solve_linear_system(m, vec(rhs))
    if x is not None:
        assert matvec(m, x) == vec(rhs)
    else:
        assert rank(m) < len(rows)


def test_affine_rank_single_point():
    assert affine_rank([vec([0, 0])]) == 0


def test_affine_rank_triangle():
    assert affine_rank([vec([0, 0]), vec([1, 0]), vec([0, 1])]) == 2


def test_affine_rank_collinear():
    pts = [vec([0, 0, 0]), vec([1, 1, 0]), vec([2, 2, 0])]
    assert affine_rank(pts) == 1


def test_affine_rank_empty_rejected():
    with pytest.raises(ValueError):
        affine_rank([])


@settings(max_examples=40)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5),
       st.lists(rationals, min_size=3, max_size=3),
       st.randoms(use_true_random=False))
def test_affine_rank_invariant_under_permutation_and_translation(pts, shift, rng):
    points = [vec(p) for p in pts]
    base = affine_rank(points)
    shuffled = list(points)
    rng.shuffle(shuffled)
    assert affine_rank(shuffled) == base
    translated = [vec([a + b for a, b in zip(p, shift)]) for p in points]
    assert affine_rank(translated) == base


def test_solve_affine_whole_space():
    x0, basis = solve_affine([], [], 3)
    assert x0 == vec([0, 0, 0])
    assert len(basis) == 3


def test_solve_affine_inconsistent():
    rows = [vec([1, 0]), vec([1, 0])]
    assert solve_affine(rows, [Fraction(0), Fraction(1)], 2) is None


def test_solve_affine_line():
    x0, basis = solve_affine([vec([1, 1])], [Fraction(2)], 2)
    assert x0[0] + x0[1] == 2
    assert len(basis) == 1
    direction = basis[0]
    assert direction[0] + direction[1] == 0
