"""Closed-form counts and bounds against frozen, independently derived values."""

from fractions import Fraction
from math import comb

import pytest

from leading_terms import leading_terms
from li2poly import formulas
from li2poly.formulas import (E_UPPER, binom, dual_cyclic_f_vector,
                              fk_dual_cyclic, fk_pstar, gale_evenness_facet_count,
                              lemma41_bound, pstar_f_vector, ratio_report,
                              thm42_bound, thm42_bound_literal, two_variable_deficit)

F = Fraction


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 4) == 0
    assert binom(-1, 0) == 0


def test_fk_dual_cyclic_examples():
    assert fk_dual_cyclic(8, 4, 0) == 20
    assert fk_dual_cyclic(8, 4, 1) == 40
    for n, d in ((7, 3), (9, 4), (11, 6)):
        assert fk_dual_cyclic(n, d, d) == 1
        assert fk_dual_cyclic(n, d, d - 1) == n


def test_fk_dual_cyclic_vertex_formula_agreement():
    for n in range(4, 15):
        for d in range(2, min(n, 8)):
            up, down = -(-d // 2), d // 2
            expect = binom(n - up, n - d) + binom(n - down - 1, n - d)
            assert fk_dual_cyclic(n, d, 0) == expect


def test_fk_dual_cyclic_simplification_range():
    # The two-sum evaluator asserts the C(n, d-k) collapse internally;
    # exercise the full sweep so the assertion actually runs.
    for n in range(4, 15):
        for d in range(2, min(n, 8)):
            for k in range(-(-d // 2), d + 1):
                assert fk_dual_cyclic(n, d, k) == binom(n, d - k)


def test_fk_dual_cyclic_range_errors():
    with pytest.raises(ValueError, match=r"^c\*\(n, d\) needs n > d, got n=6 d=6$"):
        fk_dual_cyclic(6, 6, 0)
    with pytest.raises(ValueError, match=r"^need 0 <= k <= d, got d=4 k=5$"):
        fk_dual_cyclic(8, 4, 5)


def test_fk_pstar_frozen_values():
    assert fk_pstar(12, 6, 4) == 60
    assert fk_pstar(12, 6, 0) == 64
    assert fk_pstar(12, 6, 1) == 192
    assert fk_pstar(13, 7, 1) == 256
    assert pstar_f_vector(12, 6) == (64, 192, 240, 160, 60, 12, 1)
    assert pstar_f_vector(13, 7) == (64, 256, 432, 400, 220, 72, 13, 1)


def test_fk_pstar_divisibility():
    with pytest.raises(ValueError, match=r"^floor\(d/2\) = 3 must be a divisor "
                                         r"of n = 10 when d is even$"):
        fk_pstar(10, 6, 0)
    with pytest.raises(ValueError, match=r"^floor\(d/2\) = 3 must be a divisor "
                                         r"of n-1 = 11 when d is odd$"):
        fk_pstar(12, 7, 0)


def test_fk_pstar_euler_relation_even_grid():
    for d in (2, 4, 6):
        for n in range(3 * (d // 2), 25, d // 2):
            f = pstar_f_vector(n, d)
            assert sum((-1) ** k * f[k] for k in range(d)) == 1 - (-1) ** d


def test_fk_pstar_odd_counts_balance_alternating_sum():
    # Pointed unbounded polyhedra have a vanishing alternating sum.
    for d in (3, 5, 7):
        for n in range(3 * (d // 2) + 1, 25, d // 2):
            f = pstar_f_vector(n, d)
            assert sum((-1) ** k * f[k] for k in range(d + 1)) == 0


def test_leading_terms_examples():
    assert leading_terms(12, 6, 2)[0] == 192
    assert leading_terms(12, 6, 5)[0] == 12
    assert leading_terms(10, 4, 3)[1] == 6  # C(n-4, 1)


def test_leading_terms_match_dominant_summand_even():
    # For k <= d/2 the table entry is the r = d/2 - k summand of the sum.
    n, d = 12, 6
    for k in range(0, d // 2 + 1):
        lead, _ = leading_terms(n, d, k)
        half, m = d // 2, n // (d // 2)
        r = half - k
        assert lead == binom(half, r) * binom(half - r, d - k - 2 * r) * m ** (d - k - r)


def test_leading_terms_above_half_dominant_summand():
    # Above d/2 the table entry is the r = 0 summand of the sum (the one
    # carrying the highest power of n); at k = d-1 it is the whole count.
    for n, d in ((12, 6), (16, 4)):
        half, m = d // 2, n // (d // 2)
        for k in range(d // 2 + 1, d + 1):
            lead_p, _ = leading_terms(n, d, k)
            assert lead_p == binom(half, d - k) * m ** (d - k)
            assert lead_p <= fk_pstar(n, d, k)
        assert leading_terms(n, d, d - 1)[0] == fk_pstar(n, d, d - 1) == n


def test_leading_terms_are_asymptotic_to_the_exact_counts():
    # At n = 10^4 floor(d/2) (+1 for odd d) every entry is within 1% of the
    # count it leads, on both sides of k = d/2 and for both parities.
    for d in range(3, 10):
        n = 10 ** 4 * (d // 2) + d % 2
        for k in range(d + 1):
            lead_p, lead_c = leading_terms(n, d, k)
            assert abs(fk_pstar(n, d, k) / lead_p - 1) < Fraction(1, 100), (d, k)
            assert abs(fk_dual_cyclic(n, d, k) / lead_c - 1) < Fraction(1, 100), (d, k)


def test_lemma41_bound_values():
    assert lemma41_bound(12, 12, 6) == F(368, 5)
    assert lemma41_bound(8, 6, 4) == F(63, 2)
    assert lemma41_bound(9, 0, 4) == binom(9, 2)


def test_lemma41_bound_needs_d4():
    with pytest.raises(ValueError):
        lemma41_bound(8, 8, 3)


def test_thm42_bound_values():
    # (12,12,6,4): the deficit is negative, so the bound is vacuously weak.
    d_12 = two_variable_deficit(12, 6)
    assert d_12 == F(66, 15) - 12
    assert d_12 < 0
    assert thm42_bound(12, 12, 6, 4) == fk_dual_cyclic(12, 6, 4) - binom(4, 4) * d_12
    assert thm42_bound(12, 12, 6, 4) > fk_dual_cyclic(12, 6, 4)

    # (60,60,4,2): positive deficit; C(d-2,k) = C(2,2) = 1.
    d_60 = two_variable_deficit(60, 4)
    assert d_60 == 235
    assert thm42_bound(60, 60, 4, 2) == fk_dual_cyclic(60, 4, 2) - 235

    assert thm42_bound(10, 0, 4, 1) == fk_dual_cyclic(10, 4, 1)


def test_thm42_literal_reading_differs():
    assert thm42_bound_literal(60, 60, 4, 2) == fk_dual_cyclic(60, 4, 2) - (295 + 60)
    assert thm42_bound_literal(60, 60, 4, 2) < thm42_bound(60, 60, 4, 2)


def test_bounds_match_the_displayed_forms_on_a_grid():
    # The package writes the deficit D = C(n',2)/C(d,2) - n' once and
    # derives both bounds and their vacuity from it; the paper displays
    # each one written out, as here (math.comb is 0 for n' < 2, as binom).
    for d in range(4, 9):
        for n in range(31):
            for n_prime in range(n + 1):
                share = F(comb(n_prime, 2), comb(d, 2))
                ridge = lemma41_bound(n, n_prime, d)
                assert ridge == comb(n, 2) - share + n_prime
                assert (ridge >= comb(n, 2)) == (two_variable_deficit(n_prime, d) <= 0)
                for k in range(d - 1) if n > d else ():
                    assert thm42_bound_literal(n, n_prime, d, k) == (
                        fk_dual_cyclic(n, d, k) - comb(d - 2, k) * (share + n_prime))


def test_thm42_range_errors():
    with pytest.raises(ValueError):
        thm42_bound(10, 10, 3, 1)
    with pytest.raises(ValueError):
        thm42_bound(10, 10, 4, 3)


@pytest.mark.parametrize("args, message", [
    ((10, 10, 3, 1), "assumes d >= 4"),
    ((10, 10, 4, 3), "applies for k <= d-2"),
    ((10, 20, 4, 0), r"need 0 <= n_prime <= n"),
    ((10, -3, 4, 0), r"need 0 <= n_prime <= n"),
])
def test_both_thm42_readings_check_the_same_range(args, message):
    for bound in (thm42_bound, thm42_bound_literal):
        with pytest.raises(ValueError, match=message):
            bound(*args)


@pytest.mark.parametrize("d", [0, 1, -2])
def test_leading_terms_reject_d_below_2(d):
    with pytest.raises(ValueError, match="d >= 2"):
        leading_terms(10, d, 0)


def test_ratio_examples():
    rows = ratio_report(4, [40], 0)
    assert rows[0]["ratio"] == F(37, 20)
    assert rows[0]["f_dual_cyclic"] == 740 and rows[0]["f_pstar"] == 400
    assert rows[0]["threshold"] == E_UPPER ** 2
    assert rows[0]["within_envelope"]


def test_ratio_sweep_monotone_below_threshold():
    rows = ratio_report(4, range(8, 41, 4), 0)
    ratios = [r["ratio"] for r in rows]
    assert ratios == sorted(ratios)
    assert all(r["ratio"] < r["threshold"] for r in rows)


def test_ratio_d2_trivial():
    for row in ratio_report(2, [5, 9, 14], 0):
        assert row["ratio"] == 1


def test_ratio_divisibility_propagates():
    with pytest.raises(ValueError, match=r"^floor\(d/2\) = 3 must be a divisor "
                                         r"of n = 10 when d is even$"):
        ratio_report(6, [10], 0)


def test_gale_counts():
    assert gale_evenness_facet_count(8, 4) == 20
    assert gale_evenness_facet_count(6, 3) == 8
    for d in range(2, 8):
        assert gale_evenness_facet_count(d + 1, d) == d + 1


def test_gale_matches_vertex_count_on_grid():
    for n in range(4, 17):
        for d in range(2, min(n, 8)):
            assert gale_evenness_facet_count(n, d) == fk_dual_cyclic(n, d, 0)


def _valid_even_grid(max_n=24):
    for d in (4, 6):
        for n in range(3 * (d // 2), max_n + 1, d // 2):
            yield n, d


def test_h_comparison_on_grid():
    # The componentwise h comparison holds on the whole grid, with equality
    # exactly at the triangle-factor instances.
    from li2poly.hvector import h_from_f
    for n, d in _valid_even_grid():
        h_p = h_from_f(pstar_f_vector(n, d))
        h_c = h_from_f(dual_cyclic_f_vector(n, d))
        assert all(a <= b for a, b in zip(h_p, h_c)), (n, d)


def test_face_count_separation_on_grid_with_known_equalities():
    # Strict separation f_k(P*) < f_k(c*) holds on the valid grid except at
    # the triangle-factor instances, where equality is attained (verified
    # against brute-force enumeration in the acceptance suite notes):
    # (6,4) at k = 0,1,2 and (9,6) at k = 4.
    equal_points = {(6, 4, 0), (6, 4, 1), (6, 4, 2), (9, 6, 4)}
    for n, d in _valid_even_grid():
        for k in range(d - 1):
            p, c = fk_pstar(n, d, k), fk_dual_cyclic(n, d, k)
            if (n, d, k) in equal_points:
                assert p == c, (n, d, k)
            else:
                assert p < c, (n, d, k)


def test_bound_reports():
    ridge = formulas.lemma41_bound(12, 12, 6)
    assert ridge == F(368, 5)
    assert 60 <= ridge  # pstar(12,6) has 60 ridges
    assert ridge >= formulas.binom(12, 2)  # vacuous: 368/5 exceeds C(12,2) = 66

    assert formulas.lemma41_bound(14, 14, 4) < formulas.binom(14, 2)

    observed = (64, 192, 240, 160, 60)
    assert all(f <= formulas.thm42_bound(12, 12, 6, k) for k, f in enumerate(observed))
    with pytest.raises(ValueError, match="applies for k <= d-2"):
        formulas.thm42_bound(12, 12, 6, len(observed))
    assert formulas.two_variable_deficit(12, 6) <= 0  # vacuous: negative at n'=12

    assert formulas.thm42_bound(60, 60, 4, 2) == 1535
