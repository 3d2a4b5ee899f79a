"""Closed-form face counts, separation bounds, and combinatorial oracles.

Everything here is pure arithmetic on exact rationals and integers.
Binomials with out-of-range arguments evaluate to zero, which makes every
sum below self-truncating at exactly the intended ranges. Bounds stay
exact rationals and are never floored; comparisons against integer counts
are rational comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# Rational over-approximation of e, documented threshold base: e < 2.7183.
E_UPPER = Fraction(27183, 10000)
# Multiplier on the envelope that ratio_report's pass flag allows.
ENVELOPE_SLACK = 8


def binom(a: int, b: int) -> int:
    """C(a, b) with the zero convention outside 0 <= b <= a."""
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


def fk_dual_cyclic(n: int, d: int, k: int) -> int:
    """Face count f_k of the dual cyclic polytope c*(n, d).

    Evaluates the two-sum maximal-count formula. For k >= ceil(d/2) the
    result provably collapses to C(n, d-k) (any d-k rows meet in a k-face),
    which is asserted as an internal consistency check.
    """
    if not (0 <= k <= d):
        raise ValueError(f"need 0 <= k <= d, got d={d} k={k}")
    if n <= d:
        raise ValueError(f"c*(n, d) needs n > d, got n={n} d={d}")
    half_up = -(-d // 2)
    total = 0
    for r in range(min(k, half_up), half_up):
        total += binom(n - d - 1 + r, r) * binom(r, k)
    for r in range(max(k, half_up), d + 1):
        total += binom(n - r - 1, d - r) * binom(r, k)
    if k >= half_up:
        if total != binom(n, d - k):
            raise AssertionError("two-sum formula disagrees with C(n, d-k)")
    return total


def dual_cyclic_f_vector(n: int, d: int) -> tuple[int, ...]:
    return tuple(fk_dual_cyclic(n, d, k) for k in range(d + 1))


def pstar_polygon_size(n: int, d: int) -> int:
    """Sides of each polygon factor of P*(n, d), after checking divisibility.

    Even d needs d/2 to divide n, odd d needs floor(d/2) to divide n-1 (the
    last row is the half-space x_d >= 0), and each factor needs 3 sides.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    half = d // 2
    if d % 2 == 0:
        if n % half != 0:
            raise ValueError(
                f"floor(d/2) = {half} must be a divisor of n = {n} when d is even")
        m = n // half
    else:
        if (n - 1) % half != 0:
            raise ValueError(
                f"floor(d/2) = {half} must be a divisor of n-1 = {n - 1} when d is odd")
        m = (n - 1) // half
    if m < 3:
        raise ValueError(
            f"polygon size {m} < 3: each coordinate pair needs a polygon")
    return m


def fk_pstar(n: int, d: int, k: int) -> int:
    """Face count f_k of the paired-polygon construction P*(n, d).

    Even d: sum over the number r of coordinate pairs contributing two
    consecutive rows,

        sum_r C(d/2, r) C(d/2 - r, d-k-2r) (n/(d/2))^(d-k-r),

    with the zero-binomial convention trimming r to its valid range. Odd d
    recurses: f_k = f_{k-1} + f_k of the even base on (n-1, d-1), with
    f_0 from the vertex-count formula and f_d = 1. For odd d the counts
    include the unbounded faces of the pointed polyhedron.
    """
    if not (0 <= k <= d):
        raise ValueError(f"need 0 <= k <= d, got d={d} k={k}")
    m = pstar_polygon_size(n, d)
    if d % 2 == 0:
        half = d // 2
        total = 0
        for r in range(max(0, half - k), half - k // 2 + 1):
            total += binom(half, r) * binom(half - r, d - k - 2 * r) * m ** (d - k - r)
        return total
    if k == d:
        return 1
    if k == 0:
        return m ** (d // 2)
    return fk_pstar(n - 1, d - 1, k - 1) + fk_pstar(n - 1, d - 1, k)


def pstar_f_vector(n: int, d: int) -> tuple[int, ...]:
    return tuple(fk_pstar(n, d, k) for k in range(d + 1))


def prism3_f_vector(n: int) -> tuple[int, ...]:
    """(2n-4, 3n-6, n, 1): the maximal d=3 counts, attained by the prism."""
    if n < 5:
        raise ValueError("prism formula needs n >= 5")
    return (2 * n - 4, 3 * n - 6, n, 1)


def polygon_f_vector(m: int) -> tuple[int, ...]:
    if m < 3:
        raise ValueError("polygon needs m >= 3")
    return (m, m, 1)


def two_variable_deficit(n_prime: int, d: int) -> Fraction:
    """D = C(n',2)/C(d,2) - n', the certified shortfall in ridge counts."""
    return Fraction(binom(n_prime, 2), binom(d, 2)) - n_prime


def lemma41_bound(n: int, n_prime: int, d: int) -> Fraction:
    """Upper bound C(n,2) - D on ridge counts, D = two_variable_deficit.

    n' is the number of rows touching exactly two variables. Exact
    rational, not floored. It is at least C(n,2), hence vacuous, exactly
    when D <= 0, i.e. when n' <= d(d-1) + 1.
    """
    if d < 4:
        raise ValueError("the ridge bound assumes d >= 4")
    if not (0 <= n_prime <= n):
        raise ValueError("need 0 <= n_prime <= n")
    return binom(n, 2) - two_variable_deficit(n_prime, d)


def _check_thm42_args(n: int, n_prime: int, d: int, k: int) -> None:
    """The range both readings of Theorem 4.2 assume."""
    if d < 4:
        raise ValueError("the separation bound assumes d >= 4")
    if k > d - 2:
        raise ValueError("the separation bound applies for k <= d-2")
    if not (0 <= n_prime <= n):
        raise ValueError("need 0 <= n_prime <= n")


def thm42_bound(n: int, n_prime: int, d: int, k: int) -> Fraction:
    """f_k(c*(n,d)) - C(d-2,k) * D with the deficit D of two_variable_deficit.

    This is the bound the h-vector argument actually certifies. D can be
    negative for small n', in which case the bound is weaker than
    f_k(c*(n,d)) and carries no separation content; see
    thm42_bound_literal for the displayed variant with the opposite sign
    on n'.
    """
    _check_thm42_args(n, n_prime, d, k)
    return fk_dual_cyclic(n, d, k) - binom(d - 2, k) * two_variable_deficit(n_prime, d)


def thm42_bound_literal(n: int, n_prime: int, d: int, k: int) -> Fraction:
    """The displayed variant f_k(c*) - C(d-2,k)*(C(n',2)/C(d,2) + n').

    That is f_k(c*) - C(d-2,k)*(D + 2n'), D = two_variable_deficit. Kept
    for reporting: its inner sign disagrees with the ridge bound and with
    the chain of inequalities that certifies thm42_bound.
    """
    _check_thm42_args(n, n_prime, d, k)
    return (fk_dual_cyclic(n, d, k)
            - binom(d - 2, k) * (two_variable_deficit(n_prime, d) + 2 * n_prime))


def ratio_report(d: int, n_list, k: int) -> list[dict]:
    """Exact ratios f_k(c*)/f_k(P*) against the exponential threshold.

    The threshold is E_UPPER^floor(d/2) for k < ceil(d/2) and E_UPPER^(d-k)
    above, a rational over-approximation of the exponential envelope. The
    polynomial factor in front of the envelope is not pinned down, so the
    pass flag allows the fixed multiplier ENVELOPE_SLACK = 8 and the
    residue ratio/threshold records the observed polynomial content.
    """
    half_up = -(-d // 2)
    exponent = d // 2 if k < half_up else d - k
    threshold = E_UPPER ** exponent
    rows = []
    for n in n_list:
        fc = fk_dual_cyclic(n, d, k)
        fp = fk_pstar(n, d, k)
        ratio = Fraction(fc, fp)
        rows.append({"n": n, "f_dual_cyclic": fc, "f_pstar": fp, "ratio": ratio,
                     "threshold": threshold, "residue": ratio / threshold,
                     "within_envelope": ratio <= ENVELOPE_SLACK * threshold})
    return rows


def gale_evenness_facet_count(n: int, d: int) -> int:
    """Count d-subsets of {1..n} satisfying the evenness condition.

    A subset is counted when every maximal run of its elements that is
    strictly between non-elements (touching neither 1 nor n) has even
    length. This is the standard combinatorial description of the cyclic
    polytope's facets, hence an independent oracle for the dual cyclic
    vertex count.
    """
    if not (0 < d < n):
        raise ValueError(f"need 0 < d < n, got n={n} d={d}")
    count = 0
    for subset in combinations(range(1, n + 1), d):
        runs: list[list[int]] = []
        for x in subset:
            if runs and runs[-1][-1] == x - 1:
                runs[-1].append(x)
            else:
                runs.append([x])
        if all(len(run) % 2 == 0 or run[0] == 1 or run[-1] == n for run in runs):
            count += 1
    return count
