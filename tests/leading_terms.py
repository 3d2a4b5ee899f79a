"""The paper's leading-term table, as a reference for the closed forms.

No command reads the table, so it lives beside the test suite's other
references: tests/test_formulas.py checks each entry against the dominant
summand of the exact count it leads, and its asymptotics against
formulas.fk_pstar and formulas.fk_dual_cyclic.
"""

from __future__ import annotations

from fractions import Fraction

from li2poly.formulas import binom


def leading_terms(n: int, d: int, k: int) -> tuple[Fraction, Fraction]:
    """Leading-term table entries (paired-polygon value, dual cyclic value).

    Case split on k against d/2, separately for even and odd d; the
    formulas are table lookups, exact at the given n, meaningful as leading
    terms when d is small against n.
    """
    if not (2 <= d and 0 <= k <= d):
        raise ValueError(f"need d >= 2 and 0 <= k <= d, got d={d} k={k}")
    if d % 2 == 0:
        half = d // 2
        g = Fraction(n, half)
        if k <= half:
            return (binom(half, k) * g ** half,
                    Fraction(binom(half, k) * binom(n - half - 1, half)))
        return (binom(half, d - k) * g ** (d - k),
                Fraction(binom(n - k - 1, d - k)))
    low = d // 2
    up = low + 1
    g = Fraction(n - 1, low)
    if k <= low:
        return (binom(up, k) * g ** low,
                Fraction((binom(low, k) + binom(up, k)) * binom(n - up - 1, low)))
    return (binom(low, d - k) * g ** (d - k),
            Fraction(binom(n - k - 1, d - k)))
