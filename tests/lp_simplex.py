"""Exact two-phase simplex for inequality systems over the rationals: the
LP reference behind lp_geometry and lp_oracle.

Solves  maximize c.x  subject to  A x <= b  with x unrestricted in sign.
Free variables are split into positive parts, rows get slack variables,
and phase one introduces artificials for rows with negative right-hand
side. Pivoting follows Bland's rule (lowest eligible index both for the
entering column and, on ratio ties, for the leaving basic variable), so
the method never cycles and every decision is exact; there is no floating
point anywhere. Instances in this package are tiny, so the dense tableau
is the right trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fraction_linalg import ONE, ZERO, Vec

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None = None
    point: Vec | None = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], r: int, e: int) -> None:
    row = tableau[r]
    inv = 1 / row[e]
    if inv != 1:
        tableau[r] = row = [x * inv for x in row]
    for i, other in enumerate(tableau):
        if i != r:
            f = other[e]
            if f != 0:
                tableau[i] = [x - f * y for x, y in zip(other, row)]
    basis[r] = e


def _bland_max(tableau: list[list[Fraction]], basis: list[int],
               reduced: list[Fraction]) -> str:
    """Run Bland-rule pivots until the reduced-cost row has no positive entry.

    `reduced` is updated in place alongside the tableau. Returns OPTIMAL or
    UNBOUNDED.
    """
    ncols = len(reduced)
    while True:
        entering = next((j for j in range(ncols) if reduced[j] > 0), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        best_ratio = None
        for i, row in enumerate(tableau):
            coef = row[entering]
            if coef > 0:
                ratio = row[-1] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)
        f = reduced[entering]
        row = tableau[leaving]
        for j in range(ncols):
            if row[j] != 0:
                reduced[j] -= f * row[j]


def _reduced_costs(tableau: list[list[Fraction]], basis: list[int],
                   cost: list[Fraction]) -> list[Fraction]:
    ncols = len(tableau[0]) - 1 if tableau else len(cost)
    reduced = list(cost)
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb != 0:
            row = tableau[i]
            for j in range(ncols):
                if row[j] != 0:
                    reduced[j] -= cb * row[j]
    return reduced


def solve_lp_max(objective, rows, rhs) -> LPResult:
    """Maximize objective.x over {x : rows[i].x <= rhs[i]}, x free."""
    nvars = len(objective)
    nrows = len(rows)
    if len(rhs) != nrows or any(len(r) != nvars for r in rows):
        raise ValueError("dimension mismatch")
    if nrows == 0:
        if any(c != 0 for c in objective):
            return LPResult(UNBOUNDED)
        return LPResult(OPTIMAL, ZERO, (ZERO,) * nvars)

    nslack = nrows
    art_of_row = {}
    n_art = 0
    for i in range(nrows):
        if rhs[i] < 0:
            art_of_row[i] = n_art
            n_art += 1
    base_cols = 2 * nvars + nslack
    ncols = base_cols + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(nrows):
        sigma = ONE if rhs[i] >= 0 else -ONE
        row = [ZERO] * (ncols + 1)
        for j, a in enumerate(rows[i]):
            if a != 0:
                row[j] = sigma * a
                row[nvars + j] = -sigma * a
        row[2 * nvars + i] = sigma
        row[-1] = sigma * rhs[i]
        if i in art_of_row:
            art_col = base_cols + art_of_row[i]
            row[art_col] = ONE
            basis.append(art_col)
        else:
            basis.append(2 * nvars + i)
        tableau.append(row)

    if n_art:
        cost1 = [ZERO] * ncols
        for i, a in art_of_row.items():
            cost1[base_cols + a] = -ONE
        reduced = _reduced_costs(tableau, basis, cost1)
        _bland_max(tableau, basis, reduced)
        phase1 = -sum((tableau[i][-1] for i in range(len(basis))
                       if basis[i] >= base_cols), ZERO)
        if phase1 < 0:
            return LPResult(INFEASIBLE)
        # Drive leftover (degenerate) artificials out of the basis.
        drop_rows = []
        for i in range(len(basis)):
            if basis[i] >= base_cols:
                col = next((j for j in range(base_cols) if tableau[i][j] != 0), None)
                if col is None:
                    drop_rows.append(i)
                else:
                    _pivot(tableau, basis, i, col)
        for i in reversed(drop_rows):
            del tableau[i]
            del basis[i]
        tableau = [row[:base_cols] + [row[-1]] for row in tableau]
        ncols = base_cols

    cost2 = [ZERO] * ncols
    for j, c in enumerate(objective):
        if c != 0:
            cost2[j] = Fraction(c)
            cost2[nvars + j] = -Fraction(c)
    reduced = _reduced_costs(tableau, basis, cost2)
    status = _bland_max(tableau, basis, reduced)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    values = {bi: tableau[i][-1] for i, bi in enumerate(basis)}
    point = tuple(values.get(j, ZERO) - values.get(nvars + j, ZERO)
                  for j in range(nvars))
    value = sum((Fraction(c) * x for c, x in zip(objective, point)), ZERO)
    return LPResult(OPTIMAL, value, point)


def max_min_slack(rows, rhs, dim) -> tuple[Fraction, Vec]:
    """Maximize the uniform slack s with rows[j].z + s <= rhs[j] and s <= 1.

    The program is always feasible (s may go negative) and the cap keeps it
    bounded, so the result is always optimal. Returns (s*, z*).
    """
    objective = (ZERO,) * dim + (ONE,)
    lp_rows = [tuple(r) + (ONE,) for r in rows]
    lp_rows.append((ZERO,) * dim + (ONE,))
    lp_rhs = list(rhs) + [ONE]
    res = solve_lp_max(objective, lp_rows, lp_rhs)
    if res.status != OPTIMAL:
        raise AssertionError(f"slack program must be solvable, got {res.status}")
    return res.value, res.point[:dim]
