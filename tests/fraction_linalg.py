"""Reference rational linear algebra for the test oracles.

Exact vectors, matrices, solving and rank on fractions.Fraction: arbitrary
precision, always in lowest terms with positive denominator, so equality
tests are exact and there is no rounding anywhere. Vectors and matrices
are plain tuples. The package does no elimination outside its integer
double-description kernel; scan_oracle, lp_oracle, lp_geometry,
lp_simplex and the face-dimension tests use this module instead, so they
share no linear algebra with the code they check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    """Coerce an iterable of numbers/strings to an exact rational vector."""
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    """Coerce nested iterables to a rational matrix; rows must agree in width."""
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("inconsistent row widths")
    return out


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def _row_reduce(rows: list[list[Fraction]]) -> list[int]:
    """In-place fraction-free-ish Gaussian elimination to row echelon form.

    Returns the list of pivot column indices. Pivot choice is the first row
    with a nonzero entry, which is deterministic.
    """
    pivot_cols: list[int] = []
    if not rows:
        return pivot_cols
    n_rows, n_cols = len(rows), len(rows[0])
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return pivot_cols


def rank(m: Mat | Sequence[Sequence[Fraction]]) -> int:
    rows = [list(r) for r in m]
    return len(_row_reduce(rows))


def solve_linear_system(m: Mat, rhs: Vec) -> Vec | None:
    """Solve the square system m x = rhs exactly.

    Returns the unique solution when m is nonsingular, None otherwise
    (singularity is not an error: callers probe many submatrices).
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    pivots = _row_reduce(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return tuple(aug[i][n] for i in range(n))


def solve_affine(rows: Sequence[Vec], rhs: Sequence[Fraction], dim: int
                 ) -> tuple[Vec, list[Vec]] | None:
    """Solve the (possibly rectangular) system rows·x = rhs in R^dim.

    Returns (particular solution, nullspace basis) or None when the system
    is inconsistent. With no rows the whole space comes back: (0, identity).
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _row_reduce(aug)
    if pivots and pivots[-1] == dim:
        return None  # a pivot in the rhs column means 0 = 1 somewhere
    pivot_set = set(pivots)
    free_cols = [c for c in range(dim) if c not in pivot_set]
    x0 = [ZERO] * dim
    for i, c in enumerate(pivots):
        x0[c] = aug[i][dim]
    basis: list[Vec] = []
    for fc in free_cols:
        v = [ZERO] * dim
        v[fc] = ONE
        for i, c in enumerate(pivots):
            v[c] = -aug[i][fc]
        basis.append(tuple(v))
    return tuple(x0), basis


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of the points (0 for a single point)."""
    if not points:
        raise ValueError("affine_rank of an empty point list is undefined")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("points of mixed dimension")
    base = points[0]
    diffs = [list(vec_sub(p, base)) for p in points[1:]]
    return len(_row_reduce(diffs)) if diffs else 0


def rows_of(p) -> list[Vec]:
    """The coefficient rows of an HPolytope."""
    return [c.coeffs for c in p.constraints]


def slack(c, x: Sequence[Fraction]) -> Fraction:
    """rhs - coeffs.x of a Constraint: nonnegative iff x satisfies it."""
    return c.rhs - dot(c.coeffs, x)


def contains(p, x: Sequence[Fraction]) -> bool:
    return all(slack(c, x) >= 0 for c in p.constraints)


def tight_at(p, x: Sequence[Fraction]) -> frozenset[int]:
    """The rows of an HPolytope that x satisfies with equality."""
    return frozenset(i for i, c in enumerate(p.constraints) if slack(c, x) == 0)


def vertex_points(generators) -> list[tuple[Vec, int]]:
    """Each vertex generator (g, t), t > 0, of an Analysis as the point g/t,
    with its tight-row bitset, in generator order; rays are skipped."""
    return [(tuple(Fraction(x, g[-1]) for x in g[:-1]), zeros)
            for g, zeros in generators if g[-1]]
