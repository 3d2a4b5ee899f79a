"""H-representation data model and text I/O.

A polytope is an ordered list of inequality rows coeffs.x <= rhs with exact
rational entries. Row order is significant and survives serialization
round-trips. The text format is deliberately plain:

    # comment lines are optional; a "# family: NAME n=.. d=.." line
    # carries construction metadata for formula-based dispatch
    n d
    <d coefficients and one right-hand side per row, rationals like 2, -7, 3/4>

Points and coefficient vectors are tuples of Fraction (Vec), so every
comparison is exact. The records are named tuples, immutable after
construction and compared and hashed by value. A Constraint carries no
name: a row is known by its index.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

Vec = tuple[Fraction, ...]

# ASCII digits only: int() and Fraction() also read other scripts' digits,
# which serialize_hrep would write back as ASCII.
_DIGITS = "[0-9]+"
_NATURAL_RE = re.compile(f"^{_DIGITS}$")
_RATIONAL_RE = re.compile(f"^-?{_DIGITS}(?:/{_DIGITS})?$")
_FAMILY_RE = re.compile(rf"^#\s*family:\s*(\w+)\s+n=({_DIGITS})\s+d=({_DIGITS})\s*$")

FAMILY_NAMES = ("pstar", "dualcyclic", "prism3", "polygon")


class FamilyTag(NamedTuple):
    """Names the constructor an H-rep came from, for formula dispatch."""
    name: str
    n: int
    d: int

    def comment(self) -> str:
        return f"# family: {self.name} n={self.n} d={self.d}"


class Constraint(NamedTuple):
    """One inequality coeffs.x <= rhs."""
    coeffs: Vec
    rhs: Fraction


class _HPolytope(NamedTuple):
    dim: int
    constraints: tuple[Constraint, ...]
    family: FamilyTag | None = None


class HPolytope(_HPolytope):
    """A polyhedron {x in R^dim : all constraints hold}, row order preserved."""
    __slots__ = ()

    def __new__(cls, dim: int, constraints: tuple[Constraint, ...],
                family: FamilyTag | None = None):
        if dim <= 0:
            raise ValueError("ambient dimension must be positive")
        if any(len(c.coeffs) != dim for c in constraints):
            raise ValueError("constraint dimension mismatch")
        return super().__new__(cls, dim, constraints, family)

    @property
    def n(self) -> int:
        return len(self.constraints)


class LI2Profile(NamedTuple):
    """Structural profile of how many variables each row touches.

    n_prime counts rows with exactly two nonzero coefficients and
    pair_counts maps each unordered variable pair (i, j), 0-based with
    i < j, to the number of rows supported on it.
    """
    is_li2: bool
    n_prime: int
    pair_counts: dict[tuple[int, int], int]
    single_var_count: int


def li2_profile(p: HPolytope) -> LI2Profile:
    """Classify rows by support size; nonzero means exactly nonzero, no epsilon."""
    pair_counts: dict[tuple[int, int], int] = {}
    n_prime = 0
    singles = 0
    is_li2 = True
    for c in p.constraints:
        support = [j for j, a in enumerate(c.coeffs) if a != 0]
        if len(support) == 1:
            singles += 1
        elif len(support) == 2:
            n_prime += 1
            key = (support[0], support[1])
            pair_counts[key] = pair_counts.get(key, 0) + 1
        elif len(support) > 2:
            is_li2 = False
    return LI2Profile(is_li2, n_prime, pair_counts, singles)


def _parse_rational(token: str, line: int) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"line {line}: malformed rational {token!r}")
    if "/" in token and int(token.split("/")[1]) == 0:
        raise ValueError(f"line {line}: zero denominator in {token!r}")
    return Fraction(token)


def parse_hrep(text: str | bytes) -> HPolytope:
    """Parse the H-rep text format; serialize(parse(t)) == t up to whitespace."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"input is not valid UTF-8: {exc}") from None
    family: FamilyTag | None = None
    data_lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _FAMILY_RE.match(stripped)
            if m and family is None:
                name = m.group(1)
                if name in FAMILY_NAMES:
                    family = FamilyTag(name, int(m.group(2)), int(m.group(3)))
            continue
        data_lines.append((lineno, stripped.split()))

    if not data_lines:
        raise ValueError("missing 'n d' header line")
    header_line, header = data_lines[0]
    if len(header) != 2 or not all(_NATURAL_RE.match(t) for t in header) or int(header[1]) < 1:
        raise ValueError(f"line {header_line}: header must be 'n d' with integers "
                         "n >= 0 and d >= 1")
    n, d = int(header[0]), int(header[1])
    if len(data_lines) - 1 < n:
        raise ValueError(f"expected {n} constraint rows, found {len(data_lines) - 1}")
    if len(data_lines) - 1 > n:
        raise ValueError(f"line {data_lines[n + 1][0]}: trailing data after the "
                         "declared constraint rows")

    constraints = []
    for lineno, tokens in data_lines[1:]:
        if len(tokens) != d + 1:
            raise ValueError(f"line {lineno}: expected {d} coefficients and one "
                             f"right-hand side, got {len(tokens)} fields")
        values = [_parse_rational(t, lineno) for t in tokens]
        constraints.append(Constraint(tuple(values[:d]), values[d]))
    return HPolytope(d, tuple(constraints), family)


def serialize_hrep(p: HPolytope) -> str:
    """Canonical text form: lowest-terms rationals, one constraint per line."""
    lines = []
    if p.family is not None:
        lines.append(p.family.comment())
    lines.append(f"{p.n} {p.dim}")
    for c in p.constraints:
        # Fraction renders lowest terms, "3" or "-1/2"
        lines.append(" ".join([str(a) for a in c.coeffs] + [str(c.rhs)]))
    return "\n".join(lines) + "\n"
