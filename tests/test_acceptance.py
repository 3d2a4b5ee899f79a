"""Acceptance suite: one test per numbered criterion, exact tolerances.

Each test prints a single pass/fail line (visible with pytest -s, and in
the failure report otherwise). Shared heavy lattices are cached in
conftest; the criteria with stated time limits measure a fresh computation.

Criterion 6 sweeps d in {4, 6}, k <= d-2 and every admissible n <= 24 and
pins the separation between pstar and the dual cyclic polytope exactly:
f_k(pstar) == f_k(c*) at (n,d,k) in {(6,4,0), (6,4,1), (6,4,2), (9,6,4)}
and f_k(pstar) < f_k(c*) at every other grid point. The equalities sit at
the triangle-factor instances: pstar(6,4) and c*(6,4) are both triangle x
triangle, and pstar(9,6), a product of three triangles, has every pair of
its 9 facets adjacent, as c*(9,6) does. The paper's ridge bound does not
reach these points: its deficit C(n',2)/C(d,2) - n' is positive only for
n' > d(d-1)+1, and there it certifies the strict separation.
"""

import random
import time
from fractions import Fraction
from math import comb

from conftest import (cached_analysis, cached_f_vector, cached_instance,
                      permuted, unit_square)
from li2poly import cli, constructors, faces, formulas, hvector
from li2poly.errors import InputError
from li2poly.model import HPolytope


def _report(num: int, desc: str, ok: bool) -> bool:
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_vertex_counts():
    grid = {(8, 4): 16, (10, 4): 25, (12, 4): 36, (12, 6): 64, (16, 4): 64,
            (16, 8): 256, (20, 10): 1024, (24, 8): 1296}
    ok = True
    for (n, d), expect in grid.items():
        start = time.perf_counter()
        count = len(faces.enumerate_vertices(constructors.pstar(n, d)))
        elapsed = time.perf_counter() - start
        ok &= count == expect and elapsed < 10
    assert _report(1, "vertex counts", ok)


def test_criterion_2_f_vector_oracle_match():
    start = time.perf_counter()
    ok = faces.Analysis(constructors.pstar(12, 6)).f_vector == (64, 192, 240, 160, 60, 12, 1)
    for n, d in ((6, 3), (7, 3), (8, 4), (10, 4), (9, 5), (14, 8)):
        enumerated = faces.Analysis(constructors.dual_cyclic(n, d)).f_vector
        ok &= enumerated == formulas.dual_cyclic_f_vector(n, d)
    # The paper's d = 8..10 instances, bounded and not, at the default budget.
    for n, d in ((16, 8), (17, 9), (20, 10), (21, 9)):
        ok &= faces.Analysis(constructors.pstar(n, d)).f_vector == formulas.pstar_f_vector(n, d)
    ok &= time.perf_counter() - start < 120
    assert _report(2, "full f-vector oracle match", ok)


def test_criterion_3_odd_dimension_recursion():
    f = cached_f_vector("pstar", 13, 7)
    base = cached_f_vector("pstar", 12, 6)
    ok = all(f[k] == base[k - 1] + base[k] for k in range(1, 7))
    assert _report(3, "odd-d recursion incl. unbounded faces", ok)


def test_criterion_4_h_machinery():
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        v = tuple(rng.randrange(0, 10 ** 6)
                  for _ in range(rng.randrange(1, 9)))
        ok &= hvector.h_from_f(faces.f_from_h(v)) == v
        ok &= faces.f_from_h(hvector.h_from_f(v)) == v
    p = cached_analysis("pstar", 12, 6)
    expected = (1, 6, 15, 20, 15, 6, 1)
    for seed in (0, 1, 2):
        ok &= hvector.indegree_hvector(p, seed) == expected
    ok &= hvector.h_from_f(cached_f_vector("pstar", 12, 6)) == expected
    assert _report(4, "h transforms and indegree histograms", ok)


def test_criterion_5_strengthened_upper_bound():
    ok = True
    for n, d in ((6, 3), (7, 3), (8, 4), (10, 4), (9, 5), (12, 6)):
        h_p = hvector.h_from_f(cached_f_vector("pstar", n, d))
        h_c = hvector.h_from_f(formulas.dual_cyclic_f_vector(n, d))
        ok &= all(a <= b for a, b in zip(h_p, h_c))
    ok &= cached_f_vector("prism3", 8, 3) == (12, 18, 8, 1)
    h_prism = hvector.h_from_f(cached_f_vector("prism3", 8, 3))
    h_c83 = hvector.h_from_f(formulas.dual_cyclic_f_vector(8, 3))
    ok &= h_prism == h_c83
    assert _report(5, "componentwise h comparison", ok)


TRIANGLE_FACTOR_EQUALITIES = {(6, 4, 0), (6, 4, 1), (6, 4, 2), (9, 6, 4)}


def _polygon_product_f(m: int, copies: int) -> list[int]:
    """f_0..f_{2*copies} of a product of m-gons: faces multiply as (m, m, 1)."""
    f = [1]
    for _ in range(copies):
        nxt = [0] * (len(f) + 2)
        for i, a in enumerate(f):
            for j, b in enumerate((m, m, 1)):
                nxt[i + j] += a * b
        f = nxt
    return f


def _dual_cyclic_f_from_ubt(n: int, d: int) -> list[int]:
    """f-vector of c*(n,d) from its h-vector h_i = C(n-d-1+i, i), i <= d/2."""
    h = [comb(n - d - 1 + min(i, d - i), min(i, d - i)) for i in range(d + 1)]
    return [sum(comb(i, k) * h[i] for i in range(d + 1)) for k in range(d + 1)]


def test_criterion_6_non_realizability_bounds():
    adjacency = faces.Analysis(cached_instance("pstar", 12, 6)).facet_adjacency_count
    bound = formulas.lemma41_bound(12, 12, 6)
    part1 = adjacency == 60 and bound == Fraction(368, 5) and adjacency <= bound

    # pstar(n,d) is a product of d/2 polygons with 2n/d sides each; both
    # closed forms are checked against textbook derivations at every point.
    grid, drift, equal, above, certified, uncertified = [], [], set(), [], set(), []
    for d in (4, 6):
        for n in range(3 * (d // 2), 25, d // 2):
            f_product = _polygon_product_f(2 * n // d, d // 2)
            f_ubt = _dual_cyclic_f_from_ubt(n, d)
            for k in range(d - 1):
                grid.append((n, d, k))
                p, c = formulas.fk_pstar(n, d, k), formulas.fk_dual_cyclic(n, d, k)
                if (p, c) != (f_product[k], f_ubt[k]):
                    drift.append((n, d, k, p, c))
                if p == c:
                    equal.add((n, d, k))
                elif p > c:
                    above.append((n, d, k, p, c))
                if formulas.two_variable_deficit(n, d) > 0:
                    # Every pstar row touches two variables, so n' = n.
                    certified.add((n, d, k))
                    if not p <= formulas.thm42_bound(n, n, d, k) < c:
                        uncertified.append((n, d, k))

    # The equality points are the triangle-factor instances, confirmed by
    # brute-force enumeration of both polytopes independently of the
    # closed forms, and the ridge bound is vacuous at each of them.
    enumerated = {}
    for n, d, k in sorted(TRIANGLE_FACTOR_EQUALITIES):
        if (n, d) not in enumerated:
            enumerated[n, d] = (cached_f_vector("pstar", n, d),
                                faces.Analysis(constructors.dual_cyclic(n, d)).f_vector)
        fp, fc = enumerated[n, d]
        closed = (formulas.fk_pstar(n, d, k), formulas.fk_dual_cyclic(n, d, k))
        assert (fp[k], fc[k]) == closed, ("formula and enumeration disagree",
                                          n, d, k, fp, fc)
        assert fp[k] == fc[k], (n, d, k, fp, fc)
        assert formulas.two_variable_deficit(n, d) <= 0, (n, d)
    assert enumerated[6, 4] == ((9, 18, 15, 6, 1), (9, 18, 15, 6, 1))
    assert enumerated[9, 6][0][4] == formulas.binom(9, 2) == 36

    expected_certified = {(n, 4, k) for n in range(14, 25, 2) for k in range(3)}
    ok = (part1 and len(grid) == 60 and not drift and not above
          and equal == TRIANGLE_FACTOR_EQUALITIES
          and certified == expected_certified and not uncertified)
    _report(6, "ridge bound and exact separation sweep", ok)
    assert part1
    assert len(grid) == 60
    assert not drift, ("closed forms disagree with the polygon-product and "
                       "UBT counts at (n, d, k, f_k(pstar), f_k(c*))", drift)
    assert not above, ("f_k(pstar) > f_k(c*) at (n, d, k, f_k(pstar), f_k(c*))",
                       above)
    assert equal == TRIANGLE_FACTOR_EQUALITIES, (
        "f_k(pstar) == f_k(c*) must hold exactly at the triangle-factor "
        "points and strict separation everywhere else", sorted(equal))
    assert certified == expected_certified, sorted(certified)
    assert not uncertified, ("thm42_bound fails to separate", uncertified)


def test_criterion_7_gale_evenness_oracle():
    start = time.perf_counter()
    ok = True
    for n in range(4, 15):
        for d in range(3, n):
            ok &= (formulas.gale_evenness_facet_count(n, d)
                   == formulas.fk_dual_cyclic(n, d, 0))
    ok &= time.perf_counter() - start < 30
    assert _report(7, "Gale evenness facet oracle", ok)


def test_criterion_8_ratio_envelope():
    rows = formulas.ratio_report(4, range(8, 41, 4), 0)
    ratios = [r["ratio"] for r in rows]
    ok = ratios == sorted(ratios)
    ok &= all(r["ratio"] <= Fraction(739, 100) for r in rows)
    ok &= all(r["ratio"] <= r["threshold"] for r in rows)
    assert _report(8, "ratio monotone within e^2 envelope", ok)


def test_criterion_9_robustness(capsys):
    ok = cli.run(["construct", "pstar", "--n", "10", "--d", "6"]) == 3
    capsys.readouterr()

    square = unit_square()
    duplicated = HPolytope(2, square.constraints + (square.constraints[0],))
    try:
        faces.Analysis(duplicated).facet_adjacency_count
        ok = False
    except InputError as exc:
        ok &= str(exc) == ("rows [4] are redundant; adjacency counts need a "
                           "nonredundant system")

    rng = random.Random(99)
    for p in (constructors.pstar(8, 4), constructors.dual_cyclic(6, 3),
              constructors.prism3(6)):
        base = faces.Analysis(p).f_vector
        for _ in range(2):
            order = list(range(p.n))
            rng.shuffle(order)
            if faces.Analysis(permuted(p, order)).f_vector != base:
                ok = False
    with capsys.disabled():
        assert _report(9, "robustness and permutation invariance", ok)
