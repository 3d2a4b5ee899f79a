"""Gale's evenness condition, as an independent oracle for the dual cyclic
vertex count.

No command reads it, and it enumerates all C(n, d) subsets, so it lives
beside the test suite's other references: tests/test_formulas.py,
tests/test_acceptance.py and tests/test_double_description.py check
formulas.fk_dual_cyclic(n, d, 0) and the enumerated vertex count against it.
"""

from __future__ import annotations

from itertools import combinations


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
