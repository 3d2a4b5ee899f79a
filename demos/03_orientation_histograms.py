"""Indegree histograms under generic objectives, and the f/h transforms.

Orienting every edge of a simple polytope toward the larger value of a
generic linear objective gives an acyclic graph whose indegree histogram
is independent of the objective; the same histogram falls out of the
f-vector through an alternating-sum transform. The componentwise
comparison of these histograms against the dual cyclic ones is the
strengthened form of the maximal-count theorem.
"""

from li2poly import (Analysis, convex_polygon, h_from_f, indegree_hvector,
                     prism3, pstar, strengthened_ubt_check)

print("a hexagon under five different seeded objectives:")
hexagon = Analysis(convex_polygon(6))  # every seed reuses one edge graph
for seed in range(5):
    print(f"  seed {seed}: h = {indegree_hvector(hexagon, seed)}")
print(f"  transform of f = {hexagon.f_vector}: {h_from_f(hexagon.f_vector)}")
print()

print("pstar(8, 4), a product of two quadrilaterals:")
p = Analysis(pstar(8, 4))
for seed in (0, 1, 2):
    print(f"  seed {seed}: h = {indegree_hvector(p, seed)}")
f = p.f_vector
print(f"  h from f: {h_from_f(f)}  (the square's (1,2,1) convolved with itself)")
print()

print("componentwise comparison against the dual cyclic histogram:")
report = strengthened_ubt_check(p)
for e in report.entries:
    mark = "=" if e.h_value == e.h_dual_cyclic else "<"
    print(f"  h_{e.index}: {e.h_value} {mark} {e.h_dual_cyclic}")
print(f"  satisfied: {report.satisfied}")
print()

print("the prism attains the d=3 histogram exactly:")
report = strengthened_ubt_check(Analysis(prism3(8)))
for e in report.entries:
    print(f"  h_{e.index}: {e.h_value} vs {e.h_dual_cyclic}")
