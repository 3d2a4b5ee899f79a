"""Indegree histograms under generic objectives, and the f/h transforms.

Orienting every edge of a simple polytope toward the larger value of a
generic linear objective gives an acyclic graph whose indegree histogram
is independent of the objective; the same histogram falls out of the
f-vector through an alternating-sum transform. The componentwise
comparison of these histograms against the dual cyclic ones is the
strengthened form of the maximal-count theorem.
"""

import signal

from li2poly import (Analysis, convex_polygon, h_from_f, indegree_hvector,
                     prism3, pstar, strengthened_ubt_check)
from li2poly.faces import dual_cyclic_h

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the demo quietly

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
for i, (hp, hc) in enumerate(zip(h_from_f(f), dual_cyclic_h(8, 4))):
    print(f"  h_{i}: {hp} {'=' if hp == hc else '<'} {hc}")
print(f"  satisfied: {strengthened_ubt_check(p)}")
print()

print("the prism attains the d=3 histogram exactly:")
prism = Analysis(prism3(8))
for i, (hp, hc) in enumerate(zip(h_from_f(prism.f_vector), dual_cyclic_h(8, 3))):
    print(f"  h_{i}: {hp} vs {hc}")
