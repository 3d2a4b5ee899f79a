"""Build the polytope families and enumerate their faces by brute force.

Every instance carries exact rational data, so the counts below are exact,
not approximations. The paired-polygon product pstar(n, d) places one
convex polygon on each coordinate pair; its vertices pick one pair of
cyclically consecutive edges per polygon.
"""

import signal

from li2poly import (Analysis, convex_polygon, dual_cyclic, prism3, pstar,
                     serialize_hrep)
from li2poly.formulas import dual_cyclic_f_vector, pstar_f_vector

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the demo quietly

print("A pentagon, as an H-representation:")
print(serialize_hrep(convex_polygon(5)))

print("pstar(8, 4): two quadrilaterals on the pairs (x1,x2) and (x3,x4)")
p = pstar(8, 4)
a = Analysis(p)  # one handle: enumerates p once, on first query
generators = a.generators  # (integer vector (g, t), bitset of tight rows)
print(f"  {p.n} rows in R^{p.dim}, {len(generators)} vertices "
      f"(formula says (8/2)^2 = 16)")
g, tight = generators[0]
print(f"  one vertex, the point g/t for g = {g[:-1]}, t = {g[-1]}, "
      f"and its tight rows: {[i for i in range(p.n) if tight >> i & 1]}")

print(f"  f-vector, enumerated: {a.f_vector}")
print(f"  f-vector, closed form: {pstar_f_vector(8, 4)}")
print()

print("dual_cyclic(6, 3): the maximizer of face counts at n=6, d=3")
q = dual_cyclic(6, 3)
print(f"  f-vector, enumerated: {Analysis(q).f_vector}")
print(f"  f-vector, closed form: {dual_cyclic_f_vector(6, 3)}")
print()

print("prism3(8): an extruded hexagon attaining the d=3 maximum")
r = prism3(8)
print(f"  f-vector: {Analysis(r).f_vector}  (2n-4, 3n-6, n, 1) at n=8")
print()

print("pstar(7, 3): the odd-dimension construction is an unbounded")
print("pointed polyhedron; its face counts include the unbounded faces:")
u = pstar(7, 3)
print(f"  f-vector: {Analysis(u).f_vector}")
base = Analysis(pstar(6, 2)).f_vector
print(f"  base polygon pstar(6, 2) has f = {base}; each count above is"
      f" f_(k-1) + f_k of the base")
