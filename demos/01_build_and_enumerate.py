"""Build the polytope families and enumerate their faces by brute force.

Every instance carries exact rational data, so the counts below are exact,
not approximations. The paired-polygon product pstar(n, d) places one
convex polygon on each coordinate pair; its vertices pick one pair of
cyclically consecutive edges per polygon.
"""

from li2poly import (Analysis, convex_polygon, dual_cyclic, f_vector, prism3,
                     pstar, serialize_hrep)
from li2poly.formulas import dual_cyclic_f_vector, pstar_f_vector

print("A pentagon, as an H-representation:")
print(serialize_hrep(convex_polygon(5)))

print("pstar(8, 4): two quadrilaterals on the pairs (x1,x2) and (x3,x4)")
p = pstar(8, 4)
vertices = Analysis(p).vertices
print(f"  {p.n} rows in R^{p.dim}, {len(vertices)} vertices "
      f"(formula says (8/2)^2 = 16)")
print(f"  one vertex and its tight rows: {vertices[0][0]} "
      f"-> rows {sorted(vertices[0][1])}")

print(f"  f-vector, enumerated: {f_vector(p)}")
print(f"  f-vector, closed form: {pstar_f_vector(8, 4)}")
print()

print("dual_cyclic(6, 3): the maximizer of face counts at n=6, d=3")
q = dual_cyclic(6, 3)
print(f"  f-vector, enumerated: {f_vector(q)}")
print(f"  f-vector, closed form: {dual_cyclic_f_vector(6, 3)}")
print()

print("prism3(8): an extruded hexagon attaining the d=3 maximum")
r = prism3(8)
print(f"  f-vector: {f_vector(r)}  (2n-4, 3n-6, n, 1) at n=8")
print()

print("pstar(7, 3): the odd-dimension construction is an unbounded")
print("pointed polyhedron; its face counts include the unbounded faces:")
u = pstar(7, 3)
print(f"  f-vector: {f_vector(u)}")
base = f_vector(pstar(6, 2))
print(f"  base polygon pstar(6, 2) has f = {base}; each count above is"
      f" f_(k-1) + f_k of the base")
