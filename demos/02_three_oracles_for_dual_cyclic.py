"""Three independent routes to the dual cyclic face counts.

1. brute-force enumeration of an exact geometric realization,
2. the closed-form two-sum formula,
3. for vertices, the combinatorial evenness condition on facet subsets.

All three must agree exactly; any mismatch would expose a bug.
"""

from li2poly import Analysis, dual_cyclic, gale_evenness_facet_count
from li2poly.formulas import dual_cyclic_f_vector, fk_dual_cyclic

n, d = 8, 4
print(f"dual cyclic polytope at n={n}, d={d}")
print(f"  enumerated f-vector: {Analysis(dual_cyclic(n, d)).f_vector}")
print(f"  closed-form f-vector: {dual_cyclic_f_vector(n, d)}")
print(f"  evenness-condition facet subsets: {gale_evenness_facet_count(n, d)}"
      f" (= f_0)")
print()

print("the evenness oracle across a grid (vertex counts):")
for n in range(5, 11):
    row = []
    for d in range(2, min(n, 6)):
        a = gale_evenness_facet_count(n, d)
        b = fk_dual_cyclic(n, d, 0)
        assert a == b
        row.append(f"d={d}: {a}")
    print(f"  n={n}:  " + "  ".join(row))
print()

print("above the middle dimension, any d-k rows span a face:")
print(f"  f_2(8,4) = C(8,2) = {fk_dual_cyclic(8, 4, 2)}")
print(f"  f_3(8,4) = C(8,1) = {fk_dual_cyclic(8, 4, 3)}")
print(f"  f_4(8,4) = C(8,0) = {fk_dual_cyclic(8, 4, 4)}")
