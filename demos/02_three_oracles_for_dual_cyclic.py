"""Three independent routes to the dual cyclic face counts.

1. brute-force enumeration of an exact geometric realization,
2. the closed-form two-sum formula,
3. McMullen's h-vector of c*(n, d), h_i = C(n-d-1+j, j) with j = min(i, d-i),
   turned into a whole f-vector by f_k = sum_r C(r, k) h_r.

All three must agree exactly; any mismatch would expose a bug.
"""

import signal

from li2poly import Analysis, dual_cyclic
from li2poly.faces import dual_cyclic_h, f_from_h
from li2poly.formulas import dual_cyclic_f_vector, fk_dual_cyclic

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the demo quietly

n, d = 8, 4
print(f"dual cyclic polytope at n={n}, d={d}")
print(f"  enumerated f-vector: {Analysis(dual_cyclic(n, d)).f_vector}")
print(f"  closed-form f-vector: {dual_cyclic_f_vector(n, d)}")
h = dual_cyclic_h(n, d)
print(f"  h-vector {h} gives f-vector: {f_from_h(h)}")
print()

print("the h-vector route across a grid (whole f-vectors agree; f_0 shown):")
for n in range(5, 11):
    row = []
    for d in range(2, min(n, 6)):
        f = f_from_h(dual_cyclic_h(n, d))
        assert f == dual_cyclic_f_vector(n, d)
        row.append(f"d={d}: {f[0]}")
    print(f"  n={n}:  " + "  ".join(row))
print()

print("above the middle dimension, any d-k rows span a face:")
print(f"  f_2(8,4) = C(8,2) = {fk_dual_cyclic(8, 4, 2)}")
print(f"  f_3(8,4) = C(8,1) = {fk_dual_cyclic(8, 4, 3)}")
print(f"  f_4(8,4) = C(8,0) = {fk_dual_cyclic(8, 4, 4)}")
