"""How close the two-variable family gets to the dual cyclic counts.

The ratio of face counts climbs with the number of rows towards an exact
limit that depends on the dimension alone: at d = 4 the vertex counts
differ by a factor below 2 for every n. In the other direction, a
counting argument on rows sharing a variable pair bounds how many facet
pairs can be adjacent, which keeps the dual cyclic polytope out of the
two-variable family once n is large; at the smallest parameters, where
every polygon factor is a triangle, the counts coincide exactly.
"""

import signal

from li2poly import (Analysis, dual_cyclic, lemma41_bound, pstar, ratio_report,
                     thm42_bound)
from li2poly.formulas import fk_dual_cyclic, fk_pstar, two_variable_deficit

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the demo quietly

print("vertex-count ratios at d=4 against its limit 2 as n grows:")
for row in ratio_report(4, range(8, 41, 4), 0):
    print(f"  n={row['n']:2d}  c*: {row['f_dual_cyclic']:4d}  P*: {row['f_pstar']:4d}"
          f"  ratio {str(row['ratio']):>6}  (limit {row['limit']})")
print()

print("adjacent facet pairs of pstar(12, 6):")
count = Analysis(pstar(12, 6)).facet_adjacency_count
bound = lemma41_bound(12, 12, 6)
print(f"  counted: {count} of C(12,2) = 66 pairs; ridge bound: {bound}")
print(f"  the dual cyclic polytope needs all 66, so it cannot be realized")
print(f"  with two variables per inequality at these parameters")
print()

print("per-k separation bounds at n=60, n'=60, d=4 (deficit "
      f"{two_variable_deficit(60, 4)}):")
for k in range(3):
    print(f"  f_{k}_bound: f_k <= {thm42_bound(60, 60, 4, k)}")
print()

print("the smallest instances are the exception: triangle factors give")
print("equality with the dual cyclic counts rather than strict separation:")
for n, d in ((6, 4), (9, 6)):
    fp = Analysis(pstar(n, d)).f_vector
    fc = Analysis(dual_cyclic(n, d)).f_vector
    print(f"  (n={n}, d={d})  P*: {fp}")
    print(f"            c*: {fc}")
    ties = [k for k in range(d - 1) if fp[k] == fc[k]]
    print(f"            equal coordinates below d-1: k = {ties}")
assert fk_pstar(6, 4, 0) == fk_dual_cyclic(6, 4, 0)
