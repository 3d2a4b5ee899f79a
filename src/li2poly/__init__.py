"""Exact-arithmetic face enumeration and complexity bounds for polytopes
whose inequalities touch at most two variables.

The package builds the paired-polygon product family and the dual cyclic
polytope with exact rational data, enumerates their face lattices by brute
force, and checks every closed-form count and separation bound against
that oracle.
"""

from .constructors import convex_polygon, dual_cyclic, prism3, pstar
from .faces import Analysis, edge_graph, enumerate_vertices, face_lattice
from .formulas import (fk_dual_cyclic, fk_pstar, gale_evenness_facet_count,
                       leading_terms, lemma41_bound, ratio_report,
                       thm42_bound, thm42_bound_literal)
from .hvector import (f_from_h, h_from_f, indegree_hvector,
                      strengthened_ubt_check)
from .model import (Constraint, HPolytope, LI2Profile, li2_profile,
                    parse_hrep, serialize_hrep)

__all__ = [
    "Constraint", "HPolytope", "LI2Profile", "Analysis",
    "parse_hrep", "serialize_hrep", "li2_profile",
    "convex_polygon", "pstar", "dual_cyclic", "prism3",
    "enumerate_vertices", "face_lattice", "edge_graph",
    "h_from_f", "f_from_h", "indegree_hvector", "strengthened_ubt_check",
    "fk_dual_cyclic", "fk_pstar", "leading_terms", "lemma41_bound",
    "thm42_bound", "thm42_bound_literal", "ratio_report",
    "gale_evenness_facet_count",
]
