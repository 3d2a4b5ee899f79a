"""Exact-arithmetic face enumeration and complexity bounds for polytopes
whose inequalities touch at most two variables.

The package builds the paired-polygon product family and the dual cyclic
polytope with exact rational data, enumerates their face lattices by brute
force, and checks every closed-form count and separation bound against
that oracle. Each exported name is imported from its module on first use,
so importing the package, or one module of it, loads no other module.
"""

from importlib import import_module

_HOME = {
    "Constraint": "model", "HPolytope": "model", "LI2Profile": "model",
    "Analysis": "faces",
    "parse_hrep": "model", "serialize_hrep": "model", "li2_profile": "model",
    "convex_polygon": "constructors", "pstar": "constructors",
    "dual_cyclic": "constructors", "prism3": "constructors",
    "enumerate_vertices": "faces", "face_lattice": "faces", "edge_graph": "faces",
    "h_from_f": "hvector", "f_from_h": "faces",
    "indegree_hvector": "hvector", "strengthened_ubt_check": "hvector",
    "fk_dual_cyclic": "formulas", "fk_pstar": "formulas",
    "lemma41_bound": "formulas",
    "thm42_bound": "formulas", "thm42_bound_literal": "formulas",
    "ratio_report": "formulas",
}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
