"""Differential tests: the incidence-built face lattice against the LP oracle.

faces.face_lattice closes candidate tight sets by intersecting vertex tight
sets and ray zero sets. lp_oracle closes them through relative-interior
witnesses and decides boundedness face by face with exact programs. Both
must give the same (tight_set, dim, vertex_ids) on the acceptance
instances, on the paper's larger instances and on random two-variable
systems. Analysis.bounded, read off the vertex tight sets, must agree with
the programs of lp_geometry.is_bounded, and every lattice must satisfy the
Euler relation for that boundedness. Separately, a face has no vertex_ids
exactly when lp_geometry.is_bounded fails on it; every face of a bounded
polyhedron is bounded, so that check runs on unbounded instances only.
"""

import pytest
from hypothesis import given

from conftest import RANDOM, square_pyramid, two_variable_systems
from li2poly import constructors, faces
from li2poly.model import HPolytope, parse_hrep
from lp_geometry import is_bounded
from lp_oracle import face_is_bounded, lp_face_lattice

INSTANCES = {
    "pstar_8_4": lambda: constructors.pstar(8, 4),
    "pstar_9_5": lambda: constructors.pstar(9, 5),
    "pstar_7_3": lambda: constructors.pstar(7, 3),
    "dual_cyclic_8_4": lambda: constructors.dual_cyclic(8, 4),
    "prism3_8": lambda: constructors.prism3(8),
    "square_pyramid": square_pyramid,
    "segment": lambda: parse_hrep("4 2\n1 0 1\n-1 0 -1\n0 1 1\n0 -1 0"),
    # The square pyramid without its base: an unbounded cone whose apex
    # lies on four facets.
    "pyramid_cone": lambda: HPolytope(3, square_pyramid().constraints[1:]),
}

def _lattice(p: HPolytope):
    return [(f.tight_set, f.dim, f.vertex_ids) for f in faces.Analysis(p).lattice]


def _check_against_oracle(p: HPolytope) -> None:
    lattice = _lattice(p)
    assert lattice == lp_face_lattice(p)
    bounded = is_bounded(p)
    assert faces.Analysis(p).bounded == bounded
    euler = sum((-1) ** dim for _, dim, _ in lattice)
    assert euler == (1 if bounded else 0)


def _check_ray_coverage(p: HPolytope) -> None:
    for tight_set, _, vertex_ids in _lattice(p):
        assert (vertex_ids is None) == (not face_is_bounded(p, tight_set))


@pytest.mark.parametrize("name", INSTANCES)
def test_lattice_matches_lp_oracle(name):
    _check_against_oracle(INSTANCES[name]())


@pytest.mark.parametrize("build", [
    lambda: constructors.pstar(12, 6),
    lambda: constructors.pstar(13, 7),
    lambda: constructors.dual_cyclic(10, 4),
    lambda: constructors.dual_cyclic(9, 5),
], ids=["pstar_12_6", "pstar_13_7", "dual_cyclic_10_4", "dual_cyclic_9_5"])
def test_lattice_matches_lp_oracle_on_paper_instances(build):
    _check_against_oracle(build())


@pytest.mark.parametrize("name", ["pstar_7_3", "pyramid_cone"])
def test_vertex_ids_none_exactly_on_unbounded_faces(name):
    _check_ray_coverage(INSTANCES[name]())


@RANDOM
@given(two_variable_systems())
def test_lattice_matches_lp_oracle_on_random_systems(p):
    _check_against_oracle(p)


@RANDOM
@given(two_variable_systems())
def test_vertex_ids_none_exactly_on_unbounded_faces_of_random_systems(p):
    _check_ray_coverage(p)
