"""Shared instances and cached heavy computations for the test suite."""

from functools import cache

import pytest

from li2poly import constructors, faces, model


def unit_square() -> model.HPolytope:
    return model.parse_hrep("""4 2
1 0 1
0 1 1
-1 0 0
0 -1 0""")


def square_pyramid() -> model.HPolytope:
    # Apex (0,0,1) lies on four side facets: not simple.
    return model.parse_hrep("""5 3
0 0 -1 0
1 0 1 1
-1 0 1 1
0 1 1 1
0 -1 1 1""")


def simplex3() -> model.HPolytope:
    return model.parse_hrep("""4 3
-1 0 0 0
0 -1 0 0
0 0 -1 0
1 1 1 1""")


@cache
def cached_instance(family: str, n: int, d: int) -> model.HPolytope:
    return constructors.FAMILIES[family].build(n, d)


@cache
def cached_analysis(family: str, n: int, d: int) -> faces.Analysis:
    """One shared Analysis per instance: its lattice is built at most once."""
    return faces.Analysis(cached_instance(family, n, d))


def cached_f_vector(family: str, n: int, d: int) -> tuple[int, ...]:
    return cached_analysis(family, n, d).f_vector


@pytest.fixture
def square():
    return unit_square()


@pytest.fixture
def pyramid():
    return square_pyramid()
