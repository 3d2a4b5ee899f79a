"""The streamed lattice pass against the whole lattice.

Analysis reads the f-vector and the edges from one pass over
faces.face_lattice and keeps no face. Here the same answers are computed
from the collected lattice by the formulas the analysis used while it
held every face, and the pass is checked to drop what it has visited.
The facet adjacency count, f_{d-2}, must equal C(tight rows, 2) summed
over the (d-2)-faces, which tests the diamond property on every bounded,
nonredundant, full-dimensional input. A 1-face with a third generator
must still exit 4.
"""

import tracemalloc
from math import comb

import pytest
from hypothesis import given

from conftest import (RANDOM, collect_lattice, outcome, square_pyramid,
                      two_variable_systems)
from li2poly import constructors, faces
from li2poly.cli import run
from li2poly.model import HPolytope


def _members(face: int) -> tuple[int, ...]:
    return tuple(k for k in range(face.bit_length()) if face >> k & 1)


def _check_stream(p: HPolytope) -> None:
    whole = collect_lattice(faces.Analysis(p))
    counts = [0] * (p.dim + 1)
    for dim, _, _ in whole:
        counts[dim] += 1
    one_faces = [face for dim, _, face in whole if dim == 1]
    ridges = sum(comb(tight.bit_count(), 2) for dim, tight, _ in whole
                 if dim == p.dim - 2)

    a = faces.Analysis(p)
    assert a.f_vector == tuple(counts)
    if a.bounded:
        assert all(face.bit_count() == 2 for face in one_faces)
        assert a.edge_graph == sorted(map(_members, one_faces))
        expected = ("ok", ridges)
        if a.redundant:
            expected = ("error", ValueError,
                        f"rows {sorted(a.redundant)} are redundant; adjacency "
                        "counts need a nonredundant system")
        elif not counts[-1]:
            expected = ("error", ValueError,
                        f"the polytope is not full-dimensional in R^{p.dim}; "
                        "adjacency counts need rows in bijection with facets")
    else:
        with pytest.raises(ValueError, match=r"^edge graph requires a bounded polytope$"):
            a.edge_graph
        expected = ("error", ValueError, "facet adjacency requires a bounded polytope")
    assert outcome(lambda: a.facet_adjacency_count) == expected


@pytest.mark.parametrize("build", [
    lambda: constructors.pstar(8, 4),
    lambda: constructors.pstar(12, 6),
    lambda: constructors.pstar(13, 7),
    lambda: constructors.pstar(16, 8),
    lambda: constructors.dual_cyclic(8, 4),
    lambda: constructors.dual_cyclic(10, 4),
    lambda: constructors.dual_cyclic(9, 5),
    lambda: constructors.prism3(8),
    square_pyramid,
    lambda: HPolytope(3, square_pyramid().constraints[1:]),
], ids=["pstar_8_4", "pstar_12_6", "pstar_13_7", "pstar_16_8", "dual_cyclic_8_4",
        "dual_cyclic_10_4", "dual_cyclic_9_5", "prism3_8", "pyramid", "pyramid_cone"])
def test_stream_matches_the_whole_lattice(build):
    _check_stream(build())


@RANDOM
@given(two_variable_systems())
def test_stream_matches_the_whole_lattice_on_random_systems(p):
    _check_stream(p)


def test_stream_drops_each_bucket_once_visited():
    # pstar(16,8) is combinatorially the 8-cube: 6561 faces, 1792 in each
    # of its widest two levels. The pass holds about two levels at once,
    # and when it yields its last face, a vertex, only the vertex bucket.
    a = faces.Analysis(constructors.pstar(16, 8))
    a.on_row  # the generators and their transpose are not the pass's
    tracemalloc.start()
    try:
        a.f_vector
        stream_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.clear_traces()  # forget the cached answers
        for _ in faces.face_lattice(a):
            held_at_last_face = tracemalloc.get_traced_memory()[0]
        tracemalloc.clear_traces()
        whole = collect_lattice(a)
        lattice_size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(whole) == 3 ** 8
    assert stream_peak < lattice_size
    assert held_at_last_face < lattice_size / 10


def test_a_one_face_with_a_third_generator_exits_4(monkeypatch, capsys):
    real = faces.face_lattice

    def broken(a):
        found = list(real(a))
        top = max(codim for codim, _ in found)
        k = next(k for k, (codim, _) in enumerate(found) if codim == top - 1)
        codim, face = found[k]
        third = next(1 << j for j in range(len(a.generators)) if not face >> j & 1)
        found[k] = (codim, face | third)
        yield from found

    monkeypatch.setattr(faces, "face_lattice", broken)
    message = "bounded 1-face without exactly two vertices"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        faces.Analysis(constructors.pstar(8, 4)).edge_graph
    assert run(["verify", "pstar", "--n", "8", "--d", "4", "--json",
                "--no-timing"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"internal error: {message}\n")
