"""Reference double-description kernel and face lattice, for differential tests.

These are the straightforward forms that faces.enumerate_vertices and
faces.face_lattice replaced, kept as they were apart from names, docstrings
and the numbering of the lattice's faces, which is the analysis's: bit k
is generator k. The kernel tests each (+, -) ray pair against every other
ray's zero set, which costs O(R) per pair. The lattice closes the faces,
then takes their dimensions, then their tight sets, in three passes of n
ANDs per face. The kernel clears the rows' denominators itself and
takes nothing from faces but the NonPointedError it raises.
"""

from __future__ import annotations

from math import gcd, lcm

from li2poly.faces import NonPointedError
from li2poly.model import HPolytope


def _incidence(n: int, zero_sets) -> list[int]:
    on_row = [0] * n
    for k, zeros in enumerate(zero_sets):
        for i in range(n):
            if zeros >> i & 1:
                on_row[i] |= 1 << k
    return on_row


def _integer_rows(p: HPolytope) -> list[tuple[int, ...]]:
    """Row i as (a_i, -b_i) times the lcm of its denominators. It is cleared
    here, not by faces, so a fault in the kernel's own conversion shows."""
    rows = [(*c.coeffs, -c.rhs) for c in p.constraints]
    return [tuple(int(x * lcm(*(y.denominator for y in row))) for x in row)
            for row in rows]


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def reference_vertices(p: HPolytope):
    """The generators of faces.enumerate_vertices, by the pairwise scan."""
    d, n = p.dim, p.n
    lines = [tuple(int(j == k) for j in range(d + 1)) for k in range(d + 1)]
    rays, zeros, seen = [], [], 0
    for i, h in [(n, (0,) * d + (-1,)), *enumerate(_integer_rows(p))]:
        bit = 1 << i
        line = next((l for l in lines if _dot(h, l)), None)
        if line is not None:
            lines.remove(line)
            hl = _dot(h, line)
            if hl > 0:
                line, hl = tuple(-x for x in line), -hl
            def project(x):
                return _primitive([_dot(h, x) * y - hl * v for v, y in zip(x, line)])
            lines = [project(l) for l in lines]
            rays = [project(r) for r in rays] + [line]
            zeros = [z | bit for z in zeros] + [seen]
        else:
            values = [_dot(h, r) for r in rays]
            plus = [k for k, v in enumerate(values) if v > 0]
            minus = [k for k, v in enumerate(values) if v < 0]
            need = d - 1 - len(lines)
            new_rays, new_zeros = [], []
            for a in plus:
                for b in minus:
                    common = zeros[a] & zeros[b]
                    if common.bit_count() < need:
                        continue
                    if any(z & common == common for k, z in enumerate(zeros)
                           if k != a and k != b):
                        continue
                    va, vb = values[a], values[b]
                    new_rays.append(_primitive([va * y - vb * x for x, y
                                                in zip(rays[a], rays[b])]))
                    new_zeros.append(common | bit)
            for k, v in enumerate(values):
                if v <= 0:
                    new_rays.append(rays[k])
                    new_zeros.append(zeros[k] | bit if v == 0 else zeros[k])
            rays, zeros = new_rays, new_zeros
        seen |= bit
    if not any(r[-1] for r in rays):
        raise ValueError("polyhedron is empty")
    if lines:
        raise NonPointedError(
            "row rank below the ambient dimension: nonzero lineality space")
    rows_mask = (1 << n) - 1
    return sorted((r, z & rows_mask) for r, z in zip(rays, zeros))


def reference_faces(a) -> dict[int, tuple[int, list[int]]]:
    """Each face's generator bitset, with its dim and tight rows, by
    closure, then dimensions, then tight sets."""
    on_row = _incidence(a.p.n, [z for _, z in a.generators])
    on_vertex = sum(1 << k for k, (g, _) in enumerate(a.generators) if g[-1])
    everything = (1 << len(a.generators)) - 1
    found, stack = {everything}, [everything]
    while stack:
        face = stack.pop()
        for bits in on_row:
            sub = face & bits
            if sub & on_vertex and sub not in found:
                found.add(sub)
                stack.append(sub)

    dims: dict[int, int] = {}
    for face in sorted(found, key=int.bit_count):
        dims[face] = 1 + max((dims[sub] for bits in on_row
                              if (sub := face & bits) != face and sub & on_vertex),
                             default=-1)
    return {face: (fdim, [i for i, bits in enumerate(on_row) if bits & face == face])
            for face, fdim in dims.items()}
