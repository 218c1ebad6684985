import math
from fractions import Fraction

import pytest

from oracles import exhaustive_coset_minimizers, hull_counts
from parallo import linalg
from parallo.errors import GeometryError
from parallo.polytope import central_symmetry
from parallo.lattice import (
    Lattice,
    covering_counts,
    dv_cell,
    relevant_vectors,
    shortest_in_coset,
    vectors_in_ball,
)

F = Fraction


def z3():
    return Lattice.create([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def bcc():
    return Lattice.create([[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), F(1, 2)]])


def a2():
    return Lattice.create([[1, 0], [0, 1]], [[2, 1], [1, 2]])


def test_create_validation():
    with pytest.raises(GeometryError):
        Lattice.create([[1, 0], [2, 0]])
    with pytest.raises(GeometryError):
        Lattice.create([[1, 0], [0, 1]], [[1, 2], [2, 1]])
    with pytest.raises(GeometryError):
        Lattice.create([[1, 0], [0, 1]], [[1, 2], [3, 1]])


def test_shortest_in_coset_z3():
    mins = shortest_in_coset(z3(), (1, 0, 0))
    assert mins == sorted([linalg.vec([1, 0, 0]), linalg.vec([-1, 0, 0])])
    mins = shortest_in_coset(z3(), (1, 1, 0))
    assert len(mins) == 4
    assert set(mins) == {
        linalg.vec([1, 1, 0]), linalg.vec([-1, -1, 0]),
        linalg.vec([1, -1, 0]), linalg.vec([-1, 1, 0]),
    }


def test_shortest_in_coset_bcc_against_oracle():
    lat = bcc()
    mins = shortest_in_coset(lat, (F(1, 2), F(1, 2), F(1, 2)))
    assert mins == sorted([
        linalg.vec([F(1, 2), F(1, 2), F(1, 2)]),
        linalg.vec([F(-1, 2), F(-1, 2), F(-1, 2)]),
    ])
    for parity in [(0, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]:
        oracle = exhaustive_coset_minimizers(lat.basis, lat.gram, parity)
        assert shortest_in_coset(lat, lat.from_coefficients(parity)) == oracle


def test_relevant_vectors_z3():
    rv = relevant_vectors(z3())
    assert len(rv) == 6
    assert set(rv) == {
        linalg.vec(v) for v in
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    }


def test_relevant_vectors_bcc():
    rv = relevant_vectors(bcc())
    assert len(rv) == 14
    halves = [v for v in rv if all(abs(x) == F(1, 2) for x in v)]
    units = [v for v in rv if sorted(map(abs, v)) == [0, 0, 1]]
    assert len(halves) == 8 and len(units) == 6


def test_relevant_vectors_a2_gram():
    rv = relevant_vectors(a2())
    assert set(rv) == {
        linalg.vec(v) for v in
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    }


def test_relevant_vectors_pairing_and_parity():
    for lat in (z3(), bcc(), a2()):
        rv = relevant_vectors(lat)
        assert len(rv) % 2 == 0
        assert len(rv) <= 2 * (2 ** lat.dim - 1)
        s = set(rv)
        for v in rv:
            assert linalg.vneg(v) in s


def test_dv_cell_shapes():
    assert dv_cell(z3()).f_vector() == (8, 12, 6)
    assert dv_cell(bcc()).f_vector() == (24, 36, 14)
    assert dv_cell(a2()).f_vector() == (6, 6)


def an_star(n):
    """The lattice A_n*: the standard basis under the inverse of the
    Cartan matrix of A_n (the Gram matrix of its fundamental weights)."""
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0
               for j in range(n)] for i in range(n)]
    return Lattice.create(linalg.identity(n), linalg.inverse(linalg.mat(cartan)))


@pytest.mark.parametrize("n", [4, 5])
def test_dv_cell_of_an_star_is_the_permutohedron(n):
    """(n + 1)! vertices and 2^(n + 1) - 2 facets, the counts of the
    n-dimensional permutohedron, and the same counts from qhull."""
    cell = dv_cell(an_star(n))
    counts = (math.factorial(n + 1), 2 ** (n + 1) - 2)
    assert (cell.n_vertices, cell.n_facets) == counts
    assert hull_counts(cell.vertices) == counts


def test_dv_cell_central_symmetry_and_facet_centers():
    for lat in (z3(), bcc(), a2()):
        cell = dv_cell(lat)
        ok, center = cell.is_centrally_symmetric()
        assert ok and all(x == 0 for x in center)
        rv = relevant_vectors(lat)
        for v in rv:
            normal = linalg.matvec(lat.gram, v)
            matches = [
                fi for fi, n in enumerate(cell.facet_normals)
                if linalg.scale_to_content_one(normal) == n
                and linalg.dot(n, linalg.vscale(F(1, 2), v)) == cell.facet_offsets[fi]
            ]
            assert len(matches) == 1
            ids = cell.facet_vertex_ids[matches[0]]
            facet_center = tuple(
                sum((cell.vertices[i][k] for i in ids), F(0)) / len(ids)
                for k in range(cell.dim)
            )
            assert facet_center == linalg.vscale(F(1, 2), v)
        for ids in cell.facet_vertex_ids:
            ok, _ = central_symmetry([cell.vertices[i] for i in ids])
            assert ok


def test_vectors_in_ball_exactness():
    lat = z3()
    ball = vectors_in_ball(lat, F(2))
    assert len(ball) == 1 + 6 + 12  # origin, units, sqrt2 shell
    assert all(lat.norm_sq(v) <= 2 for v in ball)


def test_vectors_in_ball_around_shifted_center():
    lat = z3()
    pts = vectors_in_ball(lat, F(3, 4), around=(F(1, 2), F(1, 2), F(1, 2)))
    assert len(pts) == 8  # the surrounding unit cube's corners


def test_tiling_identity(rng):
    for lat in (z3(), bcc(), a2()):
        cell = dv_cell(lat)
        d = lat.dim
        interior_hits = 0
        for _ in range(200):
            coeffs = [F(rng.randint(0, 996), 997) for _ in range(d)]
            x = lat.from_coefficients(coeffs)
            closed, interior = covering_counts(lat, cell, x)
            # partition property: interior of exactly one tile, or on the
            # common boundary of several
            assert interior <= 1 <= closed
            assert (interior == 1) == (closed == 1)
            interior_hits += interior
        assert interior_hits >= 190
