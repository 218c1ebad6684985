from fractions import Fraction

import pytest

from oracles import facet_image_map, hull_counts, random_unimodular
from parallo import linalg, polytope
from parallo.catalog import catalog
from parallo.errors import GeometryError
from parallo.polytope import (
    Polytope,
    affine_hull_polytope,
    affine_rank,
    central_symmetry,
)

F = Fraction


def half_cube():
    return Polytope.from_vertices([
        (F(sx, 2), F(sy, 2), F(sz, 2))
        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    ])


def test_cube_from_vertices():
    cube = half_cube()
    assert cube.n_facets == 6
    normals = set(cube.facet_normals)
    expected = set()
    for i in range(3):
        for s in (-1, 1):
            n = [0, 0, 0]
            n[i] = s
            expected.add(linalg.vec(n))
    assert normals == expected
    assert set(cube.facet_offsets) == {F(1, 2)}


def test_cube_from_halfspaces():
    hs = []
    for i in range(3):
        for s in (-1, 1):
            n = [0, 0, 0]
            n[i] = s
            hs.append((n, F(1, 2)))
    cube = Polytope.from_halfspaces(hs, 3)
    assert cube.n_vertices == 8
    assert set(cube.vertices) == {
        (F(sx, 2), F(sy, 2), F(sz, 2))
        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    }


def test_truncated_octahedron_halfspaces_to_vertices():
    hs = [((sx, sy, sz), F(3, 4))
          for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    for i in range(3):
        for s in (-1, 1):
            n = [0, 0, 0]
            n[i] = s
            hs.append((n, F(1, 2)))
    to = Polytope.from_halfspaces(hs, 3)
    expected = set()
    for axis in range(3):
        for quarter in (-1, 1):
            for half in (-1, 1):
                for other in range(3):
                    if other == axis:
                        continue
                    v = [F(0)] * 3
                    v[axis] = F(quarter, 4)
                    v[other] = F(half, 2)
                    expected.add(tuple(v))
    assert set(to.vertices) == expected
    assert to.n_vertices == 24


def test_face_lattice_counts_against_hull_oracle():
    for name, counts in [
        ("cube", (8, 12, 6)),
        ("truncated-octahedron", (24, 36, 14)),
        ("elongated-dodecahedron", (18, 28, 12)),
        ("rhombic-dodecahedron", (14, 24, 12)),
        ("hexagonal-prism", (12, 18, 8)),
    ]:
        p = catalog(name).polytope
        assert p.f_vector() == counts
        nv, nf = hull_counts(p.vertices)
        assert (nv, nf) == (counts[0], counts[2])
        # Euler relation for 3-polytopes
        assert counts[0] - counts[1] + counts[2] == 2


def test_face_lattice_is_graded():
    cube = half_cube()
    lat = cube.face_lattice
    assert [len(lat.faces(k)) for k in range(-1, 4)] == [1, 8, 12, 6, 1]
    for k in range(0, 3):
        for face in lat.faces(k):
            supers = lat.superfaces(face, k + 1)
            assert supers, "every proper face lies under a face one dim up"


def test_central_symmetry():
    ok, center = half_cube().is_centrally_symmetric()
    assert ok and center == linalg.zeros(3)
    ok, _ = central_symmetry([linalg.vec([0, 0]), linalg.vec([1, 0]),
                              linalg.vec([0, 1])])
    assert not ok
    rd = catalog("rhombic-dodecahedron").polytope
    for ids in rd.facet_vertex_ids:
        ok, _ = central_symmetry([rd.vertices[i] for i in ids])
        assert ok


def test_apply_affine_identity_and_diagonal():
    cube = half_cube()
    same = cube.apply_affine(linalg.identity(3))
    assert same.vertices == cube.vertices
    box = cube.apply_affine(linalg.mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert sorted(set(box.facet_offsets)) == [F(1, 2), F(1), F(3, 2)]


def test_apply_affine_face_lattice_isomorphism(rng):
    prism = catalog("hexagonal-prism").polytope
    for _ in range(3):
        a = random_unimodular(rng, 3)
        shift = linalg.vec([rng.randint(-2, 2) for _ in range(3)])
        image = prism.apply_affine(a, shift)
        fmap = facet_image_map(prism, image, a, shift)
        assert sorted(fmap) == list(range(prism.n_facets))
        for fi, fj in enumerate(fmap):
            assert len(prism.facet_vertex_ids[fi]) == \
                len(image.facet_vertex_ids[fj])


def test_apply_affine_rejects_singular():
    with pytest.raises(GeometryError):
        half_cube().apply_affine(linalg.mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))


def test_round_trip_halfspaces():
    p = catalog("truncated-octahedron").polytope
    again = Polytope.from_halfspaces(p.halfspaces(), p.dim)
    assert again.vertices == p.vertices
    assert again.facet_normals == p.facet_normals
    assert again.facet_offsets == p.facet_offsets


def test_unbounded_and_degenerate_inputs_rejected():
    with pytest.raises(GeometryError):
        Polytope.from_halfspaces([((1, 0), F(1)), ((0, 1), F(1))], 2)
    with pytest.raises(GeometryError):
        Polytope.from_halfspaces(
            [((1, 0), F(1)), ((-1, 0), F(-1)), ((0, 1), F(0)), ((0, -1), F(0))],
            2,
        )  # a segment: empty interior
    with pytest.raises(GeometryError):
        Polytope.from_vertices([(0, 0), (1, 0), (2, 0)])


def _brute_positively_spans(normals, dim):
    """Origin interior to the brute-force hull of the normals."""
    if affine_rank(normals) < dim:
        return False
    return all(b > 0 for _, b in polytope._facets_from_points(normals, dim))


@pytest.mark.parametrize("dim", [3, 4])
def test_symmetric_normals_positively_span_without_a_hull(rng, dim,
                                                          monkeypatch):
    cases = []
    for trial in range(12):
        # every third set lies in a coordinate hyperplane: rank < dim
        free = dim - 1 if trial % 3 == 2 else dim
        half = set()
        while len(half) < rng.randint(dim, dim + 2):
            v = [F(rng.randint(-2, 2)) for _ in range(free)] + [F(0)] * (dim - free)
            if any(v):
                half.add(tuple(v))
        normals = sorted(half | {linalg.vneg(v) for v in half})
        cases.append((normals, _brute_positively_spans(normals, dim)))
    assert {expected for _, expected in cases} == {True, False}

    def no_hull(*args):
        raise AssertionError("symmetric normals need no hull")

    monkeypatch.setattr(polytope, "_facets_from_points", no_hull)
    for normals, expected in cases:
        assert polytope._positively_spans(normals, dim) == expected


def test_boundedness_controls():
    e = [linalg.vec(row) for row in linalg.identity(3)]
    # non-symmetric and bounded: a simplex
    simplex = Polytope.from_halfspaces(
        [((1, 1, 1), F(1))] + [(linalg.vneg(x), F(0)) for x in e], 3)
    assert simplex.n_vertices == 4
    # non-symmetric and unbounded: the -e3 side is open
    open_box = [(x, F(1)) for x in e] + [(linalg.vneg(x), F(1)) for x in e[:2]]
    with pytest.raises(GeometryError, match="halfspace intersection is unbounded"):
        Polytope.from_halfspaces(open_box, 3)
    # symmetric but spanning only a plane
    slab = [(linalg.vscale(s, x), F(1)) for x in e[:2] for s in (1, -1)]
    with pytest.raises(GeometryError, match="do not span the space"):
        Polytope.from_halfspaces(slab, 3)


def test_affine_hull_of_a_single_point():
    with pytest.raises(GeometryError, match="a single point has no hull"):
        affine_hull_polytope([linalg.vec([1, 2])])


def test_recentered():
    shifted = half_cube().translated(linalg.vec([1, 2, 3]))
    back = shifted.recentered()
    assert back.vertices == half_cube().vertices
