import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import an_star, fixture_polytope
from oracles import (
    apply_affine,
    central_symmetry,
    dot_product_facet_vertex_ids,
    f_vector,
    facet_image_map,
    fraction_affine_rank,
    fraction_extreme_rays,
    fraction_facets_from_points,
    fraction_point_vertices,
    fraction_vertices_from_halfspaces,
    full_face_lattice,
    halfspaces,
    hull_counts,
    random_unimodular,
    scanned_face_facets,
    scanned_superfaces,
)
from parallo import linalg, polytope
from parallo.catalog import catalog, catalog_names
from parallo.errors import GeometryError
from parallo.lattice import dv_cell
from parallo.polytope import Polytope

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
        assert f_vector(p) == counts
        nv, nf = hull_counts(p.vertices)
        assert (nv, nf) == (counts[0], counts[2])
        # Euler relation for 3-polytopes
        assert counts[0] - counts[1] + counts[2] == 2


def test_face_lattice_is_graded():
    cube = half_cube()
    lat = full_face_lattice(cube)
    assert [len(lat.faces(k)) for k in range(-1, 4)] == [1, 8, 12, 6, 1]
    for k in range(0, 3):
        for face in lat.faces(k):
            supers = scanned_superfaces(lat, face, k + 1)
            assert supers, "every proper face lies under a face one dim up"
            assert all(set(face.facets) >= set(lat.faces(k + 1)[i].facets)
                       for i in supers)


def cross_polytope(d):
    """Non-simple for d >= 3: 2^(d-1) facets meet at each vertex, and
    for d = 4 each edge lies on 4 facets."""
    return Polytope.from_vertices(
        [row for e in linalg.identity(d) for row in (e, linalg.vneg(e))])


def assert_faces_match_the_scan(p):
    """Every face's facets are those whose vertex sets hold it, and its
    dimension is the affine rank of its vertices."""
    for dim, faces in p.face_lattice.faces_by_dim.items():
        for face in faces:
            assert face.facets == scanned_face_facets(p, face.vertex_ids)
            assert face.dim == dim == fraction_affine_rank(
                [p.vertices[i] for i in face.vertex_ids])


# cheapest first, so that a failing example shrinks on a small case
_INCIDENCE_CASES = {
    "octahedron": lambda: cross_polytope(3),
    "16-cell": lambda: cross_polytope(4),
    **{name: lambda name=name: catalog(name).polytope
       for name in catalog_names()},
    "A4*": lambda: dv_cell(an_star(4)),
}


@given(st.sampled_from(list(_INCIDENCE_CASES)), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_face_facets_and_grades_match_the_subset_scan(name, mapped, rng):
    p = _INCIDENCE_CASES[name]()
    if mapped:
        p = apply_affine(p, random_unimodular(rng, p.dim),
                         [rng.randint(-2, 2) for _ in range(p.dim)])
    assert_faces_match_the_scan(p)


@pytest.mark.parametrize("name", list(_INCIDENCE_CASES))
def test_face_grades_match_the_fraction_affine_rank(name, rng):
    """The grade read off the incidences is the `Fraction` affine rank of
    the face's vertices, on every catalog cell, the cross-polytopes and
    A4*, and on a seeded unimodular image of each."""
    p = _INCIDENCE_CASES[name]()
    image = apply_affine(p, random_unimodular(rng, p.dim),
                         [rng.randint(-2, 2) for _ in range(p.dim)])
    for q in (p, image):
        for dim, faces in q.face_lattice.faces_by_dim.items():
            for face in faces:
                assert face.dim == dim == fraction_affine_rank(
                    [q.vertices[i] for i in face.vertex_ids])


@pytest.mark.parametrize("name", list(_INCIDENCE_CASES))
def test_face_lattice_matches_the_full_closure_to_codim_3(name, rng):
    """The faces of codim 1 to min(3, d) are those of the full closure,
    with the same vertex ids, facets, grade and order, on every catalog
    cell (d = 2 stops at the vertices), the cross-polytopes and A4*, and
    on a seeded unimodular image of each; no other dimension is built."""
    p = _INCIDENCE_CASES[name]()
    image = apply_affine(p, random_unimodular(rng, p.dim),
                         [rng.randint(-2, 2) for _ in range(p.dim)])
    for q in (p, image):
        built = q.face_lattice.faces_by_dim
        dims = [q.dim - k for k in range(1, min(3, q.dim) + 1)]
        assert list(built) == dims
        full = full_face_lattice(q)
        for dim in dims:
            assert built[dim] == full.faces(dim)


def test_faces_of_a_dimension_not_built_raise():
    """Only codim 1 to min(3, d) is built: the cube has no empty face
    and the 24-cell no vertices to hand out."""
    with pytest.raises(KeyError):
        catalog("cube").polytope.face_lattice.faces(-1)
    with pytest.raises(KeyError):
        catalog("lattice-D4").polytope.face_lattice.faces(0)


@pytest.mark.parametrize("name", list(_INCIDENCE_CASES) + [
    "fixture:" + f for f in ("octahedron", "pentagon_prism",
                             "perturbed_prism", "zonotope5")])
def test_hull_incidences_match_the_dot_products(name, rng):
    """The vertex-facet incidences each hull carries are those of a dot
    product per vertex and facet: for both hull directions, on every
    catalog cell, the cross-polytopes, A4* and the polytope fixtures, on
    a seeded unimodular image of each, and on their recentred copies."""
    if name.startswith("fixture:"):
        p = fixture_polytope(name[len("fixture:"):])
    else:
        p = _INCIDENCE_CASES[name]()
    image = apply_affine(p, random_unimodular(rng, p.dim),
                         [F(rng.randint(-4, 4), 3) for _ in range(p.dim)])
    for q in (p, image):
        for hull in (Polytope.from_vertices(q.vertices),
                     Polytope.from_halfspaces(halfspaces(q), q.dim)):
            assert hull == q
            for r in (hull, hull.recentered()):
                assert r.facet_vertex_ids == dot_product_facet_vertex_ids(r)


def test_point_hull_incidences_skip_the_points_that_are_not_vertices():
    """Edge midpoints and the centre lie on facets of the cube but are
    not vertices, so no facet lists them."""
    cube = half_cube()
    points = list(cube.vertices) + [linalg.zeros(3)] + [
        linalg.vscale(F(1, 2), linalg.vadd(a, b))
        for a, b in combinations(cube.vertices, 2)]
    hull = Polytope.from_vertices(points)
    assert hull == cube
    assert hull.facet_vertex_ids == cube.facet_vertex_ids == \
        dot_product_facet_vertex_ids(cube)


@pytest.mark.parametrize("d, f_vector, vertex_facets, edge_facets", [
    (3, (6, 12, 8), 4, 2),
    (4, (8, 24, 32, 16), 8, 4),
])
def test_cross_polytope_faces_grade_by_normal_rank(d, f_vector,
                                                   vertex_facets, edge_facets):
    """More facets meet at each vertex (and, for d = 4, each edge) than
    its codimension, yet the incidences still grade it."""
    p = cross_polytope(d)
    lat = full_face_lattice(p)
    assert tuple(len(lat.faces(k)) for k in range(d)) == f_vector
    assert {len(v.facets) for v in lat.faces(0)} == {vertex_facets}
    assert {len(e.facets) for e in lat.faces(1)} == {edge_facets}
    assert lat.faces(-1)[0].facets == tuple(range(p.n_facets))
    assert lat.faces(d)[0].facets == ()
    assert_faces_match_the_scan(p)


def test_central_symmetry():
    ok, center = central_symmetry(list(half_cube().vertices))
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
    same = apply_affine(cube, linalg.identity(3))
    assert same.vertices == cube.vertices
    box = apply_affine(cube, linalg.mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert sorted(set(box.facet_offsets)) == [F(1, 2), F(1), F(3, 2)]


def test_apply_affine_face_lattice_isomorphism(rng):
    prism = catalog("hexagonal-prism").polytope
    for _ in range(3):
        a = random_unimodular(rng, 3)
        shift = linalg.vec([rng.randint(-2, 2) for _ in range(3)])
        image = apply_affine(prism, a, shift)
        fmap = facet_image_map(prism, image, a, shift)
        assert sorted(fmap) == list(range(prism.n_facets))
        for fi, fj in enumerate(fmap):
            assert len(prism.facet_vertex_ids[fi]) == \
                len(image.facet_vertex_ids[fj])


def test_apply_affine_rejects_singular():
    with pytest.raises(GeometryError):
        apply_affine(half_cube(), linalg.mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))


def test_round_trip_halfspaces():
    p = catalog("truncated-octahedron").polytope
    again = Polytope.from_halfspaces(halfspaces(p), p.dim)
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
    with pytest.raises(GeometryError, match="empty interior"):
        Polytope.from_halfspaces(
            [((1, 0), F(1)), ((-1, 0), F(-2)), ((0, 1), F(1)), ((0, -1), F(1))],
            2,
        )  # infeasible: x <= 1 and x >= 2 leave only the apex of the cone
    with pytest.raises(GeometryError, match="normal is the zero vector"):
        Polytope.from_halfspaces(
            [((1, 0), F(1)), ((-1, 0), F(1)), ((0, 1), F(1)), ((0, -1), F(1)),
             ((0, 0), F(1))], 2)
    with pytest.raises(GeometryError):
        Polytope.from_vertices([(0, 0), (1, 0), (2, 0)])


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


def test_a_non_symmetric_halfspace_input_builds_one_hull(monkeypatch):
    calls = []
    rays = polytope._extreme_rays

    def counted(rows):
        calls.append(len(rows))
        return rays(rows)

    monkeypatch.setattr(polytope, "_extreme_rays", counted)
    e = [linalg.vec(row) for row in linalg.identity(3)]
    simplex = Polytope.from_halfspaces(
        [((1, 1, 1), F(1))] + [(linalg.vneg(x), F(0)) for x in e], 3)
    assert simplex.n_vertices == 4
    assert len(calls) == 1


def test_recentered():
    shifted = half_cube().translated(linalg.vec([1, 2, 3]))
    back = shifted.recentered()
    assert back.vertices == half_cube().vertices
    # a centred polytope is its own recentring, incidences and all
    assert back.recentered() is back


# -- the integer kernels against the Fraction loops they replaced ------

# small integers make many coplanar subsets; fractions mix denominators
_coordinate = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)


@st.composite
def point_sets(draw):
    """A full-dimensional rational point set in d = 2, 3 or 4, with
    midpoints (interior or boundary points) and duplicates added."""
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(dim + 1, 9 - dim // 2))
    pts = [tuple(draw(_coordinate) for _ in range(dim)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    for _ in range(draw(st.integers(0, 2))):
        pts.append(draw(st.sampled_from(pts)))
    return dim, pts


@given(point_sets())
@settings(max_examples=120, deadline=None)
def test_point_hull_matches_the_fraction_loop(case):
    dim, pts = case
    assume(fraction_affine_rank(pts) == dim)
    facets = fraction_facets_from_points(pts, dim)
    hull = Polytope.from_vertices(pts)
    assert halfspaces(hull) == facets
    assert list(hull.vertices) == fraction_point_vertices(pts, facets)


@st.composite
def symmetric_halfspaces(draw):
    """Normals closed under negation, spanning R^d, with positive
    rational offsets (a different one on each side)."""
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(dim, 6 - dim // 2))
    offset = st.fractions(min_value=Fraction(1, 6), max_value=3,
                          max_denominator=6)
    hs = []
    for _ in range(n):
        normal = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
        assume(any(normal))
        hs.append((normal, draw(offset)))
        hs.append((tuple(-x for x in normal), draw(offset)))
    assume(linalg.rank(tuple(linalg.vec(h) for h, _ in hs)) == dim)
    return dim, hs


@given(symmetric_halfspaces())
@settings(max_examples=120, deadline=None)
def test_halfspace_vertices_match_the_fraction_loop(case):
    dim, hs = case
    assert Polytope.from_halfspaces(hs, dim).vertices == \
        tuple(fraction_vertices_from_halfspaces(hs, dim))


def test_six_generator_zonotope():
    """A zonotope of n = 6 generators in general position has
    n(n - 1) + 2 = 32 vertices and n(n - 1) = 30 facets (closed
    formulas, f-vector (32, 60, 30)); its 64 sign sums are the input."""
    rng = random.Random(6)
    while True:
        gens = [linalg.vec([rng.randint(-3, 3) for _ in range(3)])
                for _ in range(6)]
        if all(linalg.det(tri) != 0 for tri in combinations(gens, 3)):
            break
    points = [
        tuple(sum(s * g[k] for s, g in zip(signs, gens)) for k in range(3))
        for signs in product((-1, 1), repeat=6)
    ]
    z = Polytope.from_vertices(points)
    assert (z.n_vertices, z.n_facets) == (32, 30)
    assert f_vector(z) == (32, 60, 30)
    assert hull_counts(points) == (32, 30)
    # each pair of generators spans the normals of two opposite facets
    normals = set()
    for a, b in combinations(gens, 2):
        n = linalg.primitive([int(a[(k + 1) % 3] * b[(k + 2) % 3]
                                  - a[(k + 2) % 3] * b[(k + 1) % 3])
                              for k in range(3)])
        normals |= {n, tuple(-x for x in n)}
    assert set(z.facet_normals) == normals


# -- the double-description routine ------------------------------------

@st.composite
def pointed_cones(draw):
    """Integer rows of rank D in D = 2, 3 or 4 columns; small entries
    make many rays with several zero rows, and some cones are {0}."""
    dim = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=dim, max_size=dim + 5))
    assume(linalg.rank(tuple(linalg.vec(r) for r in rows)) == dim)
    return rows


@given(pointed_cones())
@settings(max_examples=150, deadline=None)
def test_extreme_rays_match_the_subset_kernels(rows):
    rays = polytope._extreme_rays(rows)
    assert [ray for ray, _ in rays] == fraction_extreme_rays(rows)
    assert all(math.gcd(*ray) == 1 for ray, _ in rays)
    # each ray carries exactly the rows it vanishes on
    for ray, on in rays:
        assert on == sum(1 << i for i, row in enumerate(rows)
                         if not sum(a * y for a, y in zip(row, ray)))


def test_extreme_rays_of_small_cones():
    # the orthant: one ray per axis
    assert polytope._extreme_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == \
        [((0, 0, 1), 0b011), ((0, 1, 0), 0b101), ((1, 0, 0), 0b110)]
    # the cone over a square: four rays, no join across a diagonal
    square = [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]
    assert [ray for ray, _ in polytope._extreme_rays(square)] == \
        [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    with pytest.raises(GeometryError, match="not pointed"):
        polytope._extreme_rays([[1, 0, 0], [0, 1, 0], [-1, -1, 0]])


@given(point_sets())
@settings(max_examples=80, deadline=None)
def test_halfspace_round_trip_of_a_point_hull(case):
    dim, pts = case
    assume(fraction_affine_rank(pts) == dim)
    p = Polytope.from_vertices(pts)
    q = Polytope.from_halfspaces(halfspaces(p), dim)
    assert q.vertices == p.vertices == \
        tuple(fraction_vertices_from_halfspaces(halfspaces(p), dim))
    assert halfspaces(q) == halfspaces(p)


def test_hull_rejects_an_unbounded_set_without_the_span_test():
    # the open box of test_boundedness_controls: the hull itself finds
    # -e3 as a ray with t = 0
    e = [linalg.vec(row) for row in linalg.identity(3)]
    open_box = [(x, F(1)) for x in e] + [(linalg.vneg(x), F(1)) for x in e[:2]]
    with pytest.raises(GeometryError, match="halfspace intersection is unbounded"):
        Polytope.from_halfspaces(open_box, 3)


def test_one_dimensional_segment():
    seg = Polytope.from_halfspaces([((2,), F(3)), ((-1,), F(1, 2))], 1)
    assert seg.vertices == ((F(-1, 2),), (F(3, 2),))
    assert halfspaces(seg) == [((F(-1),), F(1, 2)), ((F(1),), F(3, 2))]
    again = Polytope.from_vertices([(F(3, 2),), (0,), (F(-1, 2),)])
    assert again == seg
