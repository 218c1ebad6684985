import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    LATTICE_CATALOG,
    POLYTOPE_CATALOG,
    SEED,
    an_star,
    built,
    fixture_polytope,
)
from generators import cartan, d_edges
from oracles import (
    apply_affine,
    ball_translate_members,
    central_symmetry,
    contains,
    dot_product_facet_vertex_ids,
    dual3_signature,
    dual_cell_centers,
    is_k_irreducible,
    per_ridge_analyze,
    rank,
    vscale,
    vsub,
    zeros,
)
from parallo import linalg, parallelohedron, report, venkov
from parallo.catalog import catalog
from parallo.errors import DualCellAnomaly, GeometryError, NotAParallelohedron
from parallo.lattice import Lattice
from parallo.parallelohedron import (
    DUAL3_TYPES,
    Parallelohedron,
    classify_dual3,
    dual3_census,
)
from parallo.polytope import FaceLattice, Polytope
from parallo.venkov import _analyze, _involution, venkov_check

F = Fraction


def test_venkov_pass_on_catalog():
    for name in ("cube", "hexagonal-prism", "rhombic-dodecahedron",
                 "elongated-dodecahedron", "truncated-octahedron"):
        assert venkov_check(catalog(name).polytope)["ok"]


def test_venkov_octahedron_witness():
    octa = Polytope.from_vertices(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    verdict = venkov_check(octa)
    assert not verdict["ok"]
    assert verdict["witnesses"][0]["condition"] == "facet-symmetry"
    with pytest.raises(NotAParallelohedron):
        Parallelohedron.build(octa)


def test_venkov_asymmetric_witness():
    skew = Polytope.from_vertices(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 3, 0),
         (0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 3, 1)]
    )
    verdict = venkov_check(skew)
    assert not verdict["ok"]
    assert verdict["witnesses"][0]["condition"] == "central-symmetry"


@st.composite
def point_sets(draw):
    """Distinct rational points in d = 1..3: a set and its reflection
    through a random center, then maybe one point moved."""
    d = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    point = st.tuples(*[coord] * d)
    half = draw(st.lists(point, min_size=1, max_size=5))
    c = draw(point)
    points = sorted(set(half) | {tuple(2 * ci - x for ci, x in zip(c, p))
                                 for p in half})
    if draw(st.booleans()):
        k = draw(st.integers(0, len(points) - 1))
        points[k] = tuple(x + y for x, y in zip(points[k], draw(point)))
        assume(len(set(points)) == len(points))
    return points


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_involution_matches_the_fraction_reflection(points):
    rows, scale = linalg.integer_rows(points)
    image, sums = _involution(rows)
    ok, center = central_symmetry(points)
    assert (image is not None) == ok
    assert tuple(F(s, len(points) * scale) for s in sums) == center
    if ok:
        for p, k in zip(points, image):
            assert points[k] == tuple(2 * c - x for c, x in zip(center, p))


def test_analyze_centres_a_shifted_polytope():
    """A shifted half cube comes back translated onto the centred one,
    with the facet vectors of the centred cube, t_F = 2 c_F."""
    cube = catalog("cube").polytope  # [-1/2, 1/2]^3
    verdict, q, belts, vectors = _analyze(cube.translated((F(1, 3), -2, F(5, 7))))
    assert verdict["ok"] and q == cube
    assert sorted(vectors) == sorted(
        tuple(F(s) if i == j else F(0) for j in range(3))
        for i in range(3) for s in (-1, 1))
    assert len(belts) == 3


def test_analyze_keeps_a_centred_polytope():
    """A centred input is handed on as the same object, on success and
    on failure."""
    cube = catalog("cube").polytope
    assert _analyze(cube)[1] is cube
    octahedron = fixture_polytope("octahedron")
    verdict, q, belts, vectors = _analyze(octahedron)
    assert not verdict["ok"] and q is octahedron
    assert (belts, vectors) == ((), ())


def zonotope(generators):
    return Polytope.from_vertices(
        [tuple(map(sum, zip(*chosen, zeros(3))))
         for k in range(len(generators) + 1)
         for chosen in combinations(generators, k)])


def seeded_zonotopes(seed, count=6):
    """Zonotopes of 3 to 6 small integer generators, which may be
    parallel or coplanar, so their belts have 4, 6 or more facets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [linalg.vec(rng.choice(range(-2, 3)) for _ in range(3))
                for _ in range(rng.randint(3, 6))]
        if rank(gens) == 3:
            out.append(zonotope(gens))
    return out


@pytest.fixture
def belt_walks(monkeypatch):
    """The ridge set of every belt walk that closes."""
    walks = []
    walk = venkov._walk_belt

    def recorded(*args):
        belt = walk(*args)
        walks.append(frozenset(belt.ridges))
        return belt

    monkeypatch.setattr(venkov, "_walk_belt", recorded)
    return walks


@pytest.mark.parametrize("case", ["octahedron", "pentagon_prism", "zonotope5",
                                  "catalog", "seeded zonotopes"])
def test_each_belt_is_walked_once_with_the_per_ridge_verdict(case, belt_walks):
    """Walking each belt once, whatever its length, gives the verdict,
    witnesses, centred polytope, belts and facet vectors of a walk out
    of every ridge."""
    if case == "catalog":
        polytopes = [catalog(name).polytope for name in POLYTOPE_CATALOG]
    elif case == "seeded zonotopes":
        polytopes = seeded_zonotopes(SEED)
    else:
        polytopes = [fixture_polytope(case)]
    for p in polytopes:
        belt_walks.clear()
        assert _analyze(p) == per_ridge_analyze(p)
        assert len(belt_walks) == len(set(belt_walks))


def test_a_zonotope_walks_each_of_its_long_belts_once(belt_walks):
    """The five 8-belts of a 5-generator zonotope are five walks, and
    still one witness per ridge, in ridge order."""
    verdict = venkov_check(fixture_polytope("zonotope5"))
    assert len(belt_walks) == 5
    assert [w["detail"] for w in verdict["witnesses"]] == [
        f"belt through ridge {r} has length 8, expected 4 or 6"
        for r in range(40)]


def cube_belt_tables():
    """The ridges, ridge ids by vertex ids and facet mirrors that
    `_analyze` hands to `_walk_belt`, for the cube, as lists to doctor."""
    p = catalog("cube").polytope
    ridges = list(p.face_lattice.faces(1))
    keys = {r.vertex_ids: i for i, r in enumerate(ridges)}
    at = {v: i for i, v in enumerate(p.vertices)}
    mirrors = []
    for ids in p.facet_vertex_ids:
        twice_center = [2 * sum(col) / len(ids)
                        for col in zip(*(p.vertices[i] for i in ids))]
        mirrors.append({i: at[tuple(c - x for c, x in zip(twice_center,
                                                           p.vertices[i]))]
                        for i in ids})
    return ridges, keys, mirrors


@pytest.mark.parametrize("case, detail", [
    ("three facets", "ridge lies on 3 facets, expected 2"),
    ("no mirror ridge", "facet is not centrally symmetric around its center "
                        "(ridge reflection is not a ridge)"),
    ("one-sided exit", "ridge incidence is not dihedral"),
    ("start facet fixed", "belt does not close consistently"),
    ("every facet fixed", "belt walk failed to close"),
])
def test_walk_belt_rejects_doctored_tables(case, detail):
    """Each way a belt walk can fail, reached from ridge 0 of the cube.
    The tables as built walk its 4-belt; a mirror that fixes its facet
    sends the walk back through the ridge it entered by."""
    ridges, keys, mirrors = cube_belt_tables()
    belt = venkov._walk_belt(ridges, keys, mirrors, 0)
    assert belt.length == 4 and belt.ridges[0] == 0
    first, second = ridges[0].facets
    exit_key = tuple(sorted(mirrors[second][i] for i in ridges[0].vertex_ids))
    face_ids = ridges[0].vertex_ids
    if case == "three facets":
        ridges[0] = ridges[0]._replace(facets=(first, second, belt.facets[2]))
    elif case == "no mirror ridge":
        del keys[exit_key]
    elif case == "one-sided exit":
        ridges[keys[exit_key]] = ridges[keys[exit_key]]._replace(facets=(second,))
    elif case == "start facet fixed":
        mirrors[first] = dict(zip(mirrors[first], mirrors[first]))
        face_ids = ridges[belt.ridges[-2]].vertex_ids  # entering the last facet
    else:
        mirrors = [dict(zip(m, m)) for m in mirrors]
        face_ids = ()
    with pytest.raises(venkov._BeltWalkError) as caught:
        venkov._walk_belt(ridges, keys, mirrors, 0)
    assert (caught.value.detail, caught.value.face_ids) == (detail, face_ids)


def test_analyze_turns_a_failed_belt_walk_into_a_belt_witness(monkeypatch):
    """A cube whose ridge 0 is doctored onto a third facet: the walk out
    of it fails, and so does every walk that reaches it, each as a belt
    witness; no belts and no facet vectors are returned."""
    q = catalog("cube").polytope
    by_dim = dict(q.face_lattice.faces_by_dim)
    ridges = list(by_dim[1])
    third = next(f for f in range(q.n_facets) if f not in ridges[0].facets)
    ridges[0] = ridges[0]._replace(facets=ridges[0].facets + (third,))
    by_dim[1] = tuple(ridges)
    monkeypatch.setattr(q, "face_lattice", FaceLattice(by_dim))
    verdict, centred, belts, vectors = _analyze(q)
    assert not verdict["ok"] and centred is q and (belts, vectors) == ((), ())
    assert verdict["witnesses"][0] == {
        "condition": "belt", "detail": "ridge lies on 3 facets, expected 2",
        "face_vertex_ids": ridges[0].vertex_ids}
    assert {w["condition"] for w in verdict["witnesses"]} == {"belt"}
    assert (verdict, centred, belts, vectors) == per_ridge_analyze(q)


@pytest.mark.parametrize("name", ["truncated-octahedron", "zonotope5"])
def test_verify_runs_the_venkov_checks_once(name, monkeypatch):
    """One Venkov pass per verify, whether it certifies or rejects."""
    calls = []
    analyze = venkov._analyze

    def counted(p):
        calls.append(p)
        return analyze(p)

    monkeypatch.setattr(report, "_analyze", counted)
    monkeypatch.setattr(parallelohedron, "_analyze", counted)
    source = (fixture_polytope(name) if name == "zonotope5"
              else catalog(name).polytope)
    rep = report.verify(source)
    assert rep["verdict"] == ("venkov-fails" if name == "zonotope5" else "certified")
    assert len(calls) == 1


def test_belt_structure():
    expectations = {
        "cube": {4: 3},
        "hexagonal-prism": {4: 3, 6: 1},
        "rhombic-dodecahedron": {6: 4},
        "elongated-dodecahedron": {4: 1, 6: 4},
        "truncated-octahedron": {6: 6},
    }
    for name, hist in expectations.items():
        para = built(name)
        assert Counter(b.length for b in para.belts) == Counter(
            {k: v for k, v in hist.items()}
        )
        # belts partition the ridges
        seen = [r for b in para.belts for r in b.ridges]
        assert sorted(seen) == list(range(len(para.ridges)))
        # opposite positions in a belt are opposite facets
        for b in para.belts:
            m = b.length
            for i in range(m):
                assert b.facets[(i + m // 2) % m] == \
                    para.opposite_facet[b.facets[i]]


def test_ridge_primitive():
    assert built("cube").primitive_ridges == frozenset()
    prism = built("hexagonal-prism")
    vertical = prism.primitive_ridges
    assert len(vertical) == 6
    for r in vertical:
        a, b = (prism.polytope.vertices[i]
                for i in prism.ridges[r].vertex_ids)
        assert a[:2] == b[:2]  # vertical edges of the prism
    rd = built("rhombic-dodecahedron")
    assert rd.primitive_ridges == frozenset(range(len(rd.ridges)))


def test_facet_vectors_and_neighbor_identity():
    for name in ("cube", "truncated-octahedron", "elongated-dodecahedron"):
        para = built(name)
        p = para.polytope
        for fi, t in enumerate(para.facet_vectors):
            opp = para.opposite_facet[fi]
            assert para.facet_vectors[opp] == linalg.vneg(t)
            # facet hyperplane bisects 0 and t_F
            assert p.facet_offsets[fi] == linalg.dot(p.facet_normals[fi], t) / 2
            shared = {
                i for i, v in enumerate(p.vertices)
                if contains(p, vsub(v, t))
            }
            assert shared == set(p.facet_vertex_ids[fi])



@pytest.mark.parametrize("vectors", ["doubled", "rotated"])
def test_neighbor_check_rejects_wrong_facet_vectors(vectors):
    """Negative controls of the neighbor check: doubled vectors put each
    2 t_F = 4 c_F outside the 2R ball of the coarser lattice, so it has
    no row in the translate table; rotated vectors give each facet the
    row of another facet."""
    cube = built("cube")
    if vectors == "doubled":
        wrong = tuple(vscale(2, t) for t in cube.facet_vectors)
    else:
        wrong = cube.facet_vectors[1:] + cube.facet_vectors[:1]
    with pytest.raises(GeometryError, match="does not reproduce the facet"):
        Parallelohedron(cube.polytope, cube.belts, wrong)


def dual_cells(para, codim):
    """The centers of the dual cell of every codim face, in face order."""
    return [para.centers(para.dual_cell(f))
            for f in para.polytope.face_lattice.faces(para.dim - codim)]


SKEW = ((2, 1, 1), (3, 2, 2), (3, 1, 2))  # unimodular


def shear(k):
    return ((1, k, 0), (0, 1, k), (0, 0, 1))


def built_or_skewed(name):
    """The built catalog entry, or its image: NAME-skewed under SKEW,
    NAME-shearK under `shear(K)`; or the cell of A5* or of D5."""
    if name == "A5*":
        return Parallelohedron.build(an_star(5).cell)
    if name == "D5":
        d5 = Lattice.create(linalg.identity(5), cartan(5, d_edges(5)))
        return Parallelohedron.build(d5.cell)
    base, _, kind = name.rpartition("-")
    if kind == "skewed" or kind.startswith("shear"):
        a = SKEW if kind == "skewed" else shear(int(kind[len("shear"):]))
        return Parallelohedron.build(apply_affine(catalog(base).polytope, a))
    return built(name)


def test_unnormalized_halfspaces_give_the_same_dual_cells():
    """A cube stored with normals (1/2, 0, 0) and offsets 1/4: the
    translate table scales normals and offsets together, as the integer
    dot-product incidences do."""
    cube = catalog("cube").polytope
    halved = Polytope(
        3, cube.vertices,
        tuple(vscale(F(1, 2), n) for n in cube.facet_normals),
        tuple(b / 2 for b in cube.facet_offsets),
        cube.facet_vertex_ids,
    )
    assert dot_product_facet_vertex_ids(halved) == cube.facet_vertex_ids
    para = Parallelohedron.build(halved)
    for codim in (1, 2, 3):
        assert dual_cells(para, codim) == dual_cells(built("cube"), codim)


def test_dual_cell_center_counts():
    para = built("truncated-octahedron")
    for centers in dual_cells(para, 1):
        assert len(centers) == 2
        assert zeros(3) in centers
    ridges = para.polytope.face_lattice.faces(1)
    assert all(para.dual_cell(r).bit_count() == 3 for r in ridges)  # all primitive
    prism = built("hexagonal-prism")
    ridge_counts = Counter(len(c) for c in dual_cells(prism, 2))
    assert ridge_counts == Counter({4: 12, 3: 6})
    cube = built("cube")
    for centers in dual_cells(cube, 3):
        assert len(centers) == 8


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + LATTICE_CATALOG
                         + ("elongated-dodecahedron-skewed",))
def test_dual_cells_match_per_face_sweep(name):
    para = built_or_skewed(name)
    for codim in range(1, min(3, para.dim) + 1):
        faces = para.polytope.face_lattice.faces(para.dim - codim)
        swept = dual_cell_centers(para, faces)
        assert dual_cells(para, codim) == swept


def whole_ball_table(name):
    """The translate table of a sweep over the whole Euclidean ball of
    twice the circumradius (`ball_translate_members`), as bit sets. A
    shear's own ball is too large to sweep (382,269 vectors at k = 30),
    so its table is the unsheared entry's, carried over by the shear:
    t goes to A t, and vertex v to the vertex A v."""
    base, _, kind = name.rpartition("-")
    if not kind.startswith("shear"):
        return {t: sum(1 << i for i in ids)
                for t, ids in ball_translate_members(built_or_skewed(name)).items()}
    a = linalg.mat(shear(int(kind[len("shear"):])))
    source = built(base).polytope.vertices
    image = built_or_skewed(name).polytope.vertices
    return {linalg.matvec(a, t):
            sum(1 << image.index(linalg.matvec(a, source[i])) for i in ids)
            for t, ids in ball_translate_members(built(base)).items()}


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + LATTICE_CATALOG
                         + tuple(f"{n}-skewed" for n in POLYTOPE_CATALOG)
                         + ("elongated-dodecahedron-shear30",
                            "elongated-dodecahedron-shear60", "A5*", "D5"))
def test_translate_table_matches_a_whole_ball_sweep(name):
    """Skipping the ball vectors outside 2P loses no translate that meets
    P, and the meet of the facets through t/2 is P's part of P + t: the
    table has exactly the nonempty rows of a sweep over the whole ball
    of twice the circumradius, on every catalog entry, on their skewed
    images, on two shears, on A5* and on D5 (131 rows)."""
    assert built_or_skewed(name)._translate_members == whole_ball_table(name)


@pytest.mark.parametrize("k", [30, 60])
@pytest.mark.parametrize("name", POLYTOPE_CATALOG)
def test_a_shear_does_not_grow_the_translate_ball(name, k, monkeypatch):
    """The translate ball is an ellipsoid that moves with the polytope:
    each 3-D type sheared by `shear(k)` enumerates as many vectors as at
    k = 0 (17 for the elongated dodecahedron), and certifies."""
    sizes = []
    vectors_in_ball = parallelohedron.vectors_in_ball

    def counted(lat, r2):
        ball = vectors_in_ball(lat, r2)
        sizes.append(len(ball))
        return ball

    monkeypatch.setattr(parallelohedron, "vectors_in_ball", counted)
    for a in (shear(0), shear(k)):
        image = apply_affine(catalog(name).polytope, a)
        assert report.verify(image)["verdict"] == "certified"
    assert sizes[0] == sizes[1]
    assert name != "elongated-dodecahedron" or sizes[0] == 17


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + LATTICE_CATALOG)
def test_the_ellipsoid_of_p_alone_loses_facet_vectors(name, monkeypatch):
    """Negative control: the ellipsoid E around P, 2E with a quarter of
    its squared radius, misses translates that meet P, so the
    facet-vector check fails on every catalog entry."""
    vectors_in_ball = parallelohedron.vectors_in_ball
    monkeypatch.setattr(parallelohedron, "vectors_in_ball",
                        lambda lat, r2: vectors_in_ball(lat, r2 / 4))
    with pytest.raises(GeometryError, match="does not reproduce the facet"):
        Parallelohedron.build(catalog(name).polytope)


def test_verify_builds_no_dual_cell_hull(monkeypatch):
    """Primitivity reads only the center counts, so a verify of D4
    (216 faces of codim <= 3) classifies none of their hulls."""
    calls = []
    classify = parallelohedron.classify_dual3

    def counted(centers):
        calls.append(len(centers))
        return classify(centers)

    monkeypatch.setattr(parallelohedron, "classify_dual3", counted)
    rep = report.verify(catalog("lattice-D4").lattice)
    assert rep["verdict"] == "certified" and rep["primitivity"]
    assert calls == []
    # the census reads the hulls: one per codim-3 face of the cube
    assert dual3_census(built("cube")) == ({"cube": 8}, [])
    assert calls == [8] * 8


def test_dual3_censuses():
    expectations = {
        "cube": {"cube": 8},
        "hexagonal-prism": {"triangular prism": 12},
        "rhombic-dodecahedron": {"octahedron": 6, "tetrahedron": 8},
        "elongated-dodecahedron": {"quadrangular pyramid": 10, "tetrahedron": 8},
        "truncated-octahedron": {"tetrahedron": 24},
    }
    seen_types = set()
    for name, expected in expectations.items():
        census, anomalies = dual3_census(built(name))
        assert census == expected and anomalies == []
        seen_types |= set(census)
    assert seen_types == {
        "cube", "triangular prism", "octahedron", "tetrahedron",
        "quadrangular pyramid",
    }


def reference_dual3(centers) -> str:
    """The type, or the anomaly text, that the hull in affine-hull
    coordinates gives."""
    rank, signature = dual3_signature(centers)
    if rank != 3:
        return f"dual cell hull is {rank}-dimensional, expected 3"
    return parallelohedron.DUAL3_TYPES.get(
        signature, f"dual 3-cell signature {signature} matches none of the "
        "five reference types")


def classified(centers) -> str:
    try:
        return classify_dual3(centers)
    except DualCellAnomaly as exc:
        return str(exc)


@pytest.mark.parametrize("name", POLYTOPE_CATALOG
                         + tuple(f"{n}-skewed" for n in POLYTOPE_CATALOG)
                         + ("lattice-D4", "lattice-FCC", "lattice-BCC"))
def test_classify_dual3_matches_the_affine_hull_reference(name):
    """The hull on the pivot coordinates has the type (or anomaly text)
    of the hull in the cell's own affine-hull coordinates, for every
    face of codim 1-3; every codim-3 cell has one of the five types."""
    para = built_or_skewed(name)
    for codim in (1, 2, 3):
        for centers in dual_cells(para, codim):
            assert classified(centers) == reference_dual3(centers)
    assert all(classified(c) in DUAL3_TYPES.values()
               for c in dual_cells(para, 3))


def test_classify_dual3_rejects_flat_cells():
    """Negative controls: a facet's cell is a segment and a cube ridge's
    cell a square."""
    para = built("cube")
    for codim in (1, 2):
        with pytest.raises(DualCellAnomaly,
                           match=f"hull is {codim}-dimensional, expected 3"):
            classify_dual3(dual_cells(para, codim)[0])


def test_classify_dual3_reads_a_single_center_as_0_dimensional():
    with pytest.raises(DualCellAnomaly,
                       match="hull is 0-dimensional, expected 3"):
        classify_dual3((linalg.vec([1, 2, 3]),))


def test_classify_dual3_unknown_signature_matches_the_reference(monkeypatch):
    """With the tetrahedron taken out of the table, every cell of the
    truncated octahedron is an anomaly, with the reference's text."""
    monkeypatch.setattr(parallelohedron, "DUAL3_TYPES", {
        key: kind for key, kind in DUAL3_TYPES.items()
        if kind != "tetrahedron"})
    for centers in dual_cells(built("truncated-octahedron"), 3):
        text = classified(centers)
        assert "(4, (3, 3, 3, 3)) matches none" in text
        assert text == reference_dual3(centers)


def test_primitivity_profiles():
    expectations = {
        "cube": {1: True, 2: False, 3: False},
        "hexagonal-prism": {1: True, 2: False, 3: False},
        "rhombic-dodecahedron": {1: True, 2: True, 3: False},
        "elongated-dodecahedron": {1: True, 2: False, 3: False},
        "truncated-octahedron": {1: True, 2: True, 3: True},
    }
    for name, profile in expectations.items():
        assert built(name).primitivity_profile() == profile
    # a skewed image, against the per-face sweep's center counts
    para = built_or_skewed("elongated-dodecahedron-skewed")
    faces = para.polytope.face_lattice.faces
    swept = {k: all(len(c) == k + 1 for c in dual_cell_centers(para, faces(3 - k)))
             for k in (1, 2, 3)}
    assert para.primitivity_profile() == swept == {1: True, 2: False, 3: False}


def test_primitivity_matches_belt_lengths():
    for name in ("hexagonal-prism", "elongated-dodecahedron"):
        para = built(name)
        for rid, ridge in enumerate(para.ridges):
            assert ((para.dual_cell(ridge).bit_count() == 3)
                    == (rid in para.primitive_ridges))


def test_k_irreducibility():
    assert is_k_irreducible(built("rhombic-dodecahedron"), 2)[0]
    ok, witness = is_k_irreducible(built("cube"), 2)
    assert not ok and witness is not None
    face, n1, n2 = witness
    assert rank(n1) + rank(n2) == rank(n1 + n2)
    assert not is_k_irreducible(built("elongated-dodecahedron"), 2)[0]
    assert is_k_irreducible(built("truncated-octahedron"), 2)[0]


def test_d2_hexagon_parallelohedron():
    hexagon = catalog("lattice-A2-gram").polytope
    para = Parallelohedron.build(hexagon)
    assert len(para.belts) == 1 and para.belts[0].length == 6
    assert para.primitivity_profile() == {1: True, 2: True}
    square = catalog("lattice-Z2").polytope
    para2 = Parallelohedron.build(square)
    assert len(para2.belts) == 1 and para2.belts[0].length == 4
