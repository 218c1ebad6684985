import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import LATTICE_CATALOG, POLYTOPE_CATALOG, SEED, built
from oracles import (
    apply_affine,
    ball_translate_members,
    central_symmetry,
    contains,
    dot_product_facet_vertex_ids,
    dual_cell_centers,
    is_k_irreducible,
    per_ridge_analyze,
)
from parallo import linalg, parallelohedron, report, venkov
from parallo.catalog import catalog
from parallo.errors import DualCellAnomaly, GeometryError, NotAParallelohedron
from parallo.parallelohedron import Parallelohedron, classify_dual3, dual3_census
from parallo.polytope import Polytope
from parallo.serialize import load_document
from parallo.venkov import _analyze, _involution, venkov_check

F = Fraction


def test_venkov_pass_on_catalog():
    for name in ("cube", "hexagonal-prism", "rhombic-dodecahedron",
                 "elongated-dodecahedron", "truncated-octahedron"):
        assert venkov_check(catalog(name).polytope).ok


def test_venkov_octahedron_witness():
    octa = Polytope.from_vertices(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    verdict = venkov_check(octa)
    assert not verdict.ok
    assert verdict.witnesses[0].condition == "facet-symmetry"
    with pytest.raises(NotAParallelohedron):
        Parallelohedron.build(octa)


def test_venkov_asymmetric_witness():
    skew = Polytope.from_vertices(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 3, 0),
         (0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 3, 1)]
    )
    verdict = venkov_check(skew)
    assert not verdict.ok
    assert verdict.witnesses[0].condition == "central-symmetry"


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


def test_analyze_rejects_a_symmetric_polytope_off_the_origin():
    cube = catalog("cube").polytope.translated((F(1, 3), 0, 0))
    with pytest.raises(GeometryError, match="must be recentered"):
        _analyze(cube)


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture_polytope(name):
    with open(os.path.join(FIXTURES, name + ".json"), encoding="utf-8") as fh:
        return load_document(fh.read())


def zonotope(generators):
    return Polytope.from_vertices(
        [tuple(map(sum, zip(*chosen, linalg.zeros(3))))
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
        if linalg.rank(gens) == 3:
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
    witnesses, belts and facet centers of a walk out of every ridge."""
    if case == "catalog":
        polytopes = [catalog(name).polytope for name in POLYTOPE_CATALOG]
    elif case == "seeded zonotopes":
        polytopes = seeded_zonotopes(SEED)
    else:
        polytopes = [fixture_polytope(case)]
    for p in polytopes:
        q = p.recentered()
        belt_walks.clear()
        assert _analyze(q) == per_ridge_analyze(q)
        assert len(belt_walks) == len(set(belt_walks))


def test_a_zonotope_walks_each_of_its_long_belts_once(belt_walks):
    """The five 8-belts of a 5-generator zonotope are five walks, and
    still one witness per ridge, in ridge order."""
    verdict = venkov_check(fixture_polytope("zonotope5"))
    assert len(belt_walks) == 5
    assert [w.detail for w in verdict.witnesses] == [
        f"belt through ridge {r} has length 8, expected 4 or 6"
        for r in range(40)]


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
    assert rep.verdict == ("venkov-fails" if name == "zonotope5" else "certified")
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
    cube = built("cube")
    assert not any(cube.ridge_primitive(r) for r in range(len(cube.ridges)))
    prism = built("hexagonal-prism")
    vertical = [
        r for r in range(len(prism.ridges)) if prism.ridge_primitive(r)
    ]
    assert len(vertical) == 6
    for r in vertical:
        a, b = (prism.polytope.vertices[i]
                for i in prism.ridges[r].vertex_ids)
        assert a[:2] == b[:2]  # vertical edges of the prism
    rd = built("rhombic-dodecahedron")
    assert all(rd.ridge_primitive(r) for r in range(len(rd.ridges)))


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
                if contains(p, linalg.vsub(v, t))
            }
            assert shared == set(p.facet_vertex_ids[fi])



@pytest.mark.parametrize("centers", ["doubled", "rotated"])
def test_neighbor_check_rejects_wrong_facet_vectors(centers):
    """Negative controls of the neighbor check: doubled centers put each
    t_F = 4 c_F outside the 2R ball of the coarser lattice, so it has no
    row in the translate table; rotated centers give each facet the row
    of another facet."""
    cube = built("cube")
    if centers == "doubled":
        wrong = tuple(linalg.vscale(2, c) for c in cube.facet_centers)
    else:
        wrong = cube.facet_centers[1:] + cube.facet_centers[:1]
    with pytest.raises(GeometryError, match="does not reproduce the facet"):
        Parallelohedron(cube.polytope, cube.belts, cube.belt_of_ridge, wrong)

def test_unnormalized_halfspaces_give_the_same_dual_cells():
    """A cube stored with normals (1/2, 0, 0) and offsets 1/4: the
    translate table scales normals and offsets together, as the integer
    dot-product incidences do."""
    cube = catalog("cube").polytope
    halved = Polytope(
        3, cube.vertices,
        tuple(linalg.vscale(F(1, 2), n) for n in cube.facet_normals),
        tuple(b / 2 for b in cube.facet_offsets),
        cube.facet_vertex_ids,
    )
    assert dot_product_facet_vertex_ids(halved) == cube.facet_vertex_ids
    para = Parallelohedron.build(halved)
    for codim in (1, 2, 3):
        assert [c.centers for c in para.dual_cells(codim)] == \
            [c.centers for c in built("cube").dual_cells(codim)]


def test_dual_cell_center_counts():
    para = built("truncated-octahedron")
    p = para.polytope
    for cell in para.dual_cells(1):
        assert len(cell.centers) == 2
        assert linalg.zeros(3) in cell.centers
    for cell in para.dual_cells(2):
        assert len(cell.centers) == 3  # all ridges primitive here
    prism = built("hexagonal-prism")
    ridge_counts = Counter(len(c.centers) for c in prism.dual_cells(2))
    assert ridge_counts == Counter({4: 12, 3: 6})
    cube = built("cube")
    for cell in cube.dual_cells(3):
        assert len(cell.centers) == 8


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + LATTICE_CATALOG)
def test_dual_cells_match_per_face_sweep(name):
    para = built(name)
    for codim in range(1, min(3, para.dim) + 1):
        faces = para.polytope.face_lattice.faces(para.dim - codim)
        swept = dual_cell_centers(para, faces)
        assert [c.centers for c in para.dual_cells(codim)] == swept


SKEW = ((2, 1, 1), (3, 2, 2), (3, 1, 2))  # unimodular


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + LATTICE_CATALOG
                         + ("elongated-dodecahedron-skewed",))
def test_translate_table_matches_a_whole_ball_sweep(name):
    """Skipping the ball vectors outside 2P loses no translate that meets
    P: the table has exactly the nonempty rows of a sweep over the whole
    ball of twice the circumradius, on every catalog entry and on a
    skewed image."""
    if name.endswith("-skewed"):
        p = apply_affine(catalog("elongated-dodecahedron").polytope, SKEW)
        para = Parallelohedron.build(p)
    else:
        para = built(name)
    assert para._translate_members == {
        t: sum(1 << i for i in ids)
        for t, ids in ball_translate_members(para).items()}


def test_verify_builds_no_dual_cell_hull(monkeypatch):
    """Primitivity reads only the center counts, so a verify of D4
    (216 faces of codim <= 3) builds none of their hulls."""
    calls = []
    hull = parallelohedron.affine_hull_polytope

    def counted(points):
        calls.append(len(points))
        return hull(points)

    monkeypatch.setattr(parallelohedron, "affine_hull_polytope", counted)
    rep = report.verify(catalog("lattice-D4").lattice)
    assert rep.verdict == "certified" and rep.primitivity
    assert calls == []
    # the census reads the hulls: one per codim-3 face of the cube
    assert dual3_census(built("cube")) == {"cube": 8}
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
        census = dual3_census(built(name))
        assert census == expected
        seen_types |= set(census)
    assert seen_types == {
        "cube", "triangular prism", "octahedron", "tetrahedron",
        "quadrangular pyramid",
    }


def test_classify_dual3_rejects_flat_cells():
    para = built("cube")
    facet_cell = para.dual_cells(1)[0]
    with pytest.raises(DualCellAnomaly):
        classify_dual3(facet_cell)


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


def test_primitivity_matches_belt_lengths():
    for name in ("hexagonal-prism", "elongated-dodecahedron"):
        para = built(name)
        for rid, cell in enumerate(para.dual_cells(2)):
            assert (len(cell.centers) == 3) == para.ridge_primitive(rid)


def test_k_irreducibility():
    assert is_k_irreducible(built("rhombic-dodecahedron"), 2)[0]
    ok, witness = is_k_irreducible(built("cube"), 2)
    assert not ok and witness is not None
    face, n1, n2 = witness
    assert linalg.rank(n1) + linalg.rank(n2) == linalg.rank(n1 + n2)
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
