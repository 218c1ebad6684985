import copy
import random
from fractions import Fraction

import pytest

from conftest import LATTICE_CATALOG, POLYTOPE_CATALOG, built, ridge_graph
from oracles import (
    apply_affine,
    fraction_voronoi_mismatch,
    half_belt_check,
    local_cycle_check,
    per_ridge_graph,
    random_unimodular,
    ridge_dependence,
    ridge_image_map,
    scanned_superfaces,
    walk_closed,
)
from parallo import linalg
from parallo.catalog import catalog
from parallo.errors import GeometryError
from parallo.lattice import Lattice, dv_cell, vectors_in_ball
from parallo.parallelohedron import Parallelohedron
from parallo.polytope import Polytope
from parallo.report import certificate_dict
from parallo.scaling import (
    CanonicalScaling,
    MismatchWitness,
    RidgeEdge,
    RidgeGraph,
    ScalingWitness,
    Walk,
    build_ridge_graph,
    canonical_scaling,
    certify,
    face_walk,
    gain_along_walk,
    voronoi_form,
    voronoi_mismatch,
)

F = Fraction


def _hex_facets(p):
    return [fi for fi, n in enumerate(p.facet_normals)
            if sum(abs(x) for x in n) == 3]


def _square_facets(p):
    return [fi for fi, n in enumerate(p.facet_normals)
            if sorted(map(abs, n)) == [0, 0, 1]]


def _find_edge(graph, n_from, n_to):
    """Ridge-graph edge whose facet normals are the given pair."""
    p = graph.para.polytope
    for e in graph.edges:
        pair = (p.facet_normals[e.facets[0]], p.facet_normals[e.facets[1]])
        if pair == (linalg.vec(n_from), linalg.vec(n_to)):
            return e
        if pair == (linalg.vec(n_to), linalg.vec(n_from)):
            return e
    raise AssertionError("no such edge")


def test_ridge_dependence_truncated_octahedron():
    para = built("truncated-octahedron")
    graph = ridge_graph("truncated-octahedron")
    e = _find_edge(graph, (1, 1, 1), (1, 1, -1))
    n1, n2, n3, alpha, facets = ridge_dependence(para, e.ridge)
    assert {n1, n2} == {linalg.vec((1, 1, 1)), linalg.vec((1, 1, -1))}
    assert n3 in (linalg.vec((0, 0, 1)), linalg.vec((0, 0, -1)))
    # unique dependence, normalized: alpha entries (1, -1, +-2)
    assert abs(alpha[0]) == abs(alpha[1]) == 1 and abs(alpha[2]) == 2
    combo = [linalg.vscale(a, x) for a, x in zip(alpha, (n1, n2, n3))]
    assert all(sum(col) == 0 for col in zip(*combo))


def test_gain_values_truncated_octahedron():
    p = built("truncated-octahedron").polytope
    graph = ridge_graph("truncated-octahedron")
    e = _find_edge(graph, (1, 1, 1), (1, 1, -1))
    a, b = e.facets
    assert graph.gain(a, b, e.ridge) == 1
    hexes = set(_hex_facets(p))
    e2 = _find_edge(graph, (1, 1, 1), (0, 0, 1))
    hx, sq = e2.facets if e2.facets[0] in hexes else tuple(reversed(e2.facets))
    assert graph.gain(hx, sq, e2.ridge) == 2
    assert graph.gain(sq, hx, e2.ridge) == F(1, 2)


def test_gain_reciprocity_everywhere():
    for name in POLYTOPE_CATALOG:
        graph = ridge_graph(name)
        for e in graph.edges:
            a, b = e.facets
            assert graph.gain(a, b, e.ridge) * graph.gain(b, a, e.ridge) == 1


def test_backtrack_gain_is_one():
    for name in POLYTOPE_CATALOG:
        graph = ridge_graph(name)
        for e in graph.edges[:5]:
            a, b = e.facets
            walk = Walk((a, b, a), (e.ridge, e.ridge))
            assert gain_along_walk(graph, walk) == 1


def test_half_belt_and_full_belt_gains():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        graph = ridge_graph(name)
        for belt in para.belts:
            if belt.length != 6:
                continue
            assert half_belt_check(graph, belt) == 1
            loop = Walk(belt.facets + (belt.facets[0],), belt.ridges)
            assert gain_along_walk(graph, loop) == 1
        for belt in para.belts:
            if belt.length == 4:
                with pytest.raises(GeometryError):
                    half_belt_check(graph, belt)
                break


def test_walk_multiplicativity(rng):
    for name in POLYTOPE_CATALOG:
        graph = ridge_graph(name)
        if not graph.edges:
            continue
        adjacency = graph.adjacency
        for _ in range(100):
            start = rng.choice([f for f, ns in adjacency.items() if ns])
            facets, ridges = [start], []
            for _ in range(rng.randint(1, 6)):
                nbrs = adjacency[facets[-1]]
                if not nbrs:
                    break
                g, ei = rng.choice(nbrs)
                facets.append(g)
                ridges.append(graph.edges[ei].ridge)
            if len(ridges) < 2:
                continue
            cut = rng.randint(1, len(ridges) - 1)
            w1 = Walk(tuple(facets[: cut + 1]), tuple(ridges[:cut]))
            w2 = Walk(tuple(facets[cut:]), tuple(ridges[cut:]))
            whole = w1.then(w2)
            assert gain_along_walk(graph, whole) == \
                gain_along_walk(graph, w1) * gain_along_walk(graph, w2)


def test_ridge_graph_shapes():
    cube = ridge_graph("cube")
    assert len(cube.edges) == 0 and cube.n_components == 6
    prism = ridge_graph("hexagonal-prism")
    assert len(prism.edges) == 6 and prism.n_components == 3
    degrees = [len(prism.adjacency[f]) for f in range(8)]
    assert sorted(degrees) == [0, 0, 2, 2, 2, 2, 2, 2]
    to = ridge_graph("truncated-octahedron")
    assert len(to.edges) == 36 and to.n_components == 1


def test_canonical_scaling_values():
    cube = canonical_scaling(ridge_graph("cube"))
    assert isinstance(cube, CanonicalScaling)
    assert set(cube.values) == {F(1)}

    to_graph = ridge_graph("truncated-octahedron")
    s = canonical_scaling(to_graph)
    p = built("truncated-octahedron").polytope
    assert all(s.values[fi] == 1 for fi in _hex_facets(p))
    assert all(s.values[fi] == 2 for fi in _square_facets(p))

    prism = canonical_scaling(ridge_graph("hexagonal-prism"))
    assert set(prism.values) == {F(1)}


def test_scaling_satisfies_every_edge():
    for name in POLYTOPE_CATALOG:
        graph = ridge_graph(name)
        s = canonical_scaling(graph)
        assert isinstance(s, CanonicalScaling)
        for e in graph.edges:
            a, b = e.facets
            assert s.values[b] == s.values[a] * graph.gain(a, b, e.ridge)
        para = built(name)
        for f in range(graph.n_facets):
            assert s.values[f] == s.values[para.opposite_facet[f]]


def test_canonical_scaling_witness_on_doctored_gains():
    graph = ridge_graph("truncated-octahedron")
    bad_edges = list(graph.edges)
    bad_edges[0] = bad_edges[0]._replace(gain=bad_edges[0].gain * 3)
    bad = RidgeGraph(graph.para, bad_edges)
    witness = canonical_scaling(bad)
    assert isinstance(witness, ScalingWitness)
    if witness.walk is not None and witness.kind == "cycle":
        assert walk_closed(witness.walk)
    assert witness.gain != 1


def test_opposite_facet_witness_on_a_doctored_cut():
    """Gains times 3 from the facets S whose normal's first nonzero entry
    is positive to the rest, and times 1/3 back: every cycle still
    closes, since it crosses the cut as often each way, but each facet
    and its opposite lie on different sides and end a factor 3 apart."""
    graph = ridge_graph("truncated-octahedron")
    normals = graph.para.polytope.facet_normals
    side = [next(x for x in n if x) > 0 for n in normals]
    assert [f for f, s in enumerate(side) if s] == list(range(7, 14))
    edges = [e._replace(gain=e.gain * F(3) ** (side[e.facets[0]] - side[e.facets[1]]))
             for e in graph.edges]
    witness = canonical_scaling(RidgeGraph(graph.para, edges))
    assert witness == ScalingWitness(
        "opposite-facet", Walk((0, 1, 4, 13), (2, 6, 24)), (0, 13), F(1, 3))
    assert str(witness) == ("opposite facets (0, 13) forced to distinct "
                            "values (ratio 1/3)")


@pytest.mark.parametrize("opposite_gain, expected", [
    (F(2), CanonicalScaling((1, 2, 1, 1, 2, 1), (0, 2, 3, 4), (0, 0, 1, 1, 0, 0))),
    (F(3), ScalingWitness("opposite-facet", None, (1, 4), F(3, 2))),
])
def test_canonical_scaling_rescales_the_opposite_component(
        monkeypatch, opposite_gain, expected):
    """No catalog input has a delta component with two or more facets
    that is not its own opposite, so the cube is given one: facets 0 and
    1 joined by an edge of gain 2, and their opposites 5 and 4 by one of
    the given gain. The component of 4 and 5 is rescaled to match 0 and
    1; with a gain other than 2 no rescaling can, and the witness has no
    walk, as its facets lie in different components."""
    para = built("cube")
    assert para.opposite_facet == (5, 4, 3, 2, 1, 0)
    monkeypatch.setattr(para, "delta_roots", (0, 0, 2, 3, 4, 4))
    monkeypatch.setattr(para, "pi_roots", (0, 0, 2, 2, 0, 0))
    edges = [RidgeEdge(para.ridge_of[0, 1], (0, 1), F(2)),
             RidgeEdge(para.ridge_of[4, 5], (5, 4), opposite_gain)]
    assert canonical_scaling(RidgeGraph(para, edges)) == expected


def test_voronoi_form_cube_identity():
    para = built("cube")
    s = canonical_scaling(ridge_graph("cube"))
    cert = voronoi_form(para, s)
    assert cert.verdict == "certified"
    assert cert.gram == linalg.identity(3)


def test_voronoi_form_truncated_octahedron():
    cert = certify(ridge_graph("truncated-octahedron"))
    assert cert.verdict == "certified"
    g = cert.gram
    scale = g[0][0]
    assert scale > 0
    assert g == tuple(
        tuple(scale * x for x in row) for row in linalg.identity(3)
    )


def test_voronoi_form_prism_block_structure():
    cert = certify(ridge_graph("hexagonal-prism"))
    assert cert.verdict == "certified"
    g = cert.gram
    assert g[0][2] == g[1][2] == g[2][0] == g[2][1] == 0
    # hexagon block proportional to the generating hexagonal metric
    scale = g[0][0] / 2
    assert (g[0][0], g[0][1], g[1][1]) == (2 * scale, scale, 2 * scale)
    assert g[2][2] > 0
    assert len(cert.solution_basis) == 2


@pytest.mark.parametrize("name", POLYTOPE_CATALOG)
def test_voronoi_mismatch_accepts_the_recovered_form(name):
    para = built(name)
    gram = certify(ridge_graph(name)).gram
    lat = Lattice.create(para.lattice.basis, gram)
    assert voronoi_mismatch(para, lat) is None


def test_voronoi_mismatch_names_a_facet_under_a_perturbed_form():
    para = built("truncated-octahedron")
    gram = [list(row) for row in certify(ridge_graph("truncated-octahedron")).gram]
    gram[0][1] += F(1, 7)
    gram[1][0] += F(1, 7)
    lat = Lattice.create(para.lattice.basis, gram)
    witness = voronoi_mismatch(para, lat)
    assert isinstance(witness, MismatchWitness) and witness.kind == "facet"
    t = para.facet_vectors[witness.facet]
    n = para.polytope.facet_normals[witness.facet]
    # G t is not a positive multiple of the facet normal
    assert linalg.rank((linalg.matvec(lat.gram, t), n)) == 2


def test_voronoi_mismatch_finds_a_cut_by_a_finer_lattice():
    cube = built("cube")  # vertices (+-1/2, +-1/2, +-1/2), facet vectors +-e_i
    half = Lattice.create([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]])
    witness = voronoi_mismatch(cube, half)
    assert isinstance(witness, MismatchWitness) and witness.kind == "cut"
    v, x = witness.lattice_vector, witness.vertex
    assert x in cube.polytope.vertices
    assert v in vectors_in_ball(half, 3)  # 4 * max |x|^2
    assert 2 * half.inner(x, v) > half.norm_sq(v)


@pytest.mark.parametrize("seed", range(3))
def test_voronoi_mismatch_matches_the_fraction_sweep_on_perturbed_forms(seed):
    """The integer sweep returns the witness of the `Fraction` sweep over
    the coefficient box: for the Voronoi cell of a lattice under a
    randomly perturbed Gram (no witness), for that cell against a second
    perturbation (a facet), and against finer lattices with one basis row
    halved under the same Gram (a cut, the first in vertex-major,
    sorted-ball order)."""
    rng = random.Random(seed)
    kinds = set()
    for basis in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), F(1, 2)]],
                  [[0, 1, 1], [1, 0, 1], [1, 1, 0]]):
        gram = perturbed(rng, linalg.identity(3))
        lat = Lattice.create(basis, gram)
        para = Parallelohedron.build(dv_cell(lat))
        centers = para.lattice.basis
        cases = [Lattice.create(centers, gram),
                 Lattice.create(centers, perturbed(rng, gram))]
        for i in range(3):
            finer = [list(row) for row in para.lattice.basis]
            finer[i] = [x / 2 for x in finer[i]]
            cases.append(Lattice.create(finer, gram))
        for case in cases:
            witness = voronoi_mismatch(para, case)
            assert witness == fraction_voronoi_mismatch(para, case)
            kinds.add(None if witness is None else witness.kind)
    assert kinds == {None, "facet", "cut"}


def perturbed(rng, gram):
    """The Gram plus a random symmetric perturbation of mixed
    denominators, kept positive definite."""
    d = len(gram)
    while True:
        out = [list(row) for row in gram]
        for i in range(d):
            for j in range(i, d):
                e = F(rng.randint(-2, 2), rng.choice((3, 5, 7, 11)))
                out[i][j] += e
                if j != i:
                    out[j][i] += e
        if linalg.is_positive_definite(linalg.mat(out)):
            return out


def test_dv_mismatch_certificate_reports_its_witness():
    cert = certify(ridge_graph("cube"))
    assert "witness" not in certificate_dict(cert)
    cut = MismatchWitness("cut", lattice_vector=(F(1, 2), F(0), F(0)),
                          vertex=(F(1, 2), F(1, 2), F(1, 2)))
    doc = certificate_dict(cert._replace(verdict="dv-mismatch", witness=cut))
    assert doc["verdict"] == "dv-mismatch"
    assert doc["witness"] == {"kind": "cut", "lattice_vector": ["1/2", "0", "0"],
                              "vertex": ["1/2", "1/2", "1/2"]}
    facet = MismatchWitness("facet", facet=3)
    doc = certificate_dict(cert._replace(verdict="dv-mismatch", witness=facet))
    assert doc["witness"] == {"kind": "facet", "facet": 3}


def test_local_cycle_checks():
    para = built("truncated-octahedron")
    graph = ridge_graph("truncated-octahedron")
    lat = para.polytope.face_lattice
    for vertex in lat.faces(0):
        res = local_cycle_check(para, vertex, graph)
        assert not res.skipped and res.product == 1
    rd = built("rhombic-dodecahedron")
    rd_graph = ridge_graph("rhombic-dodecahedron")
    degrees = set()
    for vertex in rd.polytope.face_lattice.faces(0):
        res = local_cycle_check(rd, vertex, rd_graph)
        assert not res.skipped and res.product == 1
        degrees.add(len(res.walk.ridges))
    assert degrees == {3, 4}
    cube = built("cube")
    for vertex in cube.polytope.face_lattice.faces(0):
        res = local_cycle_check(cube, vertex)
        assert res.skipped and "non-primitive" in res.reason


@pytest.mark.parametrize("name", POLYTOPE_CATALOG + ("lattice-D4",))
def test_face_walk_ridges_are_the_scanned_superfaces(name):
    """The ridges read off a codim-3 face's facet pairs are the ridges
    whose vertex sets hold the face."""
    para = built(name)
    lat = para.polytope.face_lattice
    for face in lat.faces(para.dim - 3):
        ridges = scanned_superfaces(lat, face, para.dim - 2)
        walk = face_walk(para, face)
        if walk is None:
            assert not all(para.ridge_primitive(r) for r in ridges)
        else:
            assert sorted(walk.ridges) == ridges


def test_normal_rescaling_leaves_closed_products(rng):
    for name in ("truncated-octahedron", "elongated-dodecahedron"):
        para = built(name)
        graph = ridge_graph(name)
        scale = {
            fi: F(rng.randint(1, 9), rng.randint(1, 9))
            for fi in range(para.polytope.n_facets)
        }
        scaled = per_ridge_graph(para, normal_scale=scale)
        for belt in para.belts:
            if belt.length != 6:
                continue
            loop = Walk(belt.facets + (belt.facets[0],), belt.ridges)
            assert gain_along_walk(scaled, loop) == \
                gain_along_walk(graph, loop) == 1
        # random closed walks: out along tree of edges, back the same way
        for e in graph.edges[:10]:
            a, b = e.facets
            walk = Walk((a, b, a), (e.ridge, e.ridge))
            assert gain_along_walk(scaled, walk) == 1


def test_affine_invariance_of_closed_walk_gains(rng):
    for name in ("hexagonal-prism", "truncated-octahedron"):
        para = built(name)
        graph = ridge_graph(name)
        for _ in range(3):
            a = random_unimodular(rng, 3)
            image = Parallelohedron.build(apply_affine(para.polytope, a))
            igraph = build_ridge_graph(image)
            rmap = ridge_image_map(para, image, a, linalg.zeros(3))
            fmap = {}
            for rid, irid in enumerate(rmap):
                pa, pb = para.ridge_facets[rid]
                ia, ib = image.ridge_facets[irid]
                # align facets via the vertex image of the facet sets
                for src, candidates in ((pa, (ia, ib)), (pb, (ia, ib))):
                    src_ids = {
                        tuple(linalg.matvec(a, para.polytope.vertices[i]))
                        for i in para.polytope.facet_vertex_ids[src]
                    }
                    for cand in candidates:
                        cand_ids = {
                            image.polytope.vertices[i]
                            for i in image.polytope.facet_vertex_ids[cand]
                        }
                        if src_ids == cand_ids:
                            fmap[src] = cand
            for belt in para.belts:
                if belt.length != 6:
                    continue
                walk = Walk(belt.facets[:4], belt.ridges[:3])
                mapped = Walk(
                    tuple(fmap[f] for f in walk.facets),
                    tuple(rmap[r] for r in walk.ridges),
                )
                assert gain_along_walk(graph, walk) == \
                    gain_along_walk(igraph, mapped)


# -- the integer stages against their `Fraction` oracles -------------------

A2_GRAM = [[2, -1], [-1, 2]]
A2_A2 = Lattice.create(linalg.identity(4), [row + [0, 0] for row in A2_GRAM]
                       + [[0, 0] + row for row in A2_GRAM])


def skewed(p, seed):
    """The image of a cell under a seeded unimodular map and shift."""
    rng = random.Random(seed)
    return apply_affine(p, random_unimodular(rng, p.dim),
                        [rng.randint(-2, 2) for _ in range(p.dim)])


GAIN_CASES = {
    **{name: lambda name=name: built(name)
       for name in POLYTOPE_CATALOG + LATTICE_CATALOG},
    "D4-skewed": lambda: Parallelohedron.build(
        skewed(built("lattice-D4").polytope, 1)),
    "A2xA2-skewed": lambda: Parallelohedron.build(skewed(A2_A2.cell, 2)),
}


@pytest.mark.parametrize("name", list(GAIN_CASES))
def test_belt_gains_match_the_per_ridge_kernels(name):
    """One integer kernel per 6-belt gives every ridge the gain of its
    own `Fraction` kernel, in the same edge order."""
    para = GAIN_CASES[name]()
    graph = build_ridge_graph(para)
    assert graph.edges == per_ridge_graph(para).edges
    assert len(graph.edges) == 6 * sum(b.length == 6 for b in para.belts)


@pytest.mark.parametrize("name", ["truncated-octahedron", "lattice-D4"])
@pytest.mark.parametrize("change, message", [
    ("independent", "unique linear dependence"),
    ("parallel", "degenerate dependence"),
])
def test_a_perturbed_normal_in_a_6_belt_raises(name, change, message):
    """Negative controls: a second facet normal of a 6-belt moved off the
    plane of the other two, or onto the first, leaves no dependence with
    three nonzero coefficients, for the belt or for its ridges."""
    para = copy.copy(built(name))
    p = para.polytope
    belt = next(b for b in para.belts if b.length == 6)
    n0, n1, n2 = (p.facet_normals[f] for f in belt.facets[:3])
    if change == "parallel":
        moved = n0
    else:
        moved = next(m for m in (linalg.vadd(n1, e) for e in linalg.identity(p.dim))
                     if linalg.rank((n0, m, n2)) == 3)
    normals = list(p.facet_normals)
    normals[belt.facets[1]] = moved
    para.polytope = Polytope(p.dim, p.vertices, tuple(normals), p.facet_offsets,
                             p.facet_vertex_ids)
    with pytest.raises(GeometryError, match=message):
        build_ridge_graph(para)
    with pytest.raises(GeometryError):  # maybe first at another belt
        per_ridge_graph(para)


@pytest.mark.parametrize("seed", range(2))
def test_bisector_check_matches_the_fraction_sweep_in_4d(seed):
    """The integer bisector check and sweep return the witness of the
    `Fraction` ones on 4-D lattices: none for the Voronoi cell of the
    lattice under a randomly perturbed Gram, a facet against a second
    perturbation."""
    rng = random.Random(seed)
    kinds = set()
    for lat in (catalog("lattice-D4").lattice, A2_A2):
        gram = perturbed(rng, lat.gram)
        para = Parallelohedron.build(dv_cell(Lattice.create(lat.basis, gram)))
        centers = para.lattice.basis
        for case in (Lattice.create(centers, gram),
                     Lattice.create(centers, perturbed(rng, gram))):
            witness = voronoi_mismatch(para, case)
            assert witness == fraction_voronoi_mismatch(para, case)
            kinds.add(None if witness is None else witness.kind)
    assert kinds == {None, "facet"}


def test_voronoi_form_rejects_opposite_facets_scaled_apart():
    """Opposite facets share one block of equations, so a scaling that
    gives them different values is refused rather than half-read."""
    para = built("truncated-octahedron")
    s = canonical_scaling(ridge_graph("truncated-octahedron"))
    values = list(s.values)
    values[0] *= 2
    with pytest.raises(GeometryError, match="opposite facets 0 and"):
        voronoi_form(para, s._replace(values=tuple(values)))
