import copy
import json
import random
from collections import Counter
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
    rank,
    ridge_dependence,
    ridge_image_map,
    ridge_neighbors,
    scanned_superfaces,
    vscale,
    walk_closed,
    walk_gain,
    walk_ridges,
    zeros,
)
from parallo import lattice, linalg, report, scaling, serialize
from parallo.catalog import catalog, catalog_names
from parallo.errors import GeometryError
from parallo.lattice import Lattice, dv_cell, relevant_vectors, vectors_in_ball
from parallo.parallelohedron import Parallelohedron
from parallo.polytope import Polytope
from parallo.scaling import (
    build_ridge_graph,
    canonical_scaling,
    certify,
    voronoi_form,
    voronoi_mismatch,
)
from parallo.topology import face_walk

F = Fraction


def _hex_facets(p):
    return [fi for fi, n in enumerate(p.facet_normals)
            if sum(abs(x) for x in n) == 3]


def _square_facets(p):
    return [fi for fi, n in enumerate(p.facet_normals)
            if sorted(map(abs, n)) == [0, 0, 1]]


def _find_ridge(para, gains, n_from, n_to):
    """Primitive ridge whose two facet normals are the given pair."""
    p = para.polytope
    wanted = {linalg.vec(n_from), linalg.vec(n_to)}
    for rid in gains:
        if {p.facet_normals[f] for f in para.ridge_facets[rid]} == wanted:
            return rid
    raise AssertionError("no such ridge")


def test_ridge_dependence_truncated_octahedron():
    para = built("truncated-octahedron")
    rid = _find_ridge(para, ridge_graph("truncated-octahedron"),
                      (1, 1, 1), (1, 1, -1))
    n1, n2, n3, alpha, facets = ridge_dependence(para, rid)
    assert {n1, n2} == {linalg.vec((1, 1, 1)), linalg.vec((1, 1, -1))}
    assert n3 in (linalg.vec((0, 0, 1)), linalg.vec((0, 0, -1)))
    # unique dependence, normalized: alpha entries (1, -1, +-2)
    assert abs(alpha[0]) == abs(alpha[1]) == 1 and abs(alpha[2]) == 2
    combo = [vscale(a, x) for a, x in zip(alpha, (n1, n2, n3))]
    assert all(sum(col) == 0 for col in zip(*combo))


def test_gain_values_truncated_octahedron():
    para = built("truncated-octahedron")
    gains = ridge_graph("truncated-octahedron")
    rid = _find_ridge(para, gains, (1, 1, 1), (1, 1, -1))
    a, b = para.ridge_facets[rid]
    assert gains[rid] == walk_gain(para, gains, (a, b)) == 1
    hexes = set(_hex_facets(para.polytope))
    rid = _find_ridge(para, gains, (1, 1, 1), (0, 0, 1))
    a, b = para.ridge_facets[rid]
    hx, sq = (a, b) if a in hexes else (b, a)
    assert walk_gain(para, gains, (hx, sq)) == 2
    assert walk_gain(para, gains, (sq, hx)) == F(1, 2)
    # the table holds the gain from the ridge's first facet to its second
    assert gains[rid] == (2 if a == hx else F(1, 2))


def test_gain_reciprocity_everywhere():
    for name in POLYTOPE_CATALOG:
        para, gains = built(name), ridge_graph(name)
        for rid in gains:
            a, b = para.ridge_facets[rid]
            assert walk_gain(para, gains, (a, b)) * \
                walk_gain(para, gains, (b, a)) == 1


def test_backtrack_gain_is_one():
    for name in POLYTOPE_CATALOG:
        para, gains = built(name), ridge_graph(name)
        for rid in list(gains)[:5]:
            a, b = para.ridge_facets[rid]
            assert walk_gain(para, gains, (a, b, a)) == 1


def test_walk_gain_rejects_a_step_off_the_primitive_ridges():
    """Negative controls of the walk oracle: a facet and its opposite
    share no ridge, and every ridge of the cube lies in a 4-belt."""
    para, gains = built("truncated-octahedron"), ridge_graph("truncated-octahedron")
    with pytest.raises(GeometryError, match="share no ridge"):
        walk_gain(para, gains, (0, para.opposite_facet[0]))
    cube = built("cube")
    with pytest.raises(GeometryError, match="is not primitive"):
        walk_gain(cube, ridge_graph("cube"), cube.ridge_facets[0])


def test_half_belt_and_full_belt_gains():
    for name in POLYTOPE_CATALOG:
        para = built(name)
        gains = ridge_graph(name)
        for belt in para.belts:
            if belt.length != 6:
                continue
            assert half_belt_check(para, gains, belt) == 1
            assert walk_gain(para, gains, belt.facets + belt.facets[:1]) == 1
        for belt in para.belts:
            if belt.length == 4:
                with pytest.raises(GeometryError):
                    half_belt_check(para, gains, belt)
                break


def test_walk_multiplicativity(rng):
    for name in POLYTOPE_CATALOG:
        para, gains = built(name), ridge_graph(name)
        if not gains:
            continue
        adjacency = ridge_neighbors(para, gains)
        for _ in range(100):
            start = rng.choice([f for f, ns in adjacency.items() if ns])
            facets = [start]
            for _ in range(rng.randint(1, 6)):
                nbrs = adjacency[facets[-1]]
                if not nbrs:
                    break
                facets.append(rng.choice(nbrs))
            if len(facets) < 3:
                continue
            cut = rng.randint(1, len(facets) - 2)
            w1, w2 = tuple(facets[: cut + 1]), tuple(facets[cut:])
            assert walk_gain(para, gains, tuple(facets)) == \
                walk_gain(para, gains, w1) * walk_gain(para, gains, w2)


def test_ridge_graph_shapes():
    def shape(name):
        para, gains = built(name), ridge_graph(name)
        assert list(gains) == sorted(para.primitive_ridges)
        return len(gains), len(set(para.delta_roots))

    assert shape("cube") == (0, 6)
    assert shape("hexagonal-prism") == (6, 3)
    prism = ridge_neighbors(built("hexagonal-prism"), ridge_graph("hexagonal-prism"))
    assert sorted(len(ns) for ns in prism.values()) == [0, 0, 2, 2, 2, 2, 2, 2]
    assert shape("truncated-octahedron") == (36, 1)


def test_canonical_scaling_values():
    cube, witness = canonical_scaling(built("cube"), ridge_graph("cube"))
    assert witness is None
    assert set(cube["values"]) == {F(1)}

    para = built("truncated-octahedron")
    s, _ = canonical_scaling(para, ridge_graph("truncated-octahedron"))
    assert all(s["values"][fi] == 1 for fi in _hex_facets(para.polytope))
    assert all(s["values"][fi] == 2 for fi in _square_facets(para.polytope))

    prism, _ = canonical_scaling(built("hexagonal-prism"),
                                 ridge_graph("hexagonal-prism"))
    assert set(prism["values"]) == {F(1)}


def test_scaling_satisfies_every_edge():
    for name in POLYTOPE_CATALOG:
        para, gains = built(name), ridge_graph(name)
        s, witness = canonical_scaling(para, gains)
        assert witness is None
        for rid, gain in gains.items():
            a, b = para.ridge_facets[rid]
            assert s["values"][b] == s["values"][a] * gain
        for f in range(para.polytope.n_facets):
            assert s["values"][f] == s["values"][para.opposite_facet[f]]


def test_canonical_scaling_witness_on_doctored_gains():
    para = built("truncated-octahedron")
    bad = dict(ridge_graph("truncated-octahedron"))
    first = next(iter(bad))
    bad[first] *= 3
    s, witness = canonical_scaling(para, bad)
    assert s is None and witness["kind"] == "cycle"
    assert walk_closed(witness["facets"])
    assert witness["gain"] != 1 and witness["gain"] == walk_gain(para, bad, witness["facets"])


def test_an_inverted_gain_gives_a_cycle_witness():
    """Negative control of the orientation convention: a gain read the
    wrong way round, from the ridge's second facet to its first, breaks
    a cycle through that ridge, and the witness's gain is the product of
    the doctored gains along its walk."""
    para = built("truncated-octahedron")
    gains = ridge_graph("truncated-octahedron")
    rid = next(r for r, g in gains.items() if g != 1)
    bad = {**gains, rid: 1 / gains[rid]}
    s, witness = canonical_scaling(para, bad)
    assert s is None and witness["kind"] == "cycle"
    assert walk_closed(witness["facets"])
    assert rid in walk_ridges(para, witness["facets"])
    assert witness["gain"] == walk_gain(para, bad, witness["facets"]) != 1
    assert walk_gain(para, gains, witness["facets"]) == 1


def test_opposite_facet_witness_on_a_doctored_cut():
    """Gains times 3 from the facets S whose normal's first nonzero entry
    is positive to the rest, and times 1/3 back: every cycle still
    closes, since it crosses the cut as often each way, but each facet
    and its opposite lie on different sides and end a factor 3 apart."""
    para = built("truncated-octahedron")
    normals = para.polytope.facet_normals
    side = [next(x for x in n if x) > 0 for n in normals]
    assert [f for f, s in enumerate(side) if s] == list(range(7, 14))
    gains = {}
    for rid, gain in ridge_graph("truncated-octahedron").items():
        a, b = para.ridge_facets[rid]
        gains[rid] = gain * F(3) ** (side[a] - side[b])
    assert canonical_scaling(para, gains) == (None, {
        "kind": "opposite-facet", "facets": (0, 1, 4, 13),
        "facet_pair": (0, 13), "gain": F(1, 3)})


@pytest.mark.parametrize("opposite_gain, expected", [
    (F(2), ({"values": (1, 2, 1, 1, 2, 1), "base_facets": (0, 2, 3, 4),
             "components": (0, 0, 1, 1, 0, 0)}, None)),
    (F(3), (None, {"kind": "opposite-facet", "facet_pair": (1, 4),
                   "gain": F(3, 2)})),
])
def test_canonical_scaling_rescales_the_opposite_component(
        monkeypatch, opposite_gain, expected):
    """No catalog input has a delta component with two or more facets
    that is not its own opposite, so the cube is given one: facets 0 and
    1 joined by a ridge of gain 2, and their opposites 5 and 4 by one of
    the given gain from 5 to 4. The component of 4 and 5 is rescaled to
    match 0 and 1; with a gain other than 2 no rescaling can, and the
    witness has no walk, as its facets lie in different components."""
    para = built("cube")
    assert para.opposite_facet == (5, 4, 3, 2, 1, 0)
    monkeypatch.setattr(para, "delta_roots", (0, 0, 2, 3, 4, 4))
    monkeypatch.setattr(para, "pi_roots", (0, 0, 2, 2, 0, 0))
    gains = {para.ridge_of[0, 1]: F(2), para.ridge_of[4, 5]: 1 / opposite_gain}
    assert canonical_scaling(para, gains) == expected


def test_voronoi_form_cube_identity():
    para = built("cube")
    s, _ = canonical_scaling(para, ridge_graph("cube"))
    cert = voronoi_form(para, s)
    assert cert["verdict"] == "certified"
    assert cert["gram"] == linalg.identity(3)


def test_voronoi_form_truncated_octahedron():
    _, cert = certify(built("truncated-octahedron"))
    assert cert["verdict"] == "certified"
    g = cert["gram"]
    scale = g[0][0]
    assert scale > 0
    assert g == tuple(
        tuple(scale * x for x in row) for row in linalg.identity(3)
    )


def solved(monkeypatch, para, s):
    """`voronoi_form(para, s)`, and the size of the solution basis it
    summed: the kernel of its linear system, which a certified
    certificate does not carry."""
    kernels = []
    int_kernel = linalg.int_kernel

    def spied(rows):
        kernels.append(int_kernel(rows))
        return kernels[-1]

    monkeypatch.setattr(linalg, "int_kernel", spied)
    cert = voronoi_form(para, s)
    return cert, len(kernels[-1])


def test_voronoi_form_prism_block_structure(monkeypatch):
    para = built("hexagonal-prism")
    s, _ = canonical_scaling(para, ridge_graph("hexagonal-prism"))
    cert, basis_size = solved(monkeypatch, para, s)
    assert cert["verdict"] == "certified"
    g = cert["gram"]
    assert g[0][2] == g[1][2] == g[2][0] == g[2][1] == 0
    # hexagon block proportional to the generating hexagonal metric
    scale = g[0][0] / 2
    assert (g[0][0], g[0][1], g[1][1]) == (2 * scale, scale, 2 * scale)
    assert g[2][2] > 0
    assert basis_size == 2


@pytest.mark.parametrize("name", POLYTOPE_CATALOG)
def test_voronoi_mismatch_accepts_the_recovered_form(name):
    para = built(name)
    assert voronoi_mismatch(para, certify(built(name))[1]["gram"]) is None


def test_voronoi_mismatch_names_a_facet_under_a_perturbed_form():
    para = built("truncated-octahedron")
    gram = [list(row) for row in certify(built("truncated-octahedron"))[1]["gram"]]
    gram[0][1] += F(1, 7)
    gram[1][0] += F(1, 7)
    witness = voronoi_mismatch(para, gram)
    assert witness["kind"] == "facet"
    t = para.facet_vectors[witness["facet"]]
    n = para.polytope.facet_normals[witness["facet"]]
    # G t is not a positive multiple of the facet normal
    assert rank((linalg.matvec(gram, t), n)) == 2


def doctored(para, lattice):
    """A copy of `para` over `lattice`: a negative control for the
    Voronoi proof's inclusion, which reads only that lattice's relevant
    vectors (the facet vectors, and so the bisector check, stay as they
    are). Its tiles are read again from the classes mod `lattice`."""
    para = copy.copy(para)
    para.lattice = lattice
    para.__dict__.pop("_rows_at", None)
    return para


def test_voronoi_mismatch_finds_a_cut_by_a_finer_lattice():
    cube = built("cube")  # vertices (+-1/2, +-1/2, +-1/2), facet vectors +-e_i
    half = Lattice.create([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]])
    witness = voronoi_mismatch(doctored(cube, half), half.gram)
    assert witness["kind"] == "cut"
    v, x = witness["lattice_vector"], witness["vertex"]
    assert x in cube.polytope.vertices
    assert v in vectors_in_ball(half, 3)  # 4 * max |x|^2
    assert 2 * half.inner(x, v) > half.norm_sq(v)
    assert voronoi_mismatch(cube, half.gram) is None  # the true table


def assert_matches_the_oracle(para, lattice):
    """`voronoi_mismatch` under the Gram of `lattice` against the oracle's
    sweep over the whole G-ball of `lattice`, and the witness kind (or
    None). Over the cell's own lattice the witness is the oracle's. Over
    a finer lattice a cut names the oracle's vertex, as the first vertex
    any lattice vector cuts is the first a relevant vector cuts, but its
    vector may differ, so that vector must cut the vertex."""
    expected = fraction_voronoi_mismatch(para, lattice)
    own = lattice.basis == para.lattice.basis
    witness = voronoi_mismatch(para if own else doctored(para, lattice),
                               lattice.gram)
    if own or witness is None or witness["kind"] == "facet":
        assert witness == expected
    else:
        assert expected["kind"] == "cut" and witness["vertex"] == expected["vertex"]
        x, v = witness["vertex"], witness["lattice_vector"]
        assert 2 * lattice.inner(x, v) > lattice.norm_sq(v)
    return None if witness is None else witness["kind"]


@pytest.mark.parametrize("name", catalog_names())
def test_a_certified_verify_enumerates_the_lattice_once(name, monkeypatch):
    """Once the cell exists, `verify` finds the least vectors of the
    classes of L/2L once, for the Voronoi proof under the recovered
    form, in d graded Fincke-Pohst searches; the tiles are read off the
    vertices' classes with no enumeration."""
    entry = catalog(name)
    entry.polytope  # the cell, cached on the catalog's lattice
    minima, searches = [], []
    coset_minima, enumerate_ = lattice._coset_minima, lattice._enumerate

    def counted_minima(lat):
        minima.append(lat)
        return coset_minima(lat)

    def counted(*args):
        searches.append(args)
        return enumerate_(*args)

    monkeypatch.setattr(lattice, "_coset_minima", counted_minima)
    monkeypatch.setattr(lattice, "_enumerate", counted)
    source = entry.lattice if entry.kind == "lattice" else entry.polytope
    assert report.verify(source, name=name)["verdict"] == "certified"
    assert len(minima) == 1
    assert len(searches) == entry.polytope.dim


@pytest.mark.parametrize("name", POLYTOPE_CATALOG)
def test_a_verify_scales_each_exact_table_to_integers_once(name, monkeypatch):
    """Over one `verify`, `linalg.integer_rows` receives the recentred
    polytope's vertices, its facet normals and the facet vectors at most
    once each: `Polytope.integer_form` and `facet_vector_rows` keep the
    scaled rows for every stage. A table equal to another, such as the
    cube's normals and facet vectors, may be read once for each."""
    polytope = catalog(name).polytope
    para = Parallelohedron.build(Polytope.from_vertices(polytope.vertices))
    tables = {"vertices": para.polytope.vertices,
              "facet normals": para.polytope.facet_normals,
              "facet vectors": para.facet_vectors}
    budget = Counter(tables.values())
    received = []
    integer_rows = linalg.integer_rows

    def recorded(rows):
        rows = [tuple(r) for r in rows]
        received.append(rows)
        return integer_rows(rows)

    fresh = Polytope.from_vertices(polytope.vertices)
    monkeypatch.setattr(linalg, "integer_rows", recorded)
    assert report.verify(fresh, name=name)["verdict"] == "certified"
    for what, table in tables.items():
        reads = sum(rows[:len(table)] == list(table) for rows in received)
        assert 0 < reads <= budget[table], what


def _z4_basis_change():
    """Z4 under a seeded unimodular basis change."""
    lat = Lattice.create(random_unimodular(random.Random(4), 4),
                         linalg.identity(4))
    return Parallelohedron.build(lat.cell)


@pytest.mark.parametrize("name", [*POLYTOPE_CATALOG, *LATTICE_CATALOG, "Z4"])
def test_voronoi_mismatch_matches_the_oracle_on_the_recovered_forms(name):
    """The recovered form gives no witness, as the oracle does; the form
    with its first off-diagonal entry moved names the oracle's facet, and
    the lattice with the first basis row halved cuts the oracle's
    vertex. Z4's relevant vectors under its form are its 8 facet
    vectors."""
    para = _z4_basis_change() if name == "Z4" else built(name)
    gram = certify(para)[1]["gram"]
    moved = [list(row) for row in gram]
    moved[0][1] += F(1, 7)
    moved[1][0] += F(1, 7)
    centers = para.lattice.basis
    if name == "Z4":
        relevant = relevant_vectors(Lattice(centers, gram))
        assert len(relevant) == 8
        assert set(relevant) == set(para.facet_vectors)
    finer = [[x / 2 for x in centers[0]], *centers[1:]]
    assert [assert_matches_the_oracle(para, lat) for lat in (
        Lattice.create(centers, gram),
        Lattice.create(centers, moved),
        Lattice.create(finer, gram),
    )] == [None, "facet", "cut"]


@pytest.mark.parametrize("seed", range(3))
def test_voronoi_mismatch_matches_the_fraction_sweep_on_perturbed_forms(seed):
    """The integer sweep agrees with the `Fraction` sweep over the
    coefficient box: for the Voronoi cell of a lattice under a randomly
    perturbed Gram (no witness), for that cell against a second
    perturbation (a facet), and over finer lattices with one basis row
    halved under the same Gram (a cut of the same vertex)."""
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
            kinds.add(assert_matches_the_oracle(para, case))
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


def test_dv_mismatch_certificate_reports_its_witness(monkeypatch):
    """The certificate carries the witness of a failed Voronoi proof: a
    cut found by a relevant vector of the half lattice, and a facet."""
    cube = built("cube")
    s, _ = canonical_scaling(cube, ridge_graph("cube"))
    assert "witness" not in voronoi_form(cube, s)
    half = Lattice.create([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]])
    doc = json.loads(serialize.dumps(voronoi_form(doctored(cube, half), s)))
    assert (doc["verdict"], doc["gram"]) == ("dv-mismatch",
                                             [["1", "0", "0"], ["0", "1", "0"],
                                              ["0", "0", "1"]])
    assert doc["witness"] == {"kind": "cut", "lattice_vector": ["-1/2", "0", "0"],
                              "vertex": ["-1/2", "-1/2", "-1/2"]}
    facet = {"kind": "facet", "facet": 3}
    monkeypatch.setattr(scaling, "voronoi_mismatch", lambda para, gram: facet)
    doc = voronoi_form(cube, s)
    assert (doc["verdict"], doc["witness"]) == ("dv-mismatch", facet)


def test_local_cycle_checks():
    para = built("truncated-octahedron")
    gains = ridge_graph("truncated-octahedron")
    lat = para.polytope.face_lattice
    for vertex in lat.faces(0):
        res = local_cycle_check(para, vertex, gains)
        assert not res.skipped and res.product == 1
    rd = built("rhombic-dodecahedron")
    rd_gains = ridge_graph("rhombic-dodecahedron")
    degrees = set()
    for vertex in rd.polytope.face_lattice.faces(0):
        res = local_cycle_check(rd, vertex, rd_gains)
        assert not res.skipped and res.product == 1
        degrees.add(len(res.walk) - 1)
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
            assert not para.primitive_ridges.issuperset(ridges)
        else:
            assert sorted(walk_ridges(para, walk)) == ridges


def test_normal_rescaling_leaves_closed_products(rng):
    for name in ("truncated-octahedron", "elongated-dodecahedron"):
        para = built(name)
        gains = ridge_graph(name)
        scale = {
            fi: F(rng.randint(1, 9), rng.randint(1, 9))
            for fi in range(para.polytope.n_facets)
        }
        scaled = per_ridge_graph(para, normal_scale=scale)
        for belt in para.belts:
            if belt.length != 6:
                continue
            loop = belt.facets + belt.facets[:1]
            assert walk_gain(para, scaled, loop) == \
                walk_gain(para, gains, loop) == 1
        # random closed walks: out along tree of edges, back the same way
        for rid in list(gains)[:10]:
            a, b = para.ridge_facets[rid]
            assert walk_gain(para, scaled, (a, b, a)) == 1


def test_affine_invariance_of_closed_walk_gains(rng):
    for name in ("hexagonal-prism", "truncated-octahedron"):
        para = built(name)
        gains = ridge_graph(name)
        for _ in range(3):
            a = random_unimodular(rng, 3)
            image = Parallelohedron.build(apply_affine(para.polytope, a))
            igains = build_ridge_graph(image)
            rmap = ridge_image_map(para, image, a, zeros(3))
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
                walk = belt.facets[:4]
                mapped = tuple(fmap[f] for f in walk)
                assert walk_gain(para, gains, walk) == \
                    walk_gain(image, igains, mapped)


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
    # the 3-D cells under seeded unimodular maps
    **{f"{name}-skewed": lambda name=name, seed=seed: Parallelohedron.build(
        skewed(built(name).polytope, seed))
       for seed, name in enumerate(
           POLYTOPE_CATALOG + ("lattice-Z3", "lattice-FCC", "lattice-BCC"), 3)},
}


@pytest.mark.parametrize("name", list(GAIN_CASES))
def test_belt_gains_match_the_per_ridge_kernels(name):
    """One integer kernel per 6-belt gives every ridge the gain of its
    own `Fraction` kernel, in the same ridge order and oriented from the
    ridge's first facet to its second."""
    para = GAIN_CASES[name]()
    gains = build_ridge_graph(para)
    assert list(gains.items()) == list(per_ridge_graph(para).items())
    assert list(gains) == sorted(para.primitive_ridges)
    assert len(gains) == 6 * sum(b.length == 6 for b in para.belts)


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
                     if rank((n0, m, n2)) == 3)
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
            kinds.add(assert_matches_the_oracle(para, case))
    assert kinds == {None, "facet"}


def test_voronoi_form_rejects_opposite_facets_scaled_apart():
    """Opposite facets share one block of equations, so a scaling that
    gives them different values is refused rather than half-read."""
    para = built("truncated-octahedron")
    s, _ = canonical_scaling(para, ridge_graph("truncated-octahedron"))
    values = list(s["values"])
    values[0] *= 2
    with pytest.raises(GeometryError, match="opposite facets 0 and"):
        voronoi_form(para, {**s, "values": tuple(values)})


def _one_pair_tripled(name):
    """The entry's canonical scaling with facet 0 and its opposite
    multiplied by 3."""
    para = built(name)
    s, _ = canonical_scaling(para, ridge_graph(name))
    values = list(s["values"])
    for f in (0, para.opposite_facet[0]):
        values[f] *= 3
    return para, {**s, "values": tuple(values)}


def test_voronoi_form_with_no_solution_is_a_scaling_failure():
    """On the truncated octahedron every facet is in one scaling group,
    so tripling one opposite pair leaves G t_F = c s(F) n_F with only the
    zero solution: "scaling-fails" with no form, basis or witness."""
    para, s = _one_pair_tripled("truncated-octahedron")
    assert voronoi_form(para, s) == {"verdict": "scaling-fails"}


def test_voronoi_form_on_a_tripled_cube_axis_still_certifies(monkeypatch):
    """Negative control: each axis of the cube is its own scaling group,
    so a tripled pair of facets only triples its axis of the form."""
    para, s = _one_pair_tripled("cube")
    axis = next(i for i, x in enumerate(para.polytope.facet_normals[0]) if x)
    cert, basis_size = solved(monkeypatch, para, s)
    assert cert["verdict"] == "certified" and "witness" not in cert
    assert cert["gram"] == tuple(tuple(3 if i == j == axis else int(i == j)
                                    for j in range(3)) for i in range(3))
    assert cert["component_factors"] == (1, 1, 1)
    assert basis_size == 3
