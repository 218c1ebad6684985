import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import LATTICE_CATALOG, an_star
from generators import E_EDGES, cartan, d_edges
from oracles import (
    box_vectors_in_ball,
    central_symmetry,
    coefficient_box,
    covering_counts,
    exhaustive_coset_minimizers,
    f_vector,
    fraction_det,
    fraction_ldl,
    fraction_primitive,
    from_coefficients,
    hull_counts,
    inverse,
    random_unimodular,
    reduced_form,
    vscale,
    zeros,
)
from parallo import lattice, linalg, report, serialize
from parallo.catalog import catalog
from parallo.errors import GeometryError
from parallo.lattice import (
    Lattice,
    _ambient_sorted,
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
    # a Gram matrix of the wrong size, symmetric and positive definite
    with pytest.raises(GeometryError, match="gram matrix must be 2x2"):
        Lattice.create([[1, 0], [0, 1]], linalg.identity(3))


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
        assert shortest_in_coset(lat, from_coefficients(lat, parity)) == oracle


@pytest.mark.parametrize("seed", range(3))
def test_shortest_in_coset_of_skewed_bases_against_oracle(seed):
    """Every coset of z3, bcc, a2 and a skew 3-D Gram under random
    unimodular basis changes, against the exhaustive sweep over a box
    wide enough to hold the coset's 0/1 representative's ball."""
    rng = random.Random(seed)
    skew = Lattice.create(linalg.identity(3),
                          [[2, F(1, 2), F(-1, 3)], [F(1, 2), 3, 1], [F(-1, 3), 1, F(5, 2)]])
    for base in (z3(), bcc(), a2(), skew):
        u = random_unimodular(rng, base.dim, steps=3)
        basis = [[linalg.dot(row, col) for col in zip(*base.basis)] for row in u]
        lat = Lattice.create(basis, base.gram)
        for parity in product((0, 1), repeat=lat.dim):
            rep = parity if any(parity) else tuple(2 * (i == 0) for i in range(lat.dim))
            axes = coefficient_box(lat, lat.norm_sq(from_coefficients(lat, rep)),
                                   zeros(lat.dim))
            box = [max(-r.start, r.stop - 1) // 2 + 1 for r in axes]
            oracle = exhaustive_coset_minimizers(lat.basis, lat.gram, parity, box)
            coset = from_coefficients(lat, parity)
            assert shortest_in_coset(lat, coset) == oracle


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
    assert f_vector(dv_cell(z3())) == (8, 12, 6)
    assert f_vector(dv_cell(bcc())) == (24, 36, 14)
    assert f_vector(dv_cell(a2())) == (6, 6)


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
        ok, center = central_symmetry(list(cell.vertices))
        assert ok and all(x == 0 for x in center)
        rv = relevant_vectors(lat)
        for v in rv:
            normal = linalg.matvec(lat.gram, v)
            matches = [
                fi for fi, n in enumerate(cell.facet_normals)
                if fraction_primitive(normal) == n
                and linalg.dot(n, vscale(F(1, 2), v)) == cell.facet_offsets[fi]
            ]
            assert len(matches) == 1
            ids = cell.facet_vertex_ids[matches[0]]
            facet_center = tuple(
                sum((cell.vertices[i][k] for i in ids), F(0)) / len(ids)
                for k in range(cell.dim)
            )
            assert facet_center == vscale(F(1, 2), v)
        for ids in cell.facet_vertex_ids:
            ok, _ = central_symmetry([cell.vertices[i] for i in ids])
            assert ok


def test_vectors_in_ball_exactness():
    lat = z3()
    ball = vectors_in_ball(lat, F(2))
    assert len(ball) == 1 + 6 + 12  # origin, units, sqrt2 shell
    assert all(lat.norm_sq(v) <= 2 for v in ball)


def test_tiling_identity(rng):
    for lat in (z3(), bcc(), a2()):
        cell = dv_cell(lat)
        d = lat.dim
        interior_hits = 0
        for _ in range(200):
            coeffs = [F(rng.randint(0, 996), 997) for _ in range(d)]
            x = from_coefficients(lat, coeffs)
            closed, interior = covering_counts(lat, cell, x)
            # partition property: interior of exactly one tile, or on the
            # common boundary of several
            assert interior <= 1 <= closed
            assert (interior == 1) == (closed == 1)
            interior_hits += interior
        assert interior_hits >= 190


DENOMINATORS = (1, 2, 3, 5, 7)


def rationals(lo, hi):
    return st.builds(F, st.integers(lo, hi), st.sampled_from(DENOMINATORS))


@st.composite
def skewed_lattices(draw):
    """A lattice with a sheared basis of mixed denominators and a Gram
    L L^T of mixed denominators."""
    d = draw(st.integers(1, 5))
    basis = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, d)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
    basis = [[x / q for x in row]
             for row, q in zip(basis, draw(st.lists(st.sampled_from(DENOMINATORS),
                                                     min_size=d, max_size=d)))]
    low = [[draw(rationals(1, 3)) if i == j else draw(rationals(-1, 1)) if j < i
            else F(0) for j in range(d)] for i in range(d)]
    gram = [[linalg.dot(a, b) for b in low] for a in low]  # low times its transpose
    return Lattice.create(basis, gram)


@st.composite
def skewed_balls(draw):
    """A skewed lattice and a radius."""
    lat = draw(skewed_lattices())
    scale = draw(rationals(1, 6))
    return lat, scale * max(lat.coefficient_form[i][i] for i in range(lat.dim))


@given(skewed_balls())
@settings(max_examples=80, deadline=None)
def test_vectors_in_ball_matches_the_coefficient_box(case):
    """The pruned enumeration finds exactly the vectors of the whole
    coefficient-box sweep, for d = 1-5; the radius is halved until the
    box has at most 1,500 points, so the oracle stays quick."""
    lat, r2 = case
    center = zeros(lat.dim)
    while math.prod(len(r) for r in coefficient_box(lat, r2, center)) > 1500:
        r2 /= 2
    assert vectors_in_ball(lat, r2) == box_vectors_in_ball(lat, r2)


def test_vectors_in_ball_edge_radii():
    lat = a2()
    assert vectors_in_ball(lat, F(-1)) == []
    assert vectors_in_ball(lat, 0) == [(0, 0)]
    # the six shortest vectors have norm exactly 2
    assert len(vectors_in_ball(lat, 2)) == 7
    assert len(vectors_in_ball(lat, F(2) - F(1, 10 ** 9))) == 1


def _ball_radius(lat):
    """sum_i D_i, the radius of the one ball `_coset_minima` enumerates."""
    _, _, diag, ds = lat._ldl
    return F(sum(diag), ds)


@given(skewed_lattices())
@settings(max_examples=40, deadline=None)
def test_coset_minima_match_the_coefficient_box(lat):
    """Every class of L/2L gets its minima from the one ball: the
    coefficient-box sweep of the class, within the norm `_coset_minima`
    found, finds no shorter member and the same minima, and so does the
    exhaustive coset sweep over that box. Only the lattices whose
    sum_i D_i ball has a box of at most 10,000 points are swept, so the
    oracles stay quick."""
    d, center = lat.dim, zeros(lat.dim)
    assume(math.prod(len(r) for r in coefficient_box(lat, _ball_radius(lat), center))
           <= 10_000)
    minima = lattice._coset_minima(lat)
    assert sorted(minima) == list(product((0, 1), repeat=d))
    for parity, ks in minima.items():
        found = _ambient_sorted(lat, ks)
        least = lat.norm_sq(found[0])
        assert {lat.norm_sq(v) for v in found} == {least}
        members = [v for v in box_vectors_in_ball(lat, least, parity=parity) if any(v)]
        assert found == members
        box = [max(-r.start, r.stop - 1) // 2 + 1
               for r in coefficient_box(lat, least, center)]
        assert exhaustive_coset_minimizers(lat.basis, lat.gram, parity, box) == found


def test_a_quarter_of_the_ball_misses_relevant_vectors(monkeypatch):
    """Negative control: a ball of radius sum_i D_i / 4 is too small;
    Z3 (sum D_i = 3) loses all six relevant vectors, and BCC and A2
    lose all of theirs too."""
    enumerate_ = lattice._enumerate
    monkeypatch.setattr(lattice, "_enumerate", lambda lat, r2: enumerate_(lat, r2 / 4))
    for lat in (z3(), bcc(), a2()):
        assert relevant_vectors(lat) == []


def test_enumeration_counts_every_candidate_against_the_budget(monkeypatch):
    """The Z^2 ball of radius 1 has 3 candidates on the top level and
    1 + 3 + 1 below it: 8 nodes pass the budget and 7 do not."""
    monkeypatch.setattr(lattice, "_NODE_BUDGET", 8)
    assert len(vectors_in_ball(Lattice.create(linalg.identity(2)), 1)) == 5
    monkeypatch.setattr(lattice, "_NODE_BUDGET", 7)
    with pytest.raises(GeometryError, match="more than 7 nodes"):
        vectors_in_ball(Lattice.create(linalg.identity(2)), 1)


def d_n(n):
    """The lattice D_n: the standard basis under the Cartan matrix of D_n
    (the Gram matrix of its simple roots)."""
    return Lattice.create(linalg.identity(n), cartan(n, d_edges(n)))


def test_inputs_within_the_budget_still_certify():
    """Aspect 10^3 (about 4,000 nodes for its relevant vectors) and D5
    stay within the budget. D_n has 2^n + 2n vertices and 2n(n - 1)
    facets."""
    d5 = d_n(5)
    assert (d5.cell.n_vertices, d5.cell.n_facets) == (42, 40)
    for lat in (Lattice.create([[1000, 0], [0, 1]]), d5):
        assert report.verify(lat)["verdict"] == "certified"


def test_e7_star_certifies():
    """E7*: the standard basis under the inverse of the E7 Cartan matrix
    (the Gram matrix of its fundamental weights). One ball gives its 182
    relevant vectors, 56 of norm 3/2 and 126 of norm 2, and its cell
    has 576 vertices."""
    lat = Lattice.create(linalg.identity(7), inverse(cartan(7, E_EDGES)))
    norms = Counter(map(lat.norm_sq, relevant_vectors(lat)))
    assert norms == {F(3, 2): 56, F(2): 126}
    assert (lat.cell.n_vertices, lat.cell.n_facets) == (576, 182)
    assert report.verify(lat)["verdict"] == "certified"


@pytest.mark.parametrize("name", LATTICE_CATALOG)
def test_a_lattice_verify_enumerates_the_lattice_twice(name, monkeypatch):
    """A whole `verify` of a fresh `Lattice`, whose cell is built inside
    the count, runs two Fincke-Pohst enumerations: the one ball of the
    relevant vectors and the translate table's."""
    entry = catalog(name)
    calls = []
    enumerate_ = lattice._enumerate

    def counted(*args):
        calls.append(args)
        return enumerate_(*args)

    monkeypatch.setattr(lattice, "_enumerate", counted)
    lat = Lattice.create(entry.lattice.basis, entry.lattice.gram)
    assert report.verify(lat, name=name)["verdict"] == "certified"
    assert len(calls) == 2


@given(skewed_lattices())
@settings(max_examples=60, deadline=None)
def test_lll_reduction_is_unimodular_and_reduced(lat):
    """The reduction U has |det U| = 1, so the rows of U B generate the
    same lattice. The Gram-Schmidt data it keeps are exact: the Fraction
    LDL oracle of U Q U^T, whose U_ji (j < i) are the coefficients
    mu_ij and whose D_i are the squared norms |b*_i|^2, gives the same
    mu and bs / s. By them the basis is LLL-reduced with delta = 3/4."""
    u, mu, bs, s = lat._reduction
    assert abs(fraction_det(linalg.mat(u))) == 1
    v, norms = fraction_ldl(reduced_form(lat))
    d = lat.dim
    assert [[mu[i][j] for j in range(i)] for i in range(d)] == \
        [[v[j][i] for j in range(i)] for i in range(d)]
    assert [F(x, s) for x in bs] == norms
    assert all(abs(mu[i][j]) <= F(1, 2) for i in range(d) for j in range(i))
    assert all(norms[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, d))


@pytest.mark.parametrize("name", LATTICE_CATALOG)
def test_a_doubled_reduced_row_fails_the_unimodular_check(name, monkeypatch):
    """Negative control: a reduction with one row doubled has
    |det U| = 2. Its rows span a sublattice of index 2, and the
    enumeration over it misses vectors the unreduced box sweep finds."""
    entry = catalog(name).lattice  # built, and cached, unpatched
    lll = lattice._lll

    def doubled(g):
        u, *gram_schmidt = lll(g)
        u[-1] = [2 * x for x in u[-1]]
        return (u, *gram_schmidt)

    monkeypatch.setattr(lattice, "_lll", doubled)
    lat = Lattice.create(entry.basis, entry.gram)
    u, *_ = lat._reduction
    assert abs(fraction_det(linalg.mat(u))) == 2
    r2 = 2 * max(lat.norm_sq(b) for b in lat.basis)
    assert vectors_in_ball(lat, r2) != box_vectors_in_ball(lat, r2)


@pytest.mark.parametrize("name", LATTICE_CATALOG)
def test_reduced_enumeration_matches_the_unreduced_box(name):
    """The enumeration in reduced coordinates finds exactly the vectors
    of the Fraction sweep over the given basis's coefficient box, on the
    catalog lattice and on three seeded small shears of its basis."""
    entry = catalog(name).lattice
    rng = random.Random(name)
    r2 = 2 * max(entry.norm_sq(b) for b in entry.basis)
    bases = [entry.basis] + [
        [[linalg.dot(row, col) for col in zip(*entry.basis)]
         for row in random_unimodular(rng, entry.dim, steps=4)]
        for _ in range(3)]
    for basis in bases:
        lat = Lattice.create(basis, entry.gram)
        assert vectors_in_ball(lat, r2) == box_vectors_in_ball(lat, r2)
        assert relevant_vectors(lat) == relevant_vectors(entry)


def _heavy_shear(rng, d, c=500):
    """A seeded unimodular R L, R unit upper and L unit lower triangular
    with entries in [-c, c]: its entries reach d c^2 = 10^6 at d = 4."""
    r = [[1 if i == j else rng.randint(-c, c) if i < j else 0 for j in range(d)]
         for i in range(d)]
    l = [[1 if i == j else rng.randint(-c, c) if i > j else 0 for j in range(d)]
         for i in range(d)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*l)] for row in r]


_A2 = [[2, 1], [1, 2]]
PLAIN_BASES = {
    "Z2": Lattice.create(linalg.identity(2)),
    "Z4": Lattice.create(linalg.identity(4)),
    "D4": catalog("lattice-D4").lattice,
    "A2+A2": Lattice.create(linalg.identity(4), [r + [0, 0] for r in _A2]
                            + [[0, 0] + r for r in _A2]),
}


@pytest.mark.parametrize("name", PLAIN_BASES)
def test_heavily_sheared_bases_certify_like_the_plain_basis(name):
    """Seeded shears with entries up to 10^6 (and Z2's ((1, 2010), (0, 1)),
    refused as "too skewed" before the reduction) certify, with a report
    byte-identical to the plain basis's apart from `name`, in well under
    a second each (2-21 ms measured in process on a shared 2-vCPU VM)."""
    plain = PLAIN_BASES[name]
    want = serialize.dumps(report.verify(plain))
    assert '"certified"' in want
    rng = random.Random(f"shear:{name}")
    shears = [_heavy_shear(rng, plain.dim) for _ in range(3)]
    if name == "Z2":
        shears.append([[1, 2010], [0, 1]])
    for u in shears:
        assert 2000 <= max(abs(x) for row in u for x in row) <= 10 ** 6
        basis = [[linalg.dot(row, col) for col in zip(*plain.basis)] for row in u]
        lat = Lattice.create(basis, plain.gram)
        start = time.perf_counter()
        doc = report.verify(lat, name="sheared")
        seconds = time.perf_counter() - start
        assert serialize.dumps({**doc, "name": None}) == want
        assert seconds < 1
