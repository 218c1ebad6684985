"""Random positive definite forms as an outside oracle.

The Dirichlet-Voronoi cell of every lattice tiles, so a random form G
gives an input, `Lattice.create(I, G)`, whose verdict is known before
the program runs: `certified`. G itself must pass the exact Voronoi
check `voronoi_mismatch` on its cell. That holds also where
`gram_match` reads false, since a non-primitive cell admits a cone of
forms (every diagonal form gives the unit cube). A primitive cell fixes
its form up to scale (Voronoi 1908): there `gram_match` reads matched,
and G with one off-diagonal pair moved by 1 fails the check. The image
of a cell under a rational linear map M and a shift certifies, and its
form is M^-T G M^-1. In d = 3, the draws, diagonal forms (the cube) and
unimodular images of FCC's form (the rhombic dodecahedron) reach all
five Fedorov types.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from conftest import SEED
from generators import random_form
from oracles import apply_affine, inverse, random_unimodular, vscale
from parallo import linalg, report
from parallo.catalog import catalog
from parallo.lattice import Lattice
from parallo.parallelohedron import Parallelohedron
from parallo.polytope import Polytope
from parallo.scaling import voronoi_mismatch

DRAWS = {3: 40, 4: 12, 5: 2}

# (vertices, edges, facets) of the cube, the hexagonal prism, the rhombic
# dodecahedron, the elongated dodecahedron and the truncated octahedron
FEDOROV_F_VECTORS = {(8, 12, 6), (12, 18, 8), (14, 24, 12), (18, 28, 12),
                     (24, 36, 14)}


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _proportional(a, b) -> bool:
    scale = Fraction(a[0][0]) / b[0][0]
    return all(x == scale * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


@cache
def _draws(d: int) -> tuple:
    """(G, its lattice, the lattice's verify report, the built cell) per
    seeded draw of dimension d; in d = 3 also two diagonal forms and two
    unimodular images of FCC's form."""
    rng = random.Random(SEED + d)
    forms = [random_form(rng, d) for _ in range(DRAWS[d])]
    if d == 3:
        fcc = catalog("lattice-FCC").lattice.coefficient_form
        for _ in range(2):
            forms.append([[rng.randint(1, 4) if i == j else 0
                           for j in range(d)] for i in range(d)])
            u = random_unimodular(rng, d)
            forms.append(_mul(_mul(u, fcc), linalg.transpose(u)))
    draws = []
    for g in forms:
        lat = Lattice.create(linalg.identity(d), g)
        draws.append((g, lat, report.verify(lat),
                      Parallelohedron.build(lat.cell)))
    return tuple(draws)


@pytest.mark.parametrize("d", sorted(DRAWS))
def test_a_random_form_certifies_and_passes_its_own_voronoi_check(d):
    primitive = 0
    pairs = list(combinations(range(d), 2))
    for k, (g, _, doc, para) in enumerate(_draws(d)):
        assert doc["verdict"] == "certified", g
        assert voronoi_mismatch(para, g) is None, g
        if not all(doc["primitivity"].values()):
            continue
        primitive += 1
        assert doc["gram_match"]["matched"], g
        # negative control: a primitive cell admits no other form
        i, j = pairs[k % len(pairs)]
        moved = [row[:] for row in g]
        moved[i][j] += 1
        moved[j][i] += 1
        assert voronoi_mismatch(para, moved) is not None, g
    if d == 3:
        assert primitive > 0


@pytest.mark.parametrize("d", sorted(DRAWS))
def test_an_affine_image_certifies_under_the_pushed_form(d):
    """The first draw under a random rational M and shift: the image
    certifies, and M^-T G M^-1 passes the Voronoi check on it."""
    rng = random.Random(SEED - d)
    g, lat, _, _ = _draws(d)[0]
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(d)] for _ in range(d)]
        if linalg.det(linalg.mat(m)):
            break
    shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
    image = apply_affine(lat.cell, m, shift)
    doc = report.verify(image)
    assert doc["verdict"] == "certified"
    m_inv = inverse(linalg.mat(m))
    pushed = _mul(_mul(linalg.transpose(m_inv), g), m_inv)
    para = Parallelohedron.build(image)
    assert voronoi_mismatch(para, pushed) is None
    if all(para.primitivity_profile().values()):
        assert _proportional(doc["certificate"]["gram"], pushed)


@pytest.mark.parametrize("antipode", [False, True])
@pytest.mark.parametrize("d", [3, 4])
def test_a_moved_vertex_does_not_certify(d, antipode):
    """Negative control: the first draw's cell with one seeded vertex
    scaled by 11/10, alone or together with its antipode (which keeps
    the cell centrally symmetric), gets no `certified`."""
    vertices = list(_draws(d)[0][1].cell.vertices)
    v = vertices[random.Random(SEED + d).randrange(len(vertices))]
    moved = {v} | ({linalg.vneg(v)} if antipode else set())
    doc = report.verify(Polytope.from_vertices(
        [vscale(Fraction(11, 10), w) if w in moved else w
         for w in vertices]))
    assert doc["verdict"] != "certified"


def test_the_three_dimensional_draws_reach_all_five_types():
    faces = [para.polytope.face_lattice.faces for *_, para in _draws(3)]
    assert {(len(f(0)), len(f(1)), len(f(2))) for f in faces} \
        == FEDOROV_F_VECTORS
