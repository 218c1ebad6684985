"""Direct products of parallelohedra, a family with a known answer.

A product P x Q of two parallelohedra is a parallelohedron, and it is
the Voronoi cell of the product lattice under the block-diagonal form of
the factors' forms, each block free up to a positive multiple. So every
product of two of {the segment, the catalog cells of dimension <= 3}
with 4 <= d <= 5 must certify with m_P + m_Q facets, no coupling between
the factors' coordinates, and each factor's block proportional to the
form its own `verify` recovers. A factor that fails the Venkov checks
fails them in the product too.
"""

from functools import cache
from itertools import combinations_with_replacement

import pytest

from conftest import LATTICE_CATALOG, POLYTOPE_CATALOG, fixture_polytope
from generators import SEGMENT, product
from parallo import report
from parallo.catalog import catalog


@cache
def factor(name: str):
    if name == "segment":
        return SEGMENT
    return catalog(name).polytope


@cache
def own_gram(name: str):
    """The form the factor's own `verify` recovers; a segment's is any
    positive 1 x 1 form."""
    if name == "segment":
        return ((1,),)
    doc = report.verify(factor(name))
    assert doc["verdict"] == "certified", name
    return doc["certificate"]["gram"]


def _low_dimensional():
    names = ["segment"] + [n for n in POLYTOPE_CATALOG + LATTICE_CATALOG
                           if factor(n).dim <= 3]
    return [(a, b) for a, b in combinations_with_replacement(names, 2)
            if 4 <= factor(a).dim + factor(b).dim <= 5]


PAIRS = _low_dimensional()


def test_every_pair_of_small_factors_is_covered():
    """The segment, two 2-D and eight 3-D cells: 8 products with the
    segment, 3 of two 2-D cells and 16 of a 2-D and a 3-D cell."""
    assert len(PAIRS) == 27


def _is_multiple(block, gram) -> bool:
    scale = block[0][0] / gram[0][0]
    return scale > 0 and all(x == scale * y for row, own in zip(block, gram)
                             for x, y in zip(row, own))


def test_the_block_check_rejects_another_form():
    """Negative control: the hexagonal form is no multiple of the square
    one, and a negated form no positive multiple of itself."""
    a2, z2 = own_gram("lattice-A2-gram"), own_gram("lattice-Z2")
    assert _is_multiple(a2, a2) and not _is_multiple(a2, z2)
    assert not _is_multiple([[-x for x in row] for row in z2], z2)


@pytest.mark.parametrize("a, b", PAIRS)
def test_a_product_certifies_with_the_factors_forms(a, b):
    p, q = factor(a), factor(b)
    prod = product(p, q)
    assert prod.n_facets == p.n_facets + q.n_facets
    doc = report.verify(prod)
    assert doc["verdict"] == "certified"
    gram, d = doc["certificate"]["gram"], p.dim
    assert all(gram[i][j] == 0 for i in range(d) for j in range(d, prod.dim))
    assert _is_multiple([row[:d] for row in gram[:d]], own_gram(a))
    assert _is_multiple([row[d:] for row in gram[d:]], own_gram(b))


@pytest.mark.parametrize("fixture, witnesses", [
    ("octahedron", 8),       # its triangles times the segment
    ("pentagon_prism", 1),   # central symmetry fails once
    ("zonotope5", 40),       # one witness per ridge of its 8-belts
])
def test_a_product_with_a_non_parallelohedron_fails_the_venkov_checks(
        fixture, witnesses):
    doc = report.verify(product(fixture_polytope(fixture), SEGMENT))
    assert doc["verdict"] == "venkov-fails"
    assert len(doc["venkov"]["witnesses"]) == witnesses
