"""Shared fixtures: seeded RNG and memoized heavy pipeline results.

PARALLO_SEED fixes every randomized property test; building the bigger
catalog entries (especially the d = 4 cell) is expensive, so built
parallelohedra, ridge gain tables and verification reports are cached per
session and shared across test modules.
"""

import os
import random

import pytest

from generators import a_edges, cartan
from oracles import inverse
from parallo import linalg
from parallo import report as report_mod
from parallo.catalog import catalog
from parallo.lattice import Lattice
from parallo.parallelohedron import Parallelohedron
from parallo.scaling import build_ridge_graph
from parallo.serialize import load_document

SEED = int(os.environ.get("PARALLO_SEED", "20260810"))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

_built = {}
_gains = {}
_reports = {}

POLYTOPE_CATALOG = (
    "cube",
    "hexagonal-prism",
    "rhombic-dodecahedron",
    "elongated-dodecahedron",
    "truncated-octahedron",
)

LATTICE_CATALOG = (
    "lattice-Z2",
    "lattice-Z3",
    "lattice-A2-gram",
    "lattice-FCC",
    "lattice-BCC",
    "lattice-D4",
)


def built(name: str) -> Parallelohedron:
    if name not in _built:
        _built[name] = Parallelohedron.build(catalog(name).polytope)
    return _built[name]


def ridge_graph(name: str) -> dict:
    """`build_ridge_graph` of the built entry: primitive ridge -> gain."""
    if name not in _gains:
        _gains[name] = build_ridge_graph(built(name))
    return _gains[name]


def verified(name: str):
    if name not in _reports:
        entry = catalog(name)
        source = entry.lattice if entry.kind == "lattice" else entry.polytope
        _reports[name] = report_mod.verify(source, name=name,
                                           expected=entry.expected)
    return _reports[name]


def fixture_polytope(name: str):
    """The polytope of tests/fixtures/NAME.json."""
    with open(os.path.join(FIXTURES, name + ".json"), encoding="utf-8") as fh:
        return load_document(fh.read())


def an_star(n):
    """The lattice A_n*: the standard basis under the inverse of the
    Cartan matrix of A_n (the Gram matrix of its fundamental weights)."""
    return Lattice.create(linalg.identity(n), inverse(cartan(n, a_edges(n))))


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(params=POLYTOPE_CATALOG)
def catalog_solid(request):
    return request.param
