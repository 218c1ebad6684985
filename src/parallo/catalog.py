"""Built-in reference inputs with frozen expected invariants.

Five three-dimensional parallelohedra (one per combinatorial type) plus
the lattices whose Voronoi cells exercise the pipeline in d = 2, 3, 4.
Skew cells (hexagonal prism, rhombic and elongated dodecahedra) are
realized with rational coordinates; the metric that makes them "round"
lives in the lattice Gram matrix, never in the coordinates.

Every expected value carries a provenance tag: "definitional" (forced
by the construction), "literature" (stated in published work on these
tilings), or "computed" (derived once by the enumeration oracles in the
test suite and frozen here). A literature value may additionally be
marked disputed=True when our exact computation contradicts it; report
builders compare and emit an explicit flag instead of silently adopting
either number.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .lattice import Lattice
from .polytope import Polytope

F = Fraction


class CatalogEntry(namedtuple("CatalogEntry",
                              "name kind polytope lattice expected")):
    """A named input of kind "polytope" or "lattice", its polytope, its
    generating lattice when there is one, and its expected invariants."""

    __slots__ = ()


_HEX_PRISM_VERTICES = [
    (F(1, 3), F(1, 3), F(s, 2)) for s in (-1, 1)
] + [
    (F(-1, 3), F(-1, 3), F(s, 2)) for s in (-1, 1)
] + [
    (F(2, 3), F(-1, 3), F(s, 2)) for s in (-1, 1)
] + [
    (F(-2, 3), F(1, 3), F(s, 2)) for s in (-1, 1)
] + [
    (F(-1, 3), F(2, 3), F(s, 2)) for s in (-1, 1)
] + [
    (F(1, 3), F(-2, 3), F(s, 2)) for s in (-1, 1)
]

_ELONGATED_DODECA_VERTICES = [
    (F(sx, 2), F(sy, 2), F(sz, 4)) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
] + [
    (F(sx, 2), F(0), F(sz, 2)) for sx in (-1, 1) for sz in (-1, 1)
] + [
    (F(0), F(sy, 2), F(sz, 2)) for sy in (-1, 1) for sz in (-1, 1)
] + [
    (F(0), F(0), F(sz * 3, 4)) for sz in (-1, 1)
]

_LATTICES = {
    "lattice-Z2": ([[1, 0], [0, 1]], None),
    "lattice-Z3": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
    "lattice-A2-gram": ([[1, 0], [0, 1]], [[2, 1], [1, 2]]),
    "lattice-FCC": ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], None),
    "lattice-BCC": ([[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), F(1, 2)]], None),
    "lattice-D4": (
        [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]],
        None,
    ),
}

_POLYTOPE_EXPECTED = {
    "cube": {
        "counts": {"vertices": 8, "edges": 12, "facets": 6,
                   "source": "definitional"},
        "belts": {"4": 3, "6": 0, "source": "definitional"},
        "primitivity": {"1": True, "2": False, "3": False,
                        "source": "definitional"},
        "dual3_census": {"cube": 8, "source": "computed"},
        "delta": {"component_count": 6, "h1_ranks": [0] * 6,
                  "source": "literature"},
        "pi": {"component_count": 3, "h1_ranks": [0] * 3,
               "source": "literature"},
    },
    "hexagonal-prism": {
        "counts": {"vertices": 12, "edges": 18, "facets": 8,
                   "source": "computed"},
        "belts": {"4": 3, "6": 1, "source": "computed"},
        "primitivity": {"1": True, "2": False, "3": False,
                        "source": "computed"},
        "dual3_census": {"triangular prism": 12, "source": "computed"},
        "delta": {"component_count": 3, "h1_ranks": [0, 0, 1],
                  "source": "literature"},
        "pi": {"component_count": 2, "h1_ranks": [0, 1],
               "source": "literature"},
    },
    "rhombic-dodecahedron": {
        "counts": {"vertices": 14, "edges": 24, "facets": 12,
                   "source": "computed"},
        "belts": {"4": 0, "6": 4, "source": "literature"},
        "primitivity": {"1": True, "2": True, "3": False,
                        "source": "literature"},
        "dual3_census": {"octahedron": 6, "tetrahedron": 8,
                         "source": "computed"},
        "delta": {"component_count": 1, "h1_ranks": [0],
                  "source": "literature"},
        "pi": {"component_count": 1, "h1_ranks": [0],
               "source": "literature"},
    },
    "elongated-dodecahedron": {
        "counts": {"vertices": 18, "edges": 28, "facets": 12,
                   "source": "computed"},
        "belts": {"4": 1, "6": 4, "source": "computed"},
        "primitivity": {"1": True, "2": False, "3": False,
                        "source": "computed"},
        "dual3_census": {"quadrangular pyramid": 10, "tetrahedron": 8,
                         "source": "computed"},
        "delta": {"component_count": 1, "h1_ranks": [3],
                  "source": "literature"},
        # literature states first Betti number 1 for the quotient
        # surface; the exact chain-complex computation gives 2 (and the
        # Euler-characteristic rule agrees), so the value is disputed.
        "pi": {"component_count": 1, "h1_ranks": [1],
               "source": "literature", "disputed": True},
    },
    "truncated-octahedron": {
        "counts": {"vertices": 24, "edges": 36, "facets": 14,
                   "source": "literature"},
        "belts": {"4": 0, "6": 6, "source": "literature"},
        "primitivity": {"1": True, "2": True, "3": True,
                        "source": "literature"},
        "dual3_census": {"tetrahedron": 24, "source": "computed"},
        "delta": {"component_count": 1, "h1_ranks": [0],
                  "source": "literature"},
        "pi": {"component_count": 1, "h1_ranks": [0],
               "source": "literature"},
    },
}

_LATTICE_EXPECTED = {
    "lattice-Z2": {
        "relevant_count": {"value": 4, "source": "definitional"},
        "cell": {"vertices": 4, "facets": 4, "source": "definitional"},
    },
    "lattice-Z3": {
        "relevant_count": {"value": 6, "source": "definitional"},
        "cell": {"vertices": 8, "facets": 6, "source": "definitional"},
    },
    "lattice-A2-gram": {
        "relevant_count": {"value": 6, "source": "computed"},
        "cell": {"vertices": 6, "facets": 6, "source": "computed"},
    },
    "lattice-FCC": {
        "relevant_count": {"value": 12, "source": "computed"},
        "cell": {"vertices": 14, "facets": 12, "source": "computed"},
    },
    "lattice-BCC": {
        "relevant_count": {"value": 14, "source": "computed"},
        "cell": {"vertices": 24, "facets": 14, "source": "computed"},
    },
    "lattice-D4": {
        "relevant_count": {"value": 24, "source": "computed"},
        "cell": {"vertices": 24, "facets": 24, "source": "computed"},
    },
}

NAMES = tuple(sorted((*_POLYTOPE_EXPECTED, *_LATTICES)))


def catalog_names() -> tuple[str, ...]:
    return NAMES


@lru_cache(maxsize=None)
def catalog(name: str) -> CatalogEntry:
    """Exact rational realization of a built-in reference input."""
    if name in _LATTICES:
        basis, gram = _LATTICES[name]
        lat = Lattice.create(basis, gram)
        return CatalogEntry(name, "lattice", lat.cell, lat,
                            _LATTICE_EXPECTED[name])
    if name == "cube":
        verts = [
            (F(sx, 2), F(sy, 2), F(sz, 2))
            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
        ]
        return CatalogEntry(name, "polytope", Polytope.from_vertices(verts),
                            catalog("lattice-Z3").lattice,
                            _POLYTOPE_EXPECTED[name])
    if name == "hexagonal-prism":
        lat = Lattice.create(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[2, 1, 0], [1, 2, 0], [0, 0, 1]],
        )
        return CatalogEntry(name, "polytope",
                            Polytope.from_vertices(_HEX_PRISM_VERTICES),
                            lat, _POLYTOPE_EXPECTED[name])
    if name == "rhombic-dodecahedron":
        fcc = catalog("lattice-FCC")
        return CatalogEntry(name, "polytope", fcc.polytope, fcc.lattice,
                            _POLYTOPE_EXPECTED[name])
    if name == "elongated-dodecahedron":
        lat = Lattice.create([[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), 1]])
        return CatalogEntry(name, "polytope",
                            Polytope.from_vertices(_ELONGATED_DODECA_VERTICES),
                            lat, _POLYTOPE_EXPECTED[name])
    if name == "truncated-octahedron":
        bcc = catalog("lattice-BCC")
        return CatalogEntry(name, "polytope", bcc.polytope, bcc.lattice,
                            _POLYTOPE_EXPECTED[name])
    raise KeyError(
        f"unknown catalog name {name!r}; choose from {', '.join(NAMES)}"
    )
