"""Built-in reference inputs with frozen expected invariants.

One table, `_ENTRIES`, gives every input as a lattice: a basis and a
Gram matrix (the identity when None). The five entries of kind
"polytope" are the three-dimensional parallelohedra, one per
combinatorial type, each the Voronoi cell of its lattice
(`Lattice.cell`); the entries of kind "lattice" exercise the pipeline
in d = 2, 3, 4. Skew cells (hexagonal prism, rhombic and elongated
dodecahedra) are realized with rational coordinates; the metric that
makes them "round" lives in the lattice Gram matrix, never in the
coordinates.

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

F = Fraction


class CatalogEntry(namedtuple("CatalogEntry",
                              "name kind polytope lattice expected")):
    """A named input of kind "polytope" (a solid, verified as a polytope)
    or "lattice" (verified as a lattice), its lattice, that lattice's
    Voronoi cell as its polytope, and its expected invariants."""

    __slots__ = ()


# name -> (kind, basis, gram or None). The solids are the Voronoi cells
# of Z^3, the hexagonal lattice times Z, FCC, a body-centred tetragonal
# lattice and BCC.
_FCC = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
_BCC = [[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), F(1, 2)]]
_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_ENTRIES = {
    "cube": ("polytope", _I3, None),
    "hexagonal-prism": ("polytope", _I3, [[2, 1, 0], [1, 2, 0], [0, 0, 1]]),
    "rhombic-dodecahedron": ("polytope", _FCC, None),
    "elongated-dodecahedron": (
        "polytope", [[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), 1]], None),
    "truncated-octahedron": ("polytope", _BCC, None),
    "lattice-Z2": ("lattice", [[1, 0], [0, 1]], None),
    "lattice-Z3": ("lattice", _I3, None),
    "lattice-A2-gram": ("lattice", [[1, 0], [0, 1]], [[2, 1], [1, 2]]),
    "lattice-FCC": ("lattice", _FCC, None),
    "lattice-BCC": ("lattice", _BCC, None),
    "lattice-D4": ("lattice", [[1, -1, 0, 0], [0, 1, -1, 0],
                               [0, 0, 1, -1], [0, 0, 1, 1]], None),
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

NAMES = tuple(sorted(_ENTRIES))


def catalog_names() -> tuple[str, ...]:
    return NAMES


@lru_cache(maxsize=None)
def catalog(name: str) -> CatalogEntry:
    """Exact rational realization of a built-in reference input: its
    lattice and that lattice's Voronoi cell; KeyError for a name not in
    `NAMES`."""
    kind, basis, gram = _ENTRIES[name]
    lat = Lattice.create(basis, gram)
    expected = (_POLYTOPE_EXPECTED if kind == "polytope"
                else _LATTICE_EXPECTED)[name]
    return CatalogEntry(name, kind, lat.cell, lat, expected)
