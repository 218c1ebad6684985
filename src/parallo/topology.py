"""Surface topology of a parallelohedron's boundary (complete for d = 3).

The delta-surface is the boundary with every closed non-primitive ridge
removed (the ridge plus its endpoint vertices); the pi-surface is its
quotient under the antipodal map.

One complex models both. Removing a closed subcomplex from a cell
complex leaves a space that deformation-retracts onto the union of the
dual blocks of the remaining cells (Munkres 1984, Elements of Algebraic
Topology, dual blocks). On a polytope the dual block of a face is its
face of the polar, so the delta-surface is homotopy equivalent to the
complex with one vertex per facet, one edge per primitive ridge, and
one 2-cell per codim-3 face on no non-primitive ridge, bounded by the
facet walk around that face. The antipode fixes no face, and the
pi-surface's complex has one cell per orbit.

Component reports. The components are the classes of facets joined by
primitive ridges (for pi, also by antipodal pairs). Each counts its
walked codim-3 faces, primitive ridges and facets: for d = 3 these are
the open vertices, edges and facets of the surface, and their
alternating sum is the compactly-supported Euler characteristic chi_c.
The boundary is connected, so when any ridge is removed every component
touches a removed ridge and is a non-compact surface, whose first
rational Betti number is 1 - chi_c. A component is compact exactly when
no ridge is non-primitive: then it is the whole sphere (or, for pi, the
projective plane) and its rational H1 is trivial.

Half-belt span. The complex's 1-skeleton is the ridge graph, so a
half-belt is a walk there; its three steps end on the opposite facet,
so it closes in the antipodal quotient. The span of the half-belt
cycles inside the pi-surface's rational H1 comes from exact ranks of
sparse integer boundary columns. Reports write this span under both the
delta and the pi surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import GeometryError, UnsupportedDimensionError
from .parallelohedron import Parallelohedron
from .scaling import Walk, component_roots, face_walk


@dataclass(frozen=True)
class ComponentReport:
    cell_counts: tuple[int, int, int]
    chi: int
    compact: bool
    h1_rank: int


@dataclass(frozen=True)
class TopologyReport:
    surface: str
    components: tuple[ComponentReport, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    def as_dict(self) -> dict:
        return {
            "surface": self.surface,
            "component_count": self.component_count,
            "components": [
                {
                    "cells": list(c.cell_counts),
                    "chi": c.chi,
                    "compact": c.compact,
                    "h1_rank": c.h1_rank,
                }
                for c in self.components
            ],
        }


@dataclass(frozen=True)
class HalfBeltSpan:
    h1_rank: int
    span_rank: int
    spanned: bool
    n_cycles: int


def _require_d3(para: Parallelohedron):
    if para.dim != 3:
        raise UnsupportedDimensionError(
            "surface complexes are implemented for d = 3 only; "
            "use ridge_connectivity for other dimensions"
        )


def _antipodal_maps(para: Parallelohedron):
    """Ridge and facet involutions induced by x -> -x: a ridge goes to
    the ridge between the opposites of its two facets."""
    fmap = dict(enumerate(para.opposite_facet))
    ridge_of = {frozenset(pair): r for r, pair in enumerate(para.ridge_facets)}
    emap = {r: ridge_of[frozenset(fmap[f] for f in pair)]
            for r, pair in enumerate(para.ridge_facets)}
    return emap, fmap


def ridge_connectivity(para: Parallelohedron) -> int:
    """Number of ridge-graph components (valid in any dimension): facets
    joined by primitive ridges, with no gains computed."""
    pairs = (para.ridge_facets[r] for r in range(len(para.ridges))
             if para.ridge_primitive(r))
    return len(set(component_roots(para.polytope.n_facets, pairs)))


def _sparse(terms) -> dict[int, int]:
    """Sum (index, coefficient) terms into a sparse vector with no zeros."""
    out: dict[int, int] = {}
    for i, c in terms:
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def _dense(col: dict[int, int], n: int) -> tuple[int, ...]:
    return tuple(col.get(i, 0) for i in range(n))


def _require_cycles(boundary_cols, chains, message: str):
    """Raise GeometryError(message) unless every sparse chain's boundary,
    under the boundary map given by its sparse columns, is zero."""
    for chain in chains:
        if _sparse((row, c * b) for cell, c in chain.items()
                   for row, b in boundary_cols[cell].items()):
            raise GeometryError(message)


class _DualComplex:
    """The delta-surface's dual-block complex and its antipodal quotient.

    The delta cells are the facets, the primitive ridges and the walks
    of the codim-3 faces on no non-primitive ridge; each face is walked
    once. The boundary columns are the quotient's: 0-cells are facet
    orbits, 1-cells primitive-ridge orbits (an orbit's least ridge,
    oriented as its `ridge_facets` pair) and 2-cells the walks, a face
    and its antipode giving the same column up to sign.
    """

    def __init__(self, para: Parallelohedron):
        emap, fmap = _antipodal_maps(para)
        if any(x == y for cells in (emap, fmap) for x, y in cells.items()):
            raise GeometryError("antipodal involution has a fixed cell")
        self.para = para
        self.emap, self.fmap = emap, fmap
        self.primitive = [r for r in range(len(para.ridges))
                          if para.ridge_primitive(r)]
        self.edges = sorted({min(r, emap[r]) for r in self.primitive})
        self.edge_ids = {r: i for i, r in enumerate(self.edges)}
        # rows of the 1-cell columns: each facet orbit's least facet
        self.b1_cols = [
            _sparse(((min(b, fmap[b]), 1), (min(a, fmap[a]), -1)))
            for a, b in (para.ridge_facets[r] for r in self.edges)
        ]
        n = para.polytope.n_facets
        pairs = [para.ridge_facets[r] for r in self.primitive]
        self.roots = {"delta": component_roots(n, pairs),
                      "pi": component_roots(n, pairs + list(fmap.items()))}
        self.rank_b1 = n // 2 - len(set(self.roots["pi"]))
        faces = para.polytope.face_lattice.faces(para.dim - 3)
        walks = (face_walk(para, face) for face in faces)
        self.walks = [(i, w) for i, w in enumerate(walks) if w is not None]
        self.b2_cols = [self.chain(w) for _, w in self.walks]
        self.check_boundaries()

    def chain(self, walk: Walk) -> dict[int, int]:
        """A facet walk over primitive ridges as a sparse 1-chain."""
        terms = []
        for f, g, r in zip(walk.facets, walk.facets[1:], walk.ridges):
            rep = min(r, self.emap[r])
            if rep != r:
                f, g = self.fmap[f], self.fmap[g]
            sign = 1 if (f, g) == self.para.ridge_facets[rep] else -1
            terms.append((self.edge_ids[rep], sign))
        return _sparse(terms)

    def check_boundaries(self):
        """Raise unless the boundary of every 2-cell's boundary is zero."""
        _require_cycles(self.b1_cols, self.b2_cols,
                        "boundary of a boundary is nonzero")

    def report(self, surface: str) -> TopologyReport:
        """Per component of the "delta" or "pi" surface: the counts of
        walked faces, primitive ridges and facets, chi_c and rational H1.

        Each component is keyed by its first cell in the order walked
        faces ("v"), primitive ridges ("e"), facets ("f"), each by index,
        and components sort by that key. The antipode acts freely, so a
        pi component's counts are half those of its preimage.
        """
        roots = self.roots[surface]
        orbit = 2 if surface == "pi" else 1
        ridge_facets = self.para.ridge_facets
        cells = ([(0, ("v", i), w.facets[0]) for i, w in self.walks]
                 + [(1, ("e", r), ridge_facets[r][0]) for r in self.primitive]
                 + [(2, ("f", f), f) for f in range(len(roots))])
        keys: dict[int, tuple] = {}
        counts: dict[int, list[int]] = {}
        for dim, key, facet in cells:
            keys.setdefault(roots[facet], key)
            counts.setdefault(roots[facet], [0, 0, 0])[dim] += 1
        compact = len(self.primitive) == len(ridge_facets)
        comps = []
        for root in sorted(keys, key=keys.get):
            v, e, f = (c // orbit for c in counts[root])
            chi = v - e + f
            comps.append(ComponentReport(
                (v, e, f), chi, compact, 0 if compact else 1 - chi))
        return TopologyReport(surface, tuple(comps))

    def half_belt_cycles(self) -> list[dict[int, int]]:
        """The six shifted three-step walks of every 6-belt, each of them
        closed in the quotient because it ends on its start's opposite."""
        cycles = []
        for belt in self.para.belts:
            if belt.length != 6:
                continue
            for start in range(6):
                steps = [(start + i) % 6 for i in range(4)]
                cycles.append(self.chain(Walk(
                    tuple(belt.facets[i] for i in steps),
                    tuple(belt.ridges[i] for i in steps[:3]))))
        _require_cycles(self.b1_cols, cycles, "half-belt chain is not a cycle")
        return cycles

    def half_belt_span(self) -> HalfBeltSpan:
        """Do half-belt cycles span the rational H1 of the pi-surface?"""
        cycles = self.half_belt_cycles()
        n1 = len(self.edges)
        b2 = tuple(_dense(c, n1) for c in self.b2_cols)
        rank_b2 = linalg.rank(b2)
        h1 = n1 - self.rank_b1 - rank_b2
        span = 0
        if cycles:
            span = linalg.rank(b2 + tuple(_dense(z, n1) for z in cycles)) - rank_b2
        return HalfBeltSpan(h1, span, span == h1, len(cycles))


def surface_topology(para: Parallelohedron
                     ) -> tuple[TopologyReport, TopologyReport, HalfBeltSpan]:
    """The delta and pi component reports and the pi-surface's half-belt
    span, all read off one dual-block complex (d = 3)."""
    _require_d3(para)
    complex_ = _DualComplex(para)
    return (complex_.report("delta"), complex_.report("pi"),
            complex_.half_belt_span())
