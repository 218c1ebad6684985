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
primitive ridges (for pi, also by antipodal pairs), which the
parallelohedron's `delta_roots` and `pi_roots` give. Each counts its
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
so it closes in the antipodal quotient. Its span in the pi-surface's
rational H1 comes from one elimination of the 2-cell columns followed
by the cycles: the pivots among the 2-cells count the rank of the
boundary map, the others the span. Reports write this span under the
pi surface.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .errors import GeometryError, UnsupportedDimensionError
from .parallelohedron import Parallelohedron


def _require_d3(para: Parallelohedron):
    if para.dim != 3:
        raise UnsupportedDimensionError(
            "surface complexes are implemented for d = 3 only; other "
            "dimensions read their components off Parallelohedron.delta_roots"
        )


def face_walk(para: Parallelohedron, face) -> tuple[int, ...] | None:
    """The closed facet walk around a codim-3 face, or None when the face
    lies on a non-primitive ridge.

    The face's ridges are the pairs of its facets that hold a ridge;
    each facet must hold exactly two of these ridges. The walk starts at
    the least facet and crosses its least ridge first.
    """
    ridge_ids = sorted(para.ridge_of[pair]
                       for pair in combinations(face.facets, 2)
                       if pair in para.ridge_of)
    if not para.primitive_ridges.issuperset(ridge_ids):
        return None
    neighbors: dict[int, list[int]] = {}
    for r in ridge_ids:
        a, b = para.ridge_facets[r]
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    if any(len(ns) != 2 for ns in neighbors.values()):
        raise GeometryError("face link is not a cycle")
    start = min(neighbors)
    walk = [start, neighbors[start][0]]
    while walk[-1] != start:
        a, b = neighbors[walk[-1]]
        walk.append(b if a == walk[-2] else a)
    return tuple(walk)


def _sparse(terms) -> dict[int, int]:
    """Sum (index, coefficient) terms into a sparse vector with no zeros."""
    out: dict[int, int] = {}
    for i, c in terms:
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


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
        emap, fmap = para.opposite_ridge, para.opposite_facet
        if any(x == y for cells in (emap, fmap) for x, y in enumerate(cells)):
            raise GeometryError("antipodal involution has a fixed cell")
        self.para = para
        self.emap, self.fmap = emap, fmap
        self.primitive = sorted(para.primitive_ridges)
        self.edges = sorted({min(r, emap[r]) for r in self.primitive})
        self.edge_ids = {r: i for i, r in enumerate(self.edges)}
        # rows of the 1-cell columns: each facet orbit's least facet
        self.b1_cols = [
            _sparse(((min(b, fmap[b]), 1), (min(a, fmap[a]), -1)))
            for a, b in (para.ridge_facets[r] for r in self.edges)
        ]
        self.roots = {"delta": para.delta_roots, "pi": para.pi_roots}
        self.rank_b1 = para.polytope.n_facets // 2 - len(set(para.pi_roots))
        faces = para.polytope.face_lattice.faces(para.dim - 3)
        walks = (face_walk(para, face) for face in faces)
        self.walks = [(i, w) for i, w in enumerate(walks) if w is not None]
        self.b2_cols = [self.chain(w) for _, w in self.walks]
        self.check_boundaries()

    def chain(self, walk: tuple[int, ...]) -> dict[int, int]:
        """A facet walk over primitive ridges as a sparse 1-chain."""
        terms = []
        for f, g in zip(walk, walk[1:]):
            r = self.para.ridge_of[min(f, g), max(f, g)]
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

    def report(self, surface: str) -> dict:
        """The report block of the "delta" or "pi" surface: per component
        the counts of walked faces, primitive ridges and facets ("cells"),
        chi_c, whether it is compact, and its rational H1 rank.

        Each component is keyed by its first cell in the order walked
        faces ("v"), primitive ridges ("e"), facets ("f"), each by index,
        and components sort by that key. The antipode acts freely, so a
        pi component's counts are half those of its preimage.
        """
        roots = self.roots[surface]
        orbit = 2 if surface == "pi" else 1
        ridge_facets = self.para.ridge_facets
        cells = ([(0, ("v", i), w[0]) for i, w in self.walks]
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
            comps.append({"cells": (v, e, f), "chi": chi, "compact": compact,
                          "h1_rank": 0 if compact else 1 - chi})
        return {"surface": surface, "component_count": len(comps),
                "components": comps}

    def half_belt_cycles(self) -> list[dict[int, int]]:
        """The six shifted three-step walks of every 6-belt, each of them
        closed in the quotient because it ends on its start's opposite."""
        cycles = [self.chain((belt.facets * 2)[s:s + 4])
                  for belt in self.para.belts if belt.length == 6
                  for s in range(6)]
        _require_cycles(self.b1_cols, cycles, "half-belt chain is not a cycle")
        return cycles

    def half_belt_span(self) -> dict:
        """Do half-belt cycles span the rational H1 of the pi-surface? The
        report's `half_belt_span` block."""
        cycles = self.half_belt_cycles()
        cols = self.b2_cols + cycles
        pivots, _ = linalg._bareiss([[c.get(i, 0) for c in cols]
                                     for i in range(len(self.edges))])
        rank_b2 = sum(c < len(self.b2_cols) for c in pivots)
        h1 = len(self.edges) - self.rank_b1 - rank_b2
        span = len(pivots) - rank_b2
        return {"h1_rank": h1, "span_rank": span, "spanned": span == h1,
                "cycles": len(cycles)}


def surface_topology(para: Parallelohedron) -> tuple[dict, dict, dict]:
    """The delta and pi surface blocks and the pi-surface's half-belt
    span block, all read off one dual-block complex (d = 3)."""
    _require_d3(para)
    complex_ = _DualComplex(para)
    return (complex_.report("delta"), complex_.report("pi"),
            complex_.half_belt_span())
