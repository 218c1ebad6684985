"""Surface topology of a parallelohedron's boundary (complete for d = 3).

The delta-surface is the boundary with every closed non-primitive ridge
removed (the ridge plus its endpoint vertices); the pi-surface is its
quotient under the antipodal map. Both are (d-1)-manifolds; for d = 3
they are open surfaces whose open-cell decompositions are read straight
off the face lattice.

Reports use the compactly-supported Euler characteristic chi_c
(alternating sum of open cell counts). On a connected non-compact
surface the first rational Betti number is 1 - chi_c; compact
components (nothing removed in their closure) have trivial rational H1.

For the half-belt span test the surface is replaced by its dual blocks.
Removing a closed subcomplex from a cell complex leaves a space that
deformation-retracts onto the union of the dual blocks of the remaining
cells (Munkres 1984, Elements of Algebraic Topology, dual blocks). On a
polytope the dual block of a face is its face of the polar, so the
delta-surface is homotopy equivalent to the complex with one vertex per
facet, one edge per primitive ridge, and one 2-cell per codim-3 face on
no non-primitive ridge, bounded by the facet walk around that face.
Its 1-skeleton is the ridge graph, so a half-belt is a walk there; its
three steps end on the opposite facet, so it closes in the antipodal
quotient. The antipode fixes no face, and the pi-surface's complex has
one cell per orbit. The span of the half-belt cycles inside its
rational H1 comes from exact ranks of sparse integer boundary columns.
Only this quotient (pi) complex is built; reports write its span under
both the delta and the pi surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import GeometryError, UnsupportedDimensionError
from .parallelohedron import Parallelohedron
from .scaling import Walk, build_ridge_graph, component_roots, face_walk


@dataclass(frozen=True)
class SurfaceCell:
    dim: int
    key: tuple


@dataclass(frozen=True)
class SurfaceComplex:
    kind: str  # "delta" | "pi"
    cells: tuple[SurfaceCell, ...]
    incidence: tuple[tuple[int, int], ...]  # (lower cell idx, higher cell idx)
    touches_removed: tuple[bool, ...]


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


def _require_d3(para: Parallelohedron):
    if para.dim != 3:
        raise UnsupportedDimensionError(
            "surface complexes are implemented for d = 3 only; "
            "use ridge_connectivity for other dimensions"
        )


def _antipodal_maps(para: Parallelohedron):
    """Vertex, edge and facet involutions induced by x -> -x."""
    p = para.polytope
    vmap = {}
    index = {v: i for i, v in enumerate(p.vertices)}
    for i, v in enumerate(p.vertices):
        vmap[i] = index[linalg.vneg(v)]
    ridge_ids = {r.vertex_ids: i for i, r in enumerate(para.ridges)}
    emap = {}
    for i, r in enumerate(para.ridges):
        emap[i] = ridge_ids[tuple(sorted(vmap[x] for x in r.vertex_ids))]
    fmap = dict(enumerate(para.opposite_facet))
    return vmap, emap, fmap


def delta_complex(para: Parallelohedron) -> SurfaceComplex:
    """Boundary complex minus closed non-primitive edges (d = 3)."""
    _require_d3(para)
    p = para.polytope
    removed_edges = {
        i for i in range(len(para.ridges)) if not para.ridge_primitive(i)
    }
    removed_vertices = {
        v
        for i in removed_edges
        for v in para.ridges[i].vertex_ids
    }
    cells: list[SurfaceCell] = []
    index: dict[tuple, int] = {}
    for v in range(p.n_vertices):
        if v not in removed_vertices:
            index[("v", v)] = len(cells)
            cells.append(SurfaceCell(0, ("v", v)))
    for e in range(len(para.ridges)):
        if e not in removed_edges:
            index[("e", e)] = len(cells)
            cells.append(SurfaceCell(1, ("e", e)))
    for f in range(p.n_facets):
        index[("f", f)] = len(cells)
        cells.append(SurfaceCell(2, ("f", f)))
    incidence = []
    touches = [False] * len(cells)
    for e, ridge in enumerate(para.ridges):
        if e in removed_edges:
            continue
        ei = index[("e", e)]
        for v in ridge.vertex_ids:
            if v in removed_vertices:
                touches[ei] = True
            else:
                incidence.append((index[("v", v)], ei))
    for f in range(p.n_facets):
        fi = index[("f", f)]
        fset = set(p.facet_vertex_ids[f])
        for v in fset:
            if v in removed_vertices:
                touches[fi] = True
            else:
                incidence.append((index[("v", v)], fi))
        for e, ridge in enumerate(para.ridges):
            if set(ridge.vertex_ids).issubset(fset):
                if e in removed_edges:
                    touches[fi] = True
                else:
                    incidence.append((index[("e", e)], fi))
    return SurfaceComplex("delta", tuple(cells), tuple(incidence), tuple(touches))


def pi_complex(para: Parallelohedron,
               delta: SurfaceComplex | None = None) -> SurfaceComplex:
    """Antipodal quotient of the delta complex (d = 3), built from
    `delta` when the caller has it."""
    if delta is None:
        delta = delta_complex(para)
    vmap, emap, fmap = _antipodal_maps(para)
    maps = {"v": vmap, "e": emap, "f": fmap}

    def orbit(key):
        tag, x = key
        y = maps[tag][x]
        if y == x:
            raise GeometryError("antipodal involution has a fixed cell")
        return (tag, min(x, y), max(x, y))

    cells: list[SurfaceCell] = []
    index: dict[tuple, int] = {}
    reps: dict[tuple, tuple] = {}
    for cell in delta.cells:
        o = orbit(cell.key)
        if o not in index:
            index[o] = len(cells)
            cells.append(SurfaceCell(cell.dim, o))
            reps[o] = cell.key
    incidence = set()
    for lo, hi in delta.incidence:
        incidence.add((index[orbit(delta.cells[lo].key)],
                       index[orbit(delta.cells[hi].key)]))
    touches = [False] * len(cells)
    for i, c in enumerate(delta.cells):
        if delta.touches_removed[i]:
            touches[index[orbit(c.key)]] = True
    return SurfaceComplex("pi", tuple(cells), tuple(sorted(incidence)),
                          tuple(touches))


def topology_report(complex_: SurfaceComplex) -> TopologyReport:
    """Components, chi_c, compactness and rational H1 rank per component."""
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(component_roots(len(complex_.cells),
                                             complex_.incidence)):
        groups.setdefault(root, []).append(i)
    comps = []
    for root in sorted(groups, key=lambda r: complex_.cells[r].key):
        members = groups[root]
        counts = [0, 0, 0]
        for i in members:
            counts[complex_.cells[i].dim] += 1
        chi = counts[0] - counts[1] + counts[2]
        compact = not any(complex_.touches_removed[i] for i in members)
        h1 = 0 if compact else 1 - chi
        comps.append(ComponentReport(tuple(counts), chi, compact, h1))
    return TopologyReport(complex_.kind, tuple(comps))


def ridge_connectivity(para: Parallelohedron) -> int:
    """Number of ridge-graph components (valid in any dimension)."""
    return build_ridge_graph(para).n_components


# ---------------------------------------------------------------------
# polar-dual complex and the half-belt span test
# ---------------------------------------------------------------------


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
    """Boundary columns of the pi-surface's dual-block complex.

    0-cells are facet orbits, 1-cells primitive-ridge orbits (an orbit's
    least ridge, oriented as its `ridge_facets` pair) and 2-cells the
    codim-3 faces on no non-primitive ridge, bounded by their face walks.
    A face and its antipode give the same column up to sign.
    """

    def __init__(self, para: Parallelohedron):
        _, emap, fmap = _antipodal_maps(para)
        if any(x == y for cells in (emap, fmap) for x, y in cells.items()):
            raise GeometryError("antipodal involution has a fixed cell")
        self.para = para
        self.emap, self.fmap = emap, fmap
        self.edges = sorted({min(r, emap[r]) for r in range(len(para.ridges))
                             if para.ridge_primitive(r)})
        self.edge_ids = {r: i for i, r in enumerate(self.edges)}
        # rows of the 1-cell columns: each facet orbit's least facet
        self.b1_cols = [
            _sparse(((min(b, fmap[b]), 1), (min(a, fmap[a]), -1)))
            for a, b in (para.ridge_facets[r] for r in self.edges)
        ]
        roots = component_roots(
            para.polytope.n_facets,
            [para.ridge_facets[r] for r in self.edges] + list(fmap.items()))
        self.rank_b1 = len(fmap) // 2 - len(set(roots))
        walks = (face_walk(para, face)
                 for face in para.polytope.face_lattice.faces(para.dim - 3))
        self.b2_cols = [self.chain(w) for w in walks if w is not None]
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


@dataclass(frozen=True)
class HalfBeltSpan:
    h1_rank: int
    span_rank: int
    spanned: bool
    n_cycles: int


def half_belt_span_d3(para: Parallelohedron) -> HalfBeltSpan:
    """Do half-belt cycles span the rational H1 of the pi-surface?"""
    _require_d3(para)
    complex_ = _DualComplex(para)
    cycles = complex_.half_belt_cycles()
    n1 = len(complex_.edges)
    b2 = tuple(_dense(c, n1) for c in complex_.b2_cols)
    rank_b2 = linalg.rank(b2)
    h1 = n1 - complex_.rank_b1 - rank_b2
    span = 0
    if cycles:
        span = linalg.rank(b2 + tuple(_dense(z, n1) for z in cycles)) - rank_b2
    return HalfBeltSpan(h1, span, span == h1, len(cycles))
