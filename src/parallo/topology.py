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

For the half-belt span test the open surface is replaced by a compact
homotopy-equivalent model: cut the boundary sphere along the removed
edge graph (removed edges are doubled, vertices split into corners, so
the cut locus becomes boundary circles), then subdivide every facet
into sectors around a center vertex with edge midpoints. In the
subdivided 1-skeleton a facet-to-facet step across a primitive ridge is
the two-spoke path center -> midpoint -> center, so half-belt cycles
become genuine cellular 1-cycles whose span inside H1 can be computed
from exact boundary matrices. Only the quotient (pi) model is built for
the test; reports write its span under both the delta and the pi
surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import GeometryError, UnsupportedDimensionError
from .linalg import Vec
from .parallelohedron import Parallelohedron
from .scaling import build_ridge_graph, component_roots


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


def pi_complex(para: Parallelohedron) -> SurfaceComplex:
    """Antipodal quotient of the delta complex (d = 3)."""
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
# compact cut model and the half-belt span test
# ---------------------------------------------------------------------


def _facet_cycles(para: Parallelohedron):
    """Per facet: vertex ids and edge ids in boundary-cycle order."""
    edge_ids = {r.vertex_ids: i for i, r in enumerate(para.ridges)}
    return [
        (vs, tuple(edge_ids[tuple(sorted(pair))]
                   for pair in zip(vs, vs[1:] + vs[:1])))
        for vs in para.polytope.facet_cycles
    ]


def _vertex_fans(para: Parallelohedron, facet_cycles):
    """Per vertex: cyclic fan (edges[i] between facets[i-1], facets[i])."""
    p = para.polytope
    edges_at: dict[int, list[int]] = {v: [] for v in range(p.n_vertices)}
    for i, r in enumerate(para.ridges):
        for v in r.vertex_ids:
            edges_at[v].append(i)
    # (facet, vertex) -> the two edges of that facet meeting the vertex
    facet_vertex_edges = {}
    for f, (vs, es) in enumerate(facet_cycles):
        k = len(vs)
        for i, v in enumerate(vs):
            facet_vertex_edges[(f, v)] = (es[(i - 1) % k], es[i])
    fans = []
    for v in range(p.n_vertices):
        e0 = min(edges_at[v])
        f = min(para.ridge_facets[e0])
        edge_seq = [e0]
        facet_seq = []
        e, cur_f = e0, f
        while True:
            facet_seq.append(cur_f)
            a, b = facet_vertex_edges[(cur_f, v)]
            e = b if a == e else a
            fa, fb = para.ridge_facets[e]
            cur_f = fb if fa == cur_f else fa
            if e == e0:
                break
            edge_seq.append(e)
        if len(edge_seq) != len(edges_at[v]):
            raise GeometryError("vertex link is not a single cycle")
        fans.append((tuple(edge_seq), tuple(facet_seq)))
    return fans


class _CutComplex:
    """Compact surface-with-boundary model of the delta-surface (d = 3)."""

    def __init__(self, para: Parallelohedron):
        _require_d3(para)
        self.para = para
        p = para.polytope
        self.removed = {
            i for i in range(len(para.ridges)) if not para.ridge_primitive(i)
        }
        self.facet_cycles = _facet_cycles(para)
        fans = _vertex_fans(para, self.facet_cycles)

        # corners: arcs of the vertex fan between removed edges
        self.corner_at = {}   # (vertex, facet) -> corner key
        corner_keys = []
        for v, (edge_seq, facet_seq) in enumerate(fans):
            m = len(edge_seq)
            cut_positions = [i for i, e in enumerate(edge_seq) if e in self.removed]
            if not cut_positions:
                key = ("c", v, frozenset(facet_seq))
                corner_keys.append(key)
                for f in facet_seq:
                    self.corner_at[(v, f)] = key
                continue
            for idx, start in enumerate(cut_positions):
                end = cut_positions[(idx + 1) % len(cut_positions)]
                span = (end - start) % m or m
                arc = [facet_seq[(start + j) % m] for j in range(span)]
                key = ("c", v, frozenset(arc))
                corner_keys.append(key)
                for f in arc:
                    self.corner_at[(v, f)] = key
        self.corners = sorted(set(corner_keys))

        # cut edges: kept edges stay single, removed edges split per facet
        self.cut_edges = {}  # key -> (tail corner, head corner)
        for e, ridge in enumerate(para.ridges):
            va, vb = ridge.vertex_ids
            if e in self.removed:
                for f in para.ridge_facets[e]:
                    ends = sorted([self.corner_at[(va, f)], self.corner_at[(vb, f)]])
                    self.cut_edges[("er", e, f)] = tuple(ends)
            else:
                fa, fb = para.ridge_facets[e]
                ca = self.corner_at[(va, fa)]
                cb = self.corner_at[(vb, fa)]
                if (self.corner_at[(va, fb)] != ca
                        or self.corner_at[(vb, fb)] != cb):
                    raise GeometryError("kept edge crosses a cut")
                self.cut_edges[("e", e)] = tuple(sorted([ca, cb]))

    def cut_edge_key(self, f: int, pos: int):
        vs, es = self.facet_cycles[f]
        e = es[pos]
        return ("er", e, f) if e in self.removed else ("e", e)


class _ChainComplex:
    """Exact boundary matrices of the subdivided cut model (or its quotient)."""

    def __init__(self, cut: _CutComplex, quotient: bool):
        para = cut.para
        self.cut = cut
        vmap, emap, fmap = _antipodal_maps(para)

        def corner_image(key):
            _, v, facets = key
            return ("c", vmap[v], frozenset(fmap[f] for f in facets))

        def vertex0_image(key):
            if key[0] == "c":
                return corner_image(key)
            if key[0] == "m":
                return ("m", cut_edge_image(key[1]))
            return ("ctr", fmap[key[1]])

        def cut_edge_image(ekey):
            if ekey[0] == "e":
                return ("e", emap[ekey[1]])
            return ("er", emap[ekey[1]], fmap[ekey[2]])

        pos_of_edge = {}
        for f, (vs, es) in enumerate(cut.facet_cycles):
            for i, e in enumerate(es):
                pos_of_edge[(f, e)] = i
        self.pos_of_edge = pos_of_edge

        # --- subdivided cells -----------------------------------------
        verts0 = list(cut.corners)
        verts0 += [("m", k) for k in sorted(cut.cut_edges)]
        verts0 += [("ctr", f) for f in range(para.polytope.n_facets)]

        ones: dict[tuple, tuple] = {}  # key -> (tail vertex key, head vertex key)
        for ekey, (tail, head) in sorted(cut.cut_edges.items()):
            ones[("h", ekey, 0)] = (tail, ("m", ekey))
            ones[("h", ekey, 1)] = (("m", ekey), head)
        for f, (vs, es) in enumerate(cut.facet_cycles):
            for i in range(len(es)):
                ones[("s", f, i)] = (("ctr", f), ("m", cut.cut_edge_key(f, i)))

        twos: dict[tuple, list[tuple[int, tuple]]] = {}
        for f, (vs, es) in enumerate(cut.facet_cycles):
            k = len(vs)
            for i in range(k):
                corner = cut.corner_at[(vs[i], f)]
                prev_e = cut.cut_edge_key(f, (i - 1) % k)
                next_e = cut.cut_edge_key(f, i)
                chain = [(1, ("s", f, (i - 1) % k))]
                tail, head = cut.cut_edges[prev_e]
                chain.append((1, ("h", prev_e, 1)) if head == corner
                             else (-1, ("h", prev_e, 0)))
                tail, head = cut.cut_edges[next_e]
                chain.append((1, ("h", next_e, 0)) if tail == corner
                             else (-1, ("h", next_e, 1)))
                chain.append((-1, ("s", f, i)))
                twos[("q", f, i)] = chain

        # --- involution on subdivided 1-cells --------------------------
        def one_image(key):
            """Directed image: (image key, orientation sign)."""
            tag = key[0]
            if tag == "h":
                _, ekey, side = key
                ikey = cut_edge_image(ekey)
                tail, head = cut.cut_edges[ekey]
                itail, ihead = cut.cut_edges[ikey]
                if corner_image(tail) == itail:
                    return ("h", ikey, side), 1
                if corner_image(tail) != ihead:
                    raise GeometryError("involution broke an edge")
                return ("h", ikey, 1 - side), -1
            _, f, i = key
            ikey = cut_edge_image(cut.cut_edge_key(f, i))
            fi = fmap[f]
            return ("s", fi, pos_of_edge[(fi, ikey[1])]), 1

        # --- pick cell sets (identity or quotient) ----------------------
        if not quotient:
            self.v_ids = {k: i for i, k in enumerate(verts0)}
            self.one_keys = sorted(ones)
            self.two_keys = sorted(twos)
            proj0 = {k: k for k in verts0}
            proj1 = {k: (1, k) for k in ones}
        else:
            v_orbit = {}
            for k in verts0:
                ik = vertex0_image(k)
                if ik == k:
                    raise GeometryError("antipodal involution has a fixed cell")
                v_orbit[k] = min(k, ik)
            self.v_ids = {k: i for i, k in enumerate(sorted(set(v_orbit.values())))}
            proj0 = v_orbit
            proj1 = {}
            for k in ones:
                ik, sign = one_image(k)
                rep = min(k, ik)
                proj1[k] = (1, k) if k == rep else (sign, rep)
            self.one_keys = sorted({proj1[k][1] for k in ones})
            two_orbit = {}
            for k in twos:
                _, f, i = k
                fi = fmap[f]
                vs, _ = cut.facet_cycles[f]
                ivs, _ = cut.facet_cycles[fi]
                iv = vmap[vs[i]]
                j = next(
                    jj for jj, w in enumerate(ivs)
                    if w == iv and cut.corner_at[(w, fi)]
                    == corner_image(cut.corner_at[(vs[i], f)])
                )
                two_orbit[k] = min(k, ("q", fi, j))
            self.two_keys = sorted(set(two_orbit.values()))

        one_ids = {k: i for i, k in enumerate(self.one_keys)}
        self.one_ids = one_ids

        # --- boundary matrices, as sparse integer columns ---------------
        self.b1_cols = []
        for k in self.one_keys:
            tail, head = ones[k]
            self.b1_cols.append(_sparse(((self.v_ids[proj0[head]], 1),
                                         (self.v_ids[proj0[tail]], -1))))
        self.b2_cols = []
        for k in self.two_keys:
            terms = []
            for sign, ekey in twos[k]:
                psign, rep = proj1[ekey]
                terms.append((one_ids[rep], sign * psign))
            self.b2_cols.append(_sparse(terms))
        self.proj1 = proj1
        self.check_boundaries()

    def check_boundaries(self):
        """Raise unless the boundary of every 2-cell's boundary is zero."""
        _require_cycles(self.b1_cols, self.b2_cols,
                        "boundary of a boundary is nonzero")

    @cached_property
    def b2_chains(self) -> tuple[Vec, ...]:
        """The boundary of each 2-cell as a dense 1-chain."""
        return tuple(_dense(c, len(self.one_keys)) for c in self.b2_cols)

    @cached_property
    def rank_b2(self) -> int:
        return linalg.rank(self.b2_chains)

    @property
    def h1_rank(self) -> int:
        n0 = len(self.v_ids)
        rank_b1 = linalg.rank(tuple(_dense(c, n0) for c in self.b1_cols))
        return len(self.one_keys) - rank_b1 - self.rank_b2

    def project_chain(self, terms) -> dict[int, int]:
        """Map [(coeff, delta 1-cell key)] to a sparse 1-chain of this complex."""
        out = []
        for coeff, key in terms:
            sign, rep = self.proj1[key]
            out.append((self.one_ids[rep], coeff * sign))
        return _sparse(out)


def _sparse(terms) -> dict[int, int]:
    """Sum (index, coefficient) terms into a sparse vector with no zeros."""
    out: dict[int, int] = {}
    for i, c in terms:
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def _dense(col: dict[int, int], n: int) -> Vec:
    return tuple(Fraction(col.get(i, 0)) for i in range(n))


def _require_cycles(boundary_cols, chains, message: str):
    """Raise GeometryError(message) unless every sparse chain's boundary,
    under the boundary map given by its sparse columns, is zero."""
    for chain in chains:
        if _sparse((row, c * b) for cell, c in chain.items()
                   for row, b in boundary_cols[cell].items()):
            raise GeometryError(message)


@dataclass(frozen=True)
class HalfBeltSpan:
    h1_rank: int
    span_rank: int
    spanned: bool
    n_cycles: int


def half_belt_cycles(para: Parallelohedron,
                     chain: _ChainComplex) -> list[Vec]:
    """All half-belt walks of 6-belts as 1-cycles of the chain model."""
    pos_of_edge = chain.pos_of_edge
    cycles = []
    for belt in para.belts:
        if belt.length != 6:
            continue
        for start in range(6):
            terms = []
            for i in range(start, start + 3):
                f_from = belt.facets[i % 6]
                f_to = belt.facets[(i + 1) % 6]
                rid = belt.ridges[i % 6]
                terms.append((1, ("s", f_from, pos_of_edge[(f_from, rid)])))
                terms.append((-1, ("s", f_to, pos_of_edge[(f_to, rid)])))
            z = chain.project_chain(terms)
            _require_cycles(chain.b1_cols, [z], "half-belt chain is not a cycle")
            cycles.append(_dense(z, len(chain.one_keys)))
    return cycles


def half_belt_span_d3(para: Parallelohedron) -> HalfBeltSpan:
    """Do half-belt cycles span the rational H1 of the pi-surface?"""
    _require_d3(para)
    chain = _ChainComplex(_CutComplex(para), quotient=True)
    cycles = half_belt_cycles(para, chain)
    h1 = chain.h1_rank
    span = 0
    if cycles:
        span = linalg.rank(chain.b2_chains + tuple(cycles)) - chain.rank_b2
    return HalfBeltSpan(h1, span, span == h1, len(cycles))
