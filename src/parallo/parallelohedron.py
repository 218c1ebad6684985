"""Parallelohedron structure: tiling data, dual cells, surface partitions.

A polytope gets here only once it has passed the Venkov conditions
(`venkov`), which also centre it and give its belts and its facet
vectors t_F = 2*c_F. Then each facet F determines the neighbor
translate by t_F, the facet vectors generate the tile-center lattice L,
and local stars of the tiling can be reconstructed without ever
materializing the tiling itself. The tiling is face-to-face (Venkov
1954; McMullen 1980), so a vertex v of P lies in P + t exactly when
v - t is a vertex of P: the tiles at v are v - w over the vertices w of
v's class mod L. So a face's dual cell, the tiles that hold all its
vertices, is a bit set over the tiles that meet P, and a codim-k face
is primitive when k + 1 of its bits are set; a ridge is primitive iff
its belt has 6 facets.

The surface partitions of the facets are decided here and nowhere
else: the delta-surface joins the two facets of each primitive ridge,
and its antipodal quotient, the pi-surface, also joins each facet to
its opposite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from operator import sub

from . import linalg
from .errors import DualCellAnomaly, GeometryError, NotAParallelohedron
from .lattice import Lattice, lattice_basis_from_generators
from .linalg import Vec
from .polytope import Face, Polytope, _bits
from .venkov import _analyze


def component_roots(n: int, pairs) -> tuple[int, ...]:
    """Union-find over 0..n-1 joined by pairs: each index's component
    root, which is the smallest index of its component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return tuple(find(x) for x in range(n))


class Parallelohedron:
    """A centred polytope past the Venkov conditions, with its tiling data."""

    def __init__(self, polytope, belts, facet_vectors):
        p = self.polytope = polytope
        self.belts = belts
        self.facet_vectors = facet_vectors
        # per ridge its two facets, and the ridge of each such facet pair
        self.ridge_facets = tuple(r.facets for r in self.ridges)
        self.ridge_of = {pair: r for r, pair in enumerate(self.ridge_facets)}
        self.facet_vector_rows = linalg.integer_rows(self.facet_vectors)
        # opposite facet: normal negated, same offset (we are centered)
        planes = tuple(zip(p.facet_normals, p.facet_offsets))
        key = {plane: i for i, plane in enumerate(planes)}
        try:
            self.opposite_facet = tuple(key[linalg.vneg(n), b] for n, b in planes)
        except KeyError:
            raise GeometryError(
                "facet pairing failed on a symmetric polytope") from None
        basis = lattice_basis_from_generators(*self.facet_vector_rows)
        if len(basis) != p.dim:
            raise GeometryError("facet vectors do not span a full-rank lattice")
        # d HNF rows with distinct pivot columns: a nonsingular basis
        self.lattice = Lattice(basis, linalg.identity(p.dim))
        self._check_neighbors()

    @staticmethod
    def build(p: Polytope) -> "Parallelohedron":
        venkov, *tiling = _analyze(p)
        if not venkov["ok"]:
            w = venkov["witnesses"][0]
            raise NotAParallelohedron(
                f"venkov: fail ({w['condition']}: {w['detail']})")
        return Parallelohedron(*tiling)

    def _check_neighbors(self):
        """P and P + t_F must intersect in exactly the facet F: F - t_F
        must be the vertex set of F's opposite facet, which lies on the
        plane <n_F, x> = -b_F, so P + t_F lies on the far side of F's
        plane and meets P in F alone."""
        p = self.polytope
        xints, xs, *_ = p.integer_form
        tints, ts = self.facet_vector_rows
        # on the scale xs ts: x - t is (ts X - xs T) / (xs ts)
        index = {tuple(ts * a for a in x): i for i, x in enumerate(xints)}
        for fi, (t, ids) in enumerate(zip(tints, p.facet_vertex_ids)):
            moved = {index.get(tuple(ts * a - xs * b for a, b in zip(xints[i], t)))
                     for i in ids}
            if moved != set(p.facet_vertex_ids[self.opposite_facet[fi]]):
                raise GeometryError(
                    f"facet vector of facet {fi} does not reproduce the facet "
                    "as the neighbor intersection"
                )

    # -- ridges ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.polytope.dim

    @cached_property
    def ridges(self) -> tuple[Face, ...]:
        return self.polytope.face_lattice.faces(self.dim - 2)

    @cached_property
    def primitive_ridges(self) -> frozenset[int]:
        """The ridges of the 6-belts: three tiles meet at each."""
        return frozenset(r for b in self.belts if b.length == 6 for r in b.ridges)

    @cached_property
    def opposite_ridge(self) -> tuple[int, ...]:
        """Per ridge, the ridge between the opposites of its two facets."""
        opp = self.opposite_facet
        return tuple(self.ridge_of[tuple(sorted((opp[a], opp[b])))]
                     for a, b in self.ridge_facets)

    # -- surface partitions -----------------------------------------------

    @cached_property
    def delta_roots(self) -> tuple[int, ...]:
        """Per facet, the least facet of its delta-surface component: the
        facets joined by primitive ridges."""
        return component_roots(
            self.polytope.n_facets,
            (self.ridge_facets[r] for r in self.primitive_ridges))

    @cached_property
    def pi_roots(self) -> tuple[int, ...]:
        """Per facet, the least facet of its pi-surface component: the
        delta components joined through opposite facets."""
        return component_roots(
            self.polytope.n_facets,
            chain(enumerate(self.delta_roots), enumerate(self.opposite_facet)))

    # -- dual cells -------------------------------------------------------

    @cached_property
    def _rows_at(self) -> tuple[tuple[Vec, ...], list[int]]:
        """The centres t of the tiles P + t that meet P, sorted, and per
        vertex v the bit set of those that hold it: v - w over the
        vertices w of v's class mod L. The class is v's residue against
        L's Hermite rows, upper triangular with positive pivots, each
        coordinate in turn reduced into [0, pivot); the facet vectors
        generate L, so on their scale those rows are integral."""
        xints, xs, *_ = self.polytope.integer_form
        s = math.lcm(xs, self.facet_vector_rows[1])
        vertices = [[s // xs * a for a in x] for x in xints]
        basis = [[int(s * x) for x in row] for row in self.lattice.basis]
        classes = {}
        for i, x in enumerate(vertices):
            for j, row in enumerate(basis):
                q = x[j] // row[j]
                x = [a - q * b for a, b in zip(x, row)]
            classes.setdefault(tuple(x), []).append(i)
        tiles = {}  # t -> the vertices v with v - t a vertex
        for ids in classes.values():
            for i, j in product(ids, repeat=2):
                tiles.setdefault(tuple(map(sub, vertices[i], vertices[j])), []).append(i)
        translates = sorted(tiles)
        at = [0] * len(vertices)
        for row, t in enumerate(translates):
            for i in tiles[t]:
                at[i] |= 1 << row
        return tuple(tuple(Fraction(a, s) for a in t) for t in translates), at

    def dual_cell(self, face: Face) -> int:
        """The face's dual cell: the bit set of the tiles of `_rows_at`
        that hold every vertex of the face."""
        translates, at = self._rows_at
        rows = (1 << len(translates)) - 1
        for i in face.vertex_ids:
            rows &= at[i]
        return rows

    def centers(self, cell: int) -> tuple[Vec, ...]:
        """The tile centers of a dual cell, sorted (the table's order)."""
        translates, _ = self._rows_at
        return tuple(translates[j] for j in _bits(cell))

    def primitivity_profile(self) -> dict[int, bool]:
        """codim k -> every codim-k face lies in exactly k+1 tiles (k <= 3)."""
        faces = self.polytope.face_lattice.faces
        return {k: all(self.dual_cell(f).bit_count() == k + 1
                       for f in faces(self.dim - k))
                for k in range(1, min(3, self.dim) + 1)}


DUAL3_TYPES = {
    (4, (3, 3, 3, 3)): "tetrahedron",
    (5, (3, 3, 3, 3, 4)): "quadrangular pyramid",
    (6, (3, 3, 3, 3, 3, 3, 3, 3)): "octahedron",
    (6, (3, 3, 4, 4, 4)): "triangular prism",
    (8, (4, 4, 4, 4, 4, 4)): "cube",
}


def classify_dual3(centers: tuple[Vec, ...]) -> str:
    """Combinatorial type of a dual 3-cell hull among the five types.

    The hull is taken on the pivot coordinates of the centers'
    differences: projecting onto them is injective on the affine hull,
    so it keeps the hull's combinatorics."""
    rows, _ = linalg.integer_rows(centers)
    pivots, _ = linalg._bareiss(
        [[a - b for a, b in zip(r, rows[0])] for r in rows[1:]])
    if len(pivots) != 3:
        raise DualCellAnomaly(
            f"dual cell hull is {len(pivots)}-dimensional, expected 3")
    hull = Polytope.from_vertices([[r[j] for j in pivots] for r in rows])
    signature = (hull.n_vertices,
                 tuple(sorted(len(ids) for ids in hull.facet_vertex_ids)))
    kind = DUAL3_TYPES.get(signature)
    if kind is None:
        raise DualCellAnomaly(
            f"dual 3-cell signature {signature} matches none of the five "
            "reference types")
    return kind


def dual3_census(para: Parallelohedron) -> tuple[dict[str, int], list[dict]]:
    """Count dual 3-cell types over all codim-3 faces of the polytope, and
    list each cell that fits none of them (its face's vertex ids and the
    reason)."""
    census: dict[str, int] = {}
    anomalies = []
    for face in para.polytope.face_lattice.faces(para.dim - 3):
        try:
            kind = classify_dual3(para.centers(para.dual_cell(face)))
        except DualCellAnomaly as exc:
            anomalies.append({"face_vertex_ids": list(face.vertex_ids),
                              "detail": str(exc)})
            continue
        census[kind] = census.get(kind, 0) + 1
    return dict(sorted(census.items())), anomalies
