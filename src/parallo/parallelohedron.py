"""Parallelohedron structure: tiling data, dual cells, surface partitions.

A polytope gets here only once it has passed the Venkov conditions
(`venkov`), which also give its belts and facet centers. Then each
facet F determines the neighbor translate via the facet vector
t_F = 2*c_F, the facet vectors generate the tile-center lattice, and
local stars of the tiling can be reconstructed without ever
materializing the tiling itself: a face of the polytope belongs to the
translate by t exactly when all its vertices satisfy the shifted
inequalities. A ridge is primitive iff its belt has 6 facets (three
tiles meet at it rather than four).

The surface partitions of the facets are decided here and nowhere
else: the delta-surface joins the two facets of each primitive ridge,
and its antipodal quotient, the pi-surface, also joins each facet to
its opposite.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import chain
from operator import mul

from . import linalg
from .errors import DualCellAnomaly, GeometryError, NotAParallelohedron
from .lattice import Lattice, lattice_basis_from_generators, vectors_in_ball
from .linalg import Vec
from .polytope import Face, Polytope, _bits
from .venkov import _analyze


def affine_hull_polytope(points: list[Vec]):
    """Hull of points in coordinates of their own affine hull.

    Returns (polytope, rank, origin, basis_rows): the polytope lives in
    R^rank; basis rows map its coordinates back via origin + c . basis.
    """
    pts = sorted(set(points))
    p0 = pts[0]
    basis: list[Vec] = []
    for p in pts[1:]:
        d = linalg.vsub(p, p0)
        if linalg.rank(tuple(basis) + (d,)) > len(basis):
            basis.append(d)
    k = len(basis)
    if k == 0:
        raise GeometryError("a single point has no hull")
    bt = linalg.transpose(tuple(basis))
    coords = [linalg.solve_linear(bt, linalg.vsub(p, p0)) for p in pts]
    return Polytope.from_vertices(coords), k, p0, tuple(basis)


class DualCell:
    """Tile centers sharing a face of codimension `codim`."""

    def __init__(self, face: Face, centers: tuple[Vec, ...], codim: int):
        self.face = face
        self.centers = centers
        self.codim = codim

    @cached_property
    def hull(self) -> Polytope | None:
        """Hull of the centers in their affine-hull coordinates, built on
        first read; codim <= 3 only."""
        if self.codim > 3 or len(self.centers) < 2:
            return None
        return affine_hull_polytope(self.centers)[0]


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
    """A polytope that passed the Venkov conditions, with its tiling data."""

    def __init__(self, polytope, belts, belt_of_ridge, facet_centers):
        self.polytope = polytope
        self.belts = belts
        self.belt_of_ridge = belt_of_ridge
        self.facet_centers = facet_centers
        # per ridge its two facets, and the ridge of each such facet pair
        self.ridge_facets = tuple(r.facets for r in self.ridges)
        self.ridge_of = {pair: r for r, pair in enumerate(self.ridge_facets)}
        self._finish_setup()

    @staticmethod
    def build(p: Polytope) -> "Parallelohedron":
        q = p.recentered()
        verdict, *tiling = _analyze(q)
        if not verdict.ok:
            raise NotAParallelohedron(verdict)
        return Parallelohedron(q, *tiling)

    def _finish_setup(self):
        p = self.polytope
        self.facet_vectors = tuple(
            linalg.vscale(2, c) for c in self.facet_centers
        )
        # opposite facet: normal negated, same offset (we are centered)
        key = {
            (n, b): i
            for i, (n, b) in enumerate(zip(p.facet_normals, p.facet_offsets))
        }
        opp = []
        for n, b in zip(p.facet_normals, p.facet_offsets):
            j = key.get((linalg.vneg(n), b))
            if j is None:
                raise GeometryError("facet pairing failed on a symmetric polytope")
            opp.append(j)
        self.opposite_facet = tuple(opp)
        basis = lattice_basis_from_generators(self.facet_vectors)
        if len(basis) != p.dim:
            raise GeometryError("facet vectors do not span a full-rank lattice")
        self.lattice = Lattice.create(basis)
        self._check_neighbors()

    def _check_neighbors(self):
        """P and P + t_F must intersect in exactly the facet F: the row
        of t_F in the translate table must be the bit set of the facet's
        vertices (a facet vector with no row lies outside 2P and fails)."""
        p = self.polytope
        for fi, t in enumerate(self.facet_vectors):
            if self._translate_members.get(t) != sum(
                    1 << i for i in p.facet_vertex_ids[fi]):
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

    def ridge_primitive(self, ridge_id: int) -> bool:
        """True iff the ridge's belt has length 6 (three tiles meet there)."""
        bid, _ = self.belt_of_ridge[ridge_id]
        return self.belts[bid].length == 6

    @cached_property
    def primitive_ridges(self) -> tuple[int, ...]:
        return tuple(r for r in range(len(self.ridges)) if self.ridge_primitive(r))

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
    def _translate_members(self) -> dict[Vec, int]:
        """Per lattice translate t in 2P, the bit set of the vertices v
        with v - t in P, that is <n, v> <= b + <n, t> on every facet
        (n, b).

        P is centred, so P - P = 2P: P + t meets P exactly when
        <n, t> <= 2 b on every facet. Those t lie in the ball of twice
        the circumradius, and the other vectors of that ball get no row.
        Each facet sorts the vertex heights <n, v> once; the vertices
        under a cap are then a prefix, found by bisection, and a row is
        the AND of one prefix per facet.
        """
        p = self.polytope
        ball = vectors_in_ball(self.lattice, 4 * p.circumradius_sq)
        points, normals, offsets = p.integer_form(ball)
        vertices, shifts = points[:p.n_vertices], points[p.n_vertices:]
        levels = []  # per facet: sorted heights, and the prefix bit sets
        for n in normals:
            heights = sorted((sum(map(mul, n, v)), i)
                             for i, v in enumerate(vertices))
            prefix = [0]
            for _, i in heights:
                prefix.append(prefix[-1] | 1 << i)
            levels.append(([h for h, _ in heights], prefix))
        out = {}
        for t, v in zip(ball, shifts):
            caps = [b + sum(map(mul, n, v)) for n, b in zip(normals, offsets)]
            if any(c > 3 * b for c, b in zip(caps, offsets)):
                continue
            members = -1
            for c, (heights, prefix) in zip(caps, levels):
                members &= prefix[bisect_right(heights, c)]
            out[t] = members
        return out

    @cached_property
    def _rows_at(self) -> tuple[tuple[Vec, ...], list[int]]:
        """The translates of `_translate_members` in order, and per vertex
        the bit set of the rows that hold it."""
        at = [0] * self.polytope.n_vertices
        for j, members in enumerate(self._translate_members.values()):
            for i in _bits(members):
                at[i] |= 1 << j
        return tuple(self._translate_members), at

    def dual_cell(self, face: Face) -> DualCell:
        """The translates whose rows hold every vertex of the face."""
        translates, at = self._rows_at
        rows = (1 << len(translates)) - 1
        for i in face.vertex_ids:
            rows &= at[i]
        centers = [translates[j] for j in _bits(rows)]
        return DualCell(face, tuple(sorted(centers)), self.dim - face.dim)

    def dual_cells(self, codim: int) -> list[DualCell]:
        return [
            self.dual_cell(f)
            for f in self.polytope.face_lattice.faces(self.dim - codim)
        ]

    def primitivity_profile(self) -> dict[int, bool]:
        """codim k -> every codim-k face lies in exactly k+1 tiles (k <= 3)."""
        out = {}
        for k in range(1, min(3, self.dim) + 1):
            out[k] = all(
                len(c.centers) == k + 1 for c in self.dual_cells(k)
            )
        return out


DUAL3_TYPES = {
    (4, (3, 3, 3, 3)): "tetrahedron",
    (5, (3, 3, 3, 3, 4)): "quadrangular pyramid",
    (6, (3, 3, 3, 3, 3, 3, 3, 3)): "octahedron",
    (6, (3, 3, 4, 4, 4)): "triangular prism",
    (8, (4, 4, 4, 4, 4, 4)): "cube",
}


def classify_dual3(cell: DualCell) -> str:
    """Combinatorial type of a dual 3-cell hull among the five types."""
    if cell.hull is None or cell.hull.dim != 3:
        raise DualCellAnomaly(
            f"dual cell hull is {0 if cell.hull is None else cell.hull.dim}"
            "-dimensional, expected 3",
            centers=cell.centers,
        )
    hull = cell.hull
    signature = (
        hull.n_vertices,
        tuple(sorted(len(ids) for ids in hull.facet_vertex_ids)),
    )
    kind = DUAL3_TYPES.get(signature)
    if kind is None:
        raise DualCellAnomaly(
            f"dual 3-cell signature {signature} matches none of the five "
            "reference types",
            centers=cell.centers,
            detail=signature,
        )
    return kind


def dual3_census(para: Parallelohedron) -> dict[str, int]:
    """Count dual 3-cell types over all codim-3 faces of the polytope."""
    census: dict[str, int] = {}
    for cell in para.dual_cells(3):
        kind = classify_dual3(cell)
        census[kind] = census.get(kind, 0) + 1
    return dict(sorted(census.items()))
