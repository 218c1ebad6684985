"""Parallelohedron structure: tiling data, dual cells, surface partitions.

A polytope gets here only once it has passed the Venkov conditions
(`venkov`), which also centre it and give its belts and its facet
vectors t_F = 2*c_F. Then each facet F determines the neighbor
translate by t_F, the facet vectors generate the tile-center lattice,
and local stars of the tiling can be reconstructed without ever
materializing the tiling itself. The tiling is face-to-face, so P
meets a translate P + t, t in 2P, in the face of P cut out by the
facets through t/2, and a face of P belongs to P + t exactly when it
lies in that face. So a face's dual cell, the tiles that hold it, is a
bit set over the translates, and a codim-k face is primitive when k + 1
of its bits are set; a ridge is primitive iff its belt has 6 facets.

The surface partitions of the facets are decided here and nowhere
else: the delta-surface joins the two facets of each primitive ridge,
and its antipodal quotient, the pi-surface, also joins each facet to
its opposite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from . import linalg
from .errors import DualCellAnomaly, GeometryError, NotAParallelohedron
from .lattice import Lattice, lattice_basis_from_generators, vectors_in_ball
from .linalg import Vec
from .polytope import Face, Polytope, _bits, _transpose
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
        """P and P + t_F must intersect in exactly the facet F: the row
        of t_F in the translate table must be the bit set of the facet's
        vertices. When t_F / 2 is F's centre, F is the one facet through
        it and the row is F's by construction; so the check guards facet
        vectors that are not twice a facet centre (one with no row lies
        outside 2P and fails)."""
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
    def _translate_members(self) -> dict[Vec, int]:
        """Per lattice translate t in 2P, in sorted order, the bit set of
        the vertices v with v - t in P, that is of P's vertices in P + t.

        P is centred, so P - P = 2P: P + t meets P exactly when
        <n, t> <= 2 b on every facet (n, b). Those t lie in 2E, for E the
        ellipsoid x^T S^-1 x <= r, S = sum v v^T over the vertices and r
        its largest value on them; the other vectors of 2E get no row.
        A linear map of P carries E to its image's E, so skew coordinates
        do not grow the ball; the form D S^-1, D > 0, is read off the
        reduced rows of [S | I]. A tiling by translates of a
        parallelohedron is face-to-face (Venkov 1954; McMullen 1980), so
        P ∩ (P + t) is a face f of P. x -> t - x swaps the two tiles and
        maps f onto itself, so t/2 lies in the relative interior of f,
        and f is the meet of the facets through t/2: a row is the AND of
        the vertex bit sets of the facets with <n, t> = 2 b. The
        Voronoi proof (`scaling.voronoi_mismatch`) sweeps the same rows,
        so this is the run's one lattice enumeration once the cell exists.
        """
        p, d = self.polytope, self.dim
        rows, s, normals, _, offsets = p.integer_form
        cols = list(zip(*rows))
        aug = [[sum(map(mul, a, b)) for b in cols] + [int(i == j) for j in range(d)]
               for i, a in enumerate(cols)]
        linalg._bareiss(aug, reduce=True)
        form = [row[d:] for row in aug]
        r = max(sum(map(mul, v, (sum(map(mul, f, v)) for f in form))) for v in rows)
        ball = vectors_in_ball(Lattice(self.lattice.basis, form),
                               Fraction(4 * r, s * s))
        shifts, ts = linalg.integer_rows(ball)
        facets = [(n, 2 * ts * b, sum(1 << i for i in ids))
                  for n, b, ids in zip(normals, offsets, p.facet_vertex_ids)]
        out = {}
        for t, v in zip(ball, shifts):
            # <n, t> <= 2 b iff s <N, T> <= 2 ts B (N = ns n, T = ts t)
            members = (1 << len(rows)) - 1
            for n, cap, bits in facets:
                x = s * sum(map(mul, n, v))
                if x > cap:
                    break
                if x == cap:
                    members &= bits
            else:
                out[t] = members
        return out

    @cached_property
    def _rows_at(self) -> tuple[tuple[Vec, ...], list[int]]:
        """The translates of `_translate_members` in order, and per vertex
        the bit set of the rows that hold it."""
        rows = self._translate_members
        return tuple(rows), _transpose(rows.values(), self.polytope.n_vertices)

    def dual_cell(self, face: Face) -> int:
        """The face's dual cell: the bit set of the translate-table rows
        that hold every vertex of the face, one bit per tile."""
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
