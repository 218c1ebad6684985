"""Convex polytopes with exact rational coordinates.

Both descriptions (vertices and facet halfspaces <n, x> <= b) are kept,
with facet normals canonicalized to primitive integer outward vectors.
The dual description comes from one routine on integer rows, the
double-description method (`_extreme_rays`), which lists the extreme
rays of a pointed cone {y : <a, y> >= 0}. Homogenization makes both
directions such a cone: the facets <n, x> <= b of a point set are the
rays (b, n) of b - <n, p> >= 0 over its points p, and the vertices of
a halfspace intersection are the rays (t, y) of t >= 0 and
b t - <n, y> >= 0, at x = y / t (a ray with t = 0 is a direction of
unboundedness). Every ray is a primitive integer vector, so the results
are exact. Boundedness of a halfspace intersection needs no second hull:
once the normals span, the cone is pointed, and the intersection is
bounded exactly when no extreme ray has t = 0.

The face lattice is the closure of the facet vertex-sets under
intersection, graded from the empty face (dim -1) up to the whole
polytope (dim d). Faces are identified with their vertex-index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import GeometryError
from .linalg import Mat, Vec

Halfspace = tuple[Vec, Fraction]  # (normal, offset): <normal, x> <= offset


def affine_rank(points: list[Vec]) -> int:
    """Dimension of the affine hull of a point set (-1 for empty)."""
    if not points:
        return -1
    p0 = points[0]
    return linalg.rank(tuple(linalg.vsub(p, p0) for p in points[1:]))


def central_symmetry(points: list[Vec]) -> tuple[bool, Vec]:
    """Whether a point set is invariant under reflection in its centroid."""
    n = len(points)
    c = tuple(sum(col, Fraction(0)) / n for col in zip(*points))
    mirrored = {tuple(2 * ci - xi for ci, xi in zip(c, p)) for p in points}
    return mirrored == set(points), c


def centroid(points) -> Vec:
    pts = list(points)
    return tuple(sum(col, Fraction(0)) / len(pts) for col in zip(*pts))


@dataclass(frozen=True)
class Face:
    """A face of a polytope: its dimension and sorted vertex indices."""

    dim: int
    vertex_ids: tuple[int, ...]

    def center_in(self, polytope: "Polytope") -> Vec:
        return centroid(polytope.vertices[i] for i in self.vertex_ids)


class FaceLattice:
    """All faces graded by dimension, with containment queries."""

    def __init__(self, faces_by_dim: dict[int, tuple[Face, ...]]):
        self.faces_by_dim = faces_by_dim
        self.top_dim = max(faces_by_dim)

    def faces(self, dim: int) -> tuple[Face, ...]:
        return self.faces_by_dim.get(dim, ())

    def f_vector(self) -> tuple[int, ...]:
        """Face counts for dimensions 0 .. d-1."""
        return tuple(len(self.faces(k)) for k in range(self.top_dim))

    def superfaces(self, face: Face, dim: int) -> list[int]:
        """Indices of dim-faces whose vertex set contains the face's."""
        s = set(face.vertex_ids)
        return [
            i
            for i, g in enumerate(self.faces(dim))
            if s.issubset(g.vertex_ids)
        ]


def _canonical_halfspace(normal: Vec, offset: Fraction) -> Halfspace:
    """Scale so the normal is a primitive integer vector (same direction)."""
    prim = linalg.normalize_primitive(normal)
    lead = next(i for i, x in enumerate(prim) if x != 0)
    scale = normal[lead] / prim[lead]
    if scale < 0:
        prim = linalg.vneg(prim)
        scale = -scale
    return prim, offset / scale


def _bits(z: int):
    """Indices of the set bits of z, lowest first."""
    while z:
        low = z & -z
        yield low.bit_length() - 1
        z ^= low


def _extreme_rays(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {y : <a, y> >= 0 for every row a},
    sorted, as primitive integer vectors, by double description (Motzkin
    et al. 1953; Fukuda & Prodon 1996).

    The simplicial cone of the first D independent rows has one ray per
    basis row: the integer kernel of the other D - 1, which vanishes on
    them. The remaining rows are added in order; a row keeps the rays on
    its nonnegative side and joins each positive ray p to each negative
    ray n that is adjacent: no third ray vanishes on every row that both
    p and n vanish on. The join <a, p> n - <a, n> p lies on the row's
    hyperplane and vanishes on exactly those rows plus the new one.
    """
    dim = len(rows[0])
    basis: list[int] = []
    for i, a in enumerate(rows):
        if linalg.rank(tuple(rows[j] for j in basis) + (a,)) > len(basis):
            basis.append(i)
            if len(basis) == dim:
                break
    else:
        raise GeometryError("the cone is not pointed")
    rays: list[list[int]] = []
    zeros: list[int] = []  # per ray, the bit set of the rows it vanishes on
    for i in basis:
        (ray,) = linalg.int_kernel([rows[j] for j in basis if j != i])
        if sum(x * y for x, y in zip(rows[i], ray)) < 0:
            ray = [-x for x in ray]
        g = math.gcd(*ray)
        rays.append([x // g for x in ray])
        zeros.append(sum(1 << j for j in basis if j != i))
    done = set(basis)
    for k, a in enumerate(rows):
        if k in done:
            continue
        values = [sum(x * y for x, y in zip(a, ray)) for ray in rays]
        # per row, the bit set of the rays that vanish on it
        on_row: dict[int, int] = {}
        for r, z in enumerate(zeros):
            for j in _bits(z):
                on_row[j] = on_row.get(j, 0) | 1 << r
        every = (1 << len(rays)) - 1
        pos = [r for r, v in enumerate(values) if v > 0]
        neg = [r for r, v in enumerate(values) if v < 0]
        new_rays, new_zeros = [], []
        for r, v in enumerate(values):
            if v >= 0:
                new_rays.append(rays[r])
                new_zeros.append(zeros[r] | (1 << k if v == 0 else 0))
        for p in pos:
            for n in neg:
                common = zeros[p] & zeros[n]
                if common.bit_count() < dim - 2:
                    continue
                pair = 1 << p | 1 << n
                shared = every
                for j in _bits(common):
                    shared &= on_row[j]
                    if shared == pair:
                        break
                if shared != pair:
                    continue
                ray = [values[p] * y - values[n] * x
                       for x, y in zip(rays[p], rays[n])]
                g = math.gcd(*ray)
                new_rays.append([x // g for x in ray])
                new_zeros.append(common | 1 << k)
        rays, zeros = new_rays, new_zeros
    return sorted(tuple(ray) for ray in rays)


def _facets_from_points(points: list[Vec], dim: int
                        ) -> list[tuple[Halfspace, list[int]]]:
    """Facet halfspaces of a full-dimensional point set, sorted, each
    with the indices of the points on it.

    With the points scaled to integers, the valid inequalities
    <n, x> <= b form the cone b - <n, p> >= 0 over the points p, and its
    extreme rays (b, n) are the facets.
    """
    ints, scale = linalg.integer_rows(points)
    rows = [[1] + [-x for x in p] for p in ints]
    facets = []
    for ray in _extreme_rays(rows):
        b, *normal = ray
        g = math.gcd(*normal)
        on = [i for i, row in enumerate(rows)
              if not sum(a * y for a, y in zip(row, ray))]
        if affine_rank([points[i] for i in on]) != dim - 1:
            raise GeometryError("hull produced a supporting hyperplane "
                                "that is not a facet")
        facets.append(((tuple(Fraction(n // g) for n in normal),
                        Fraction(b, g * scale)), on))
    return sorted(facets)


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional convex polytope, exactly represented."""

    dim: int
    vertices: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]
    facet_offsets: tuple[Fraction, ...]

    # -- construction ------------------------------------------------

    @staticmethod
    def from_vertices(points) -> "Polytope":
        pts = sorted({linalg.vec(p) for p in points})
        if not pts:
            raise GeometryError("empty vertex set")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise GeometryError("inconsistent point dimensions")
        if affine_rank(list(pts)) != dim:
            raise GeometryError("input is not full-dimensional")
        facets = _facets_from_points(pts, dim)
        # p is a vertex iff the facets through it share no other point
        meet = [-1] * len(pts)
        for _, on in facets:
            mask = sum(1 << i for i in on)
            for i in on:
                meet[i] &= mask
        return Polytope(
            dim,
            tuple(p for i, p in enumerate(pts) if meet[i] == 1 << i),
            tuple(n for (n, _), _ in facets),
            tuple(b for (_, b), _ in facets),
        )

    @staticmethod
    def from_halfspaces(halfspaces, dim: int) -> "Polytope":
        hs: dict[Halfspace, None] = {}
        for normal, offset in halfspaces:
            hs[_canonical_halfspace(linalg.vec(normal), linalg.frac(offset))] = None
        planes = sorted(hs)
        if linalg.rank(tuple(n for n, _ in planes)) < dim:
            raise GeometryError("halfspace normals do not span the space")
        # vertices x = y / (t * scale) of <n, y> <= (scale * b) t, t >= 0
        normals, _ = linalg.integer_rows(n for n, _ in planes)
        (offsets,), scale = linalg.integer_rows([[b for _, b in planes]])
        rows = [[b] + [-x for x in n] for n, b in zip(normals, offsets)]
        vertices = {}
        for ray in _extreme_rays([[1] + [0] * dim] + rows):
            t, *y = ray
            if t == 0:
                raise GeometryError("halfspace intersection is unbounded")
            vertices[tuple(Fraction(x, t * scale) for x in y)] = ray
        verts = sorted(vertices)
        if affine_rank(verts) != dim:
            raise GeometryError("halfspace intersection has empty interior")
        facets = []
        for plane, row in zip(planes, rows):
            on = [v for v, ray in vertices.items()
                  if not sum(a * y for a, y in zip(row, ray))]
            if affine_rank(on) == dim - 1:
                facets.append(plane)
        return Polytope(
            dim,
            tuple(verts),
            tuple(n for n, _ in facets),
            tuple(b for _, b in facets),
        )

    # -- basic queries -----------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facet_normals)

    def halfspaces(self) -> list[Halfspace]:
        return list(zip(self.facet_normals, self.facet_offsets))

    def contains(self, point: Vec, strict: bool = False) -> bool:
        if strict:
            return all(
                linalg.dot(n, point) < b
                for n, b in zip(self.facet_normals, self.facet_offsets)
            )
        return all(
            linalg.dot(n, point) <= b
            for n, b in zip(self.facet_normals, self.facet_offsets)
        )

    @cached_property
    def facet_vertex_ids(self) -> tuple[tuple[int, ...], ...]:
        """Per facet, sorted indices of the vertices lying on it."""
        # <n, v> = b iff <ns n, s v> = ns (s b), all integers
        (*points, offsets), s = linalg.integer_rows(
            self.vertices + (self.facet_offsets,))
        normals, ns = linalg.integer_rows(self.facet_normals)
        return tuple(
            tuple(i for i, v in enumerate(points)
                  if sum(x * y for x, y in zip(n, v)) == ns * b)
            for n, b in zip(normals, offsets)
        )

    @cached_property
    def vertex_index(self) -> dict[Vec, int]:
        """Per vertex, its index in `vertices`."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def centroid(self) -> Vec:
        return centroid(self.vertices)

    @cached_property
    def circumradius_sq(self) -> Fraction:
        return max(linalg.dot(v, v) for v in self.vertices)

    def is_centrally_symmetric(self) -> tuple[bool, Vec]:
        return central_symmetry(list(self.vertices))

    # -- face lattice ------------------------------------------------

    @cached_property
    def face_lattice(self) -> FaceLattice:
        n = len(self.vertices)
        facet_sets = [frozenset(ids) for ids in self.facet_vertex_ids]
        found: set[frozenset] = {frozenset(range(n))}
        frontier = set(found)
        while frontier:
            new = set()
            for f in frontier:
                for fs in facet_sets:
                    g = f & fs
                    if g not in found:
                        new.add(g)
            found |= new
            frontier = new
        found.add(frozenset())
        by_dim: dict[int, list[Face]] = {}
        for vs in found:
            ids = tuple(sorted(vs))
            dim = affine_rank([self.vertices[i] for i in ids])
            by_dim.setdefault(dim, []).append(Face(dim, ids))
        return FaceLattice(
            {
                dim: tuple(sorted(fs, key=lambda f: f.vertex_ids))
                for dim, fs in by_dim.items()
            }
        )

    def f_vector(self) -> tuple[int, ...]:
        return self.face_lattice.f_vector()

    @cached_property
    def facet_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Per facet of a 3-polytope, its vertex ids in boundary-cycle
        order: from the smallest id towards its smaller neighbour."""
        edges = [e.vertex_ids for e in self.face_lattice.faces(1)]
        out = []
        for ids in self.facet_vertex_ids:
            adj: dict[int, list[int]] = {v: [] for v in ids}
            for a, b in edges:
                if a in adj and b in adj:
                    adj[a].append(b)
                    adj[b].append(a)
            order = [ids[0], min(adj[ids[0]])]
            while len(order) < len(ids):
                order.append(next(x for x in adj[order[-1]] if x != order[-2]))
            out.append(tuple(order))
        return tuple(out)

    # -- transformations ----------------------------------------------

    def translated(self, shift: Vec) -> "Polytope":
        shift = linalg.vec(shift)
        return Polytope(
            self.dim,
            tuple(sorted(linalg.vadd(v, shift) for v in self.vertices)),
            self.facet_normals,
            tuple(
                b + linalg.dot(n, shift)
                for n, b in zip(self.facet_normals, self.facet_offsets)
            ),
        )

    def recentered(self) -> "Polytope":
        return self.translated(linalg.vneg(self.centroid))

    def apply_affine(self, a: Mat, shift: Vec | None = None) -> "Polytope":
        """Image under x -> a x + shift; facets re-derived and verified.

        The facet of <n, x> <= b maps to the canonicalized pushforward
        halfspace <a^-T n, y> <= b + <a^-T n, shift>; each is then
        checked exactly against the mapped vertex set, so the result is
        as trustworthy as a fresh enumeration at a fraction of the cost.
        """
        a = linalg.mat(a)
        if linalg.det(a) == 0:
            raise GeometryError("affine map must be invertible")
        shift = linalg.vec(shift) if shift is not None else linalg.zeros(self.dim)
        verts = tuple(sorted(
            linalg.vadd(linalg.matvec(a, v), shift) for v in self.vertices
        ))
        inv_t = linalg.transpose(linalg.inverse(a))
        facets = []
        for n, b in zip(self.facet_normals, self.facet_offsets):
            m = linalg.matvec(inv_t, n)
            facets.append(_canonical_halfspace(m, b + linalg.dot(m, shift)))
        facets.sort()
        for i, (n, b) in enumerate(facets):
            vals = [linalg.dot(n, v) for v in verts]
            on = sum(1 for x in vals if x == b)
            if any(x > b for x in vals) or on < self.dim:
                raise GeometryError("affine pushforward verification failed")
        return Polytope(
            self.dim,
            verts,
            tuple(n for n, _ in facets),
            tuple(b for _, b in facets),
        )


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
