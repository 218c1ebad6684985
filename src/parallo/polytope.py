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
are exact, and it carries the rows it vanishes on: the points on a
facet, or the planes through a vertex, which are the vertex-facet
incidences. Boundedness of a halfspace intersection needs no second
hull: once the normals span, the cone is pointed, and the intersection
is bounded exactly when no extreme ray has t = 0.

The face lattice holds the faces of codim 1 to min(3, d), the ones the
certificate reads. It walks down from the facets: the faces a face
covers are its inclusion-maximal proper intersections with the facets
that meet it, so each level is one codim (Kaibel & Pfetsch 2002,
"Computing the face lattice of a polytope from its vertex-facet
incidences"). Each face carries its vertex ids and the ids of the
facets that contain it, the meet of its vertices' facet sets.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import linalg
from .errors import GeometryError
from .linalg import Vec

Halfspace = tuple[Vec, Fraction]  # (normal, offset): <normal, x> <= offset


class Face(namedtuple("Face", "dim vertex_ids facets")):
    """A face of a polytope: its dimension, sorted vertex indices and
    the sorted indices of the facets containing it."""

    __slots__ = ()


class FaceLattice:
    """The faces of codim 1 to min(3, d), by dimension."""

    def __init__(self, faces_by_dim: dict[int, tuple[Face, ...]]):
        self.faces_by_dim = faces_by_dim

    def faces(self, dim: int) -> tuple[Face, ...]:
        """The faces of one dimension, sorted by vertex ids; a dimension
        that was not built raises KeyError."""
        return self.faces_by_dim[dim]


def _bits(z: int):
    """Indices of the set bits of z, lowest first."""
    while z:
        low = z & -z
        yield low.bit_length() - 1
        z ^= low


def _extreme_rays(rows: list[list[int]]) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : <a, y> >= 0 for every row a},
    sorted, as primitive integer vectors, each with the bit set of the
    rows it vanishes on, by double description (Motzkin et al. 1953;
    Fukuda & Prodon 1996).

    The simplicial cone of the first D independent rows has one ray per
    basis row: the integer kernel of the other D - 1, which vanishes on
    them. The remaining rows are added in order; a row keeps the rays on
    its nonnegative side and joins each positive ray p to each negative
    ray n that is adjacent: no third ray vanishes on every row that both
    p and n vanish on. The join <a, p> n - <a, n> p lies on the row's
    hyperplane and vanishes on exactly those rows plus the new one.
    """
    dim = len(rows[0])
    # the first independent rows are the pivot columns of the transpose
    basis, _ = linalg._bareiss([list(col) for col in zip(*rows)])
    if len(basis) < dim:
        raise GeometryError("the cone is not pointed")
    rays: list[tuple[int, ...]] = []
    zeros: list[int] = []  # per ray, the bit set of the rows it vanishes on
    for i in basis:
        (ray,) = linalg.int_kernel([rows[j] for j in basis if j != i])
        if sum(map(mul, rows[i], ray)) < 0:
            ray = [-x for x in ray]
        rays.append(linalg.primitive(ray))
        zeros.append(sum(1 << j for j in basis if j != i))
    done = set(basis)
    for k, a in enumerate(rows):
        if k in done:
            continue
        values = [sum(map(mul, a, ray)) for ray in rays]
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
                new_rays.append(linalg.primitive([
                    values[p] * y - values[n] * x
                    for x, y in zip(rays[p], rays[n])]))
                new_zeros.append(common | 1 << k)
        rays, zeros = new_rays, new_zeros
    return sorted(zip(rays, zeros))


def _facets_from_points(points: list[Vec], dim: int
                        ) -> list[tuple[Halfspace, int]]:
    """Facet halfspaces of a full-dimensional point set, sorted, each
    with the bit set of the points on it.

    With the points scaled to integers, the valid inequalities
    <n, x> <= b form the cone b - <n, p> >= 0 over the points p, and its
    extreme rays (b, n) are the facets. Rows (1, -p) have rank one more
    than the affine rank of their points p.
    """
    ints, scale = linalg.integer_rows(points)
    rows = [[1] + [-x for x in p] for p in ints]
    if linalg.rank(rows) != dim + 1:
        raise GeometryError("input is not full-dimensional")
    facets = []
    for (b, *normal), on in _extreme_rays(rows):
        g = math.gcd(*normal)
        if linalg.rank([rows[i] for i in _bits(on)]) != dim:
            raise GeometryError("hull produced a supporting hyperplane "
                                "that is not a facet")
        facets.append(((tuple(Fraction(n // g) for n in normal),
                        Fraction(b, g * scale)), on))
    return sorted(facets)


class Polytope:
    """Bounded full-dimensional convex polytope, exactly represented."""

    def __init__(self, dim: int, vertices: tuple[Vec, ...],
                 facet_normals: tuple[Vec, ...],
                 facet_offsets: tuple[Fraction, ...],
                 facet_vertex_ids: tuple[tuple[int, ...], ...]):
        self.dim = dim
        self.vertices = vertices
        self.facet_normals = facet_normals
        self.facet_offsets = facet_offsets
        # per facet, the sorted indices of the vertices lying on it
        self.facet_vertex_ids = facet_vertex_ids

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        fields = ("dim", "vertices", "facet_normals", "facet_offsets")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    # -- construction ------------------------------------------------

    @staticmethod
    def from_vertices(points) -> "Polytope":
        pts = sorted({linalg.vec(p) for p in points})
        if not pts:
            raise GeometryError("empty vertex set")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise GeometryError("inconsistent point dimensions")
        facets = _facets_from_points(pts, dim)
        # p is a vertex iff the facets through it share no other point
        meet = [-1] * len(pts)
        for _, on in facets:
            for i in _bits(on):
                meet[i] &= on
        kept = [i for i in range(len(pts)) if meet[i] == 1 << i]
        vertex_id = dict(zip(kept, range(len(kept))))
        return Polytope(
            dim,
            tuple(pts[i] for i in kept),
            tuple(n for (n, _), _ in facets),
            tuple(b for (_, b), _ in facets),
            tuple(tuple(vertex_id[i] for i in _bits(on) if i in vertex_id)
                  for _, on in facets),
        )

    @staticmethod
    def from_halfspaces(halfspaces, dim: int) -> "Polytope":
        # <n, x> <= b as the integer row (B, N) = s (b, n); the plane, with
        # the primitive normal N / g and offset B / g for the content g of
        # N, keys its row of the cone t >= 0, B t - <N, y> >= 0, whose rays
        # (t, y) give the vertices y / t
        ints, _ = linalg.integer_rows(linalg.vec((*n, b)) for n, b in halfspaces)
        row_of = {}
        for *n, b in ints:
            g = math.gcd(*n)
            if not g:
                raise GeometryError("a halfspace normal is the zero vector")
            row_of[tuple(x // g for x in n), Fraction(b, g)] = [b] + [-x for x in n]
        planes = sorted(row_of)
        rows = [row_of[plane] for plane in planes]
        if linalg.rank([row[1:] for row in rows]) < dim:
            raise GeometryError("halfspace normals do not span the space")
        rays = _extreme_rays([[1] + [0] * dim] + rows)
        if any(ray[0] == 0 for ray, _ in rays):
            raise GeometryError("halfspace intersection is unbounded")
        # the affine rank of vertices is the rank of their rays (t, y), less 1
        if linalg.rank([ray for ray, _ in rays]) != dim + 1:
            raise GeometryError("halfspace intersection has empty interior")
        vertices = sorted((tuple(Fraction(x, ray[0]) for x in ray[1:]), ray, on)
                          for ray, on in rays)
        # per row, the ids of the vertices on it; plane k is row k, after
        # t >= 0 (row 0)
        on_row: list[list[int]] = [[] for _ in range(len(planes) + 1)]
        for i, (_, _, on) in enumerate(vertices):
            for k in _bits(on):
                on_row[k].append(i)
        facets = [(plane, tuple(ids)) for plane, ids in zip(planes, on_row[1:])
                  if linalg.rank([vertices[i][1] for i in ids]) == dim]
        return Polytope(
            dim,
            tuple(v for v, _, _ in vertices),
            tuple(linalg.vec(n) for (n, _), _ in facets),
            tuple(b for (_, b), _ in facets),
            tuple(ids for _, ids in facets),
        )

    # -- basic queries -----------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facet_normals)

    @cached_property
    def integer_form(self):
        """(rows, s, normals, ns, offsets): the vertices as integer rows
        s x and the facets <n, x> <= b as integer normals ns n and
        offsets ns s b, so <n, x> <= b exactly when <ns n, s x> <= ns s b;
        every stage that compares the two in integers reads it."""
        (*rows, offsets), s = linalg.integer_rows(
            self.vertices + (self.facet_offsets,))
        normals, ns = linalg.integer_rows(self.facet_normals)
        return rows, s, normals, ns, [ns * b for b in offsets]

    @cached_property
    def centroid(self) -> Vec:
        return tuple(sum(col, Fraction(0)) / self.n_vertices
                     for col in zip(*self.vertices))

    # -- face lattice ------------------------------------------------

    @cached_property
    def face_lattice(self) -> FaceLattice:
        facet_masks = [sum(1 << i for i in ids) for ids in self.facet_vertex_ids]
        through = [0] * self.n_vertices  # per vertex, the bit set of its facets
        for f, ids in enumerate(self.facet_vertex_ids):
            for i in ids:
                through[i] |= 1 << f
        by_dim = {}
        level = set(facet_masks)
        last = self.dim - min(3, self.dim)
        for dim in range(self.dim - 1, last - 1, -1):
            faces, below = [], set()
            for vs in level:
                ids = tuple(_bits(vs))
                on, near = -1, 0
                for i in ids:
                    on &= through[i]
                    near |= through[i]
                faces.append(Face(dim, ids, tuple(_bits(on))))
                if dim == last:
                    continue
                # the faces it covers: its maximal cuts by the facets that
                # meet it without containing it. A superset is the larger
                # integer, so it comes first.
                kept = []
                for c in sorted({vs & facet_masks[f] for f in _bits(near & ~on)},
                                reverse=True):
                    if not any(c & k == c for k in kept):
                        kept.append(c)
                below.update(kept)
            by_dim[dim] = tuple(sorted(faces, key=lambda f: f.vertex_ids))
            level = below
        return FaceLattice(by_dim)

    @cached_property
    def facet_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Per facet of a 3-polytope, its vertex ids in boundary-cycle
        order: from the smallest id towards its smaller neighbour."""
        adj: list[dict[int, list[int]]] = [{} for _ in range(self.n_facets)]
        for edge in self.face_lattice.faces(1):
            a, b = edge.vertex_ids
            for f in edge.facets:
                adj[f].setdefault(a, []).append(b)
                adj[f].setdefault(b, []).append(a)
        out = []
        for ids, nbrs in zip(self.facet_vertex_ids, adj):
            order = [ids[0], min(nbrs[ids[0]])]
            while len(order) < len(ids):
                order.append(next(x for x in nbrs[order[-1]] if x != order[-2]))
            out.append(tuple(order))
        return tuple(out)

    # -- transformations ----------------------------------------------

    def translated(self, shift: Vec) -> "Polytope":
        """The translate by `shift`: a translation keeps the sorted vertex
        order, and with it the facet incidences."""
        shift = linalg.vec(shift)
        return Polytope(
            self.dim,
            tuple(linalg.vadd(v, shift) for v in self.vertices),
            self.facet_normals,
            tuple(
                b + linalg.dot(n, shift)
                for n, b in zip(self.facet_normals, self.facet_offsets)
            ),
            self.facet_vertex_ids,
        )

    def recentered(self) -> "Polytope":
        """The translate with centroid 0: `self` when it already has it,
        since every constructor stores its vertices sorted."""
        if not any(self.centroid):
            return self
        return self.translated(linalg.vneg(self.centroid))
