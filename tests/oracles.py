"""Independent oracles the tests check the exact code against.

These deliberately avoid the library's own code paths: hulls come from
scipy's floating-point qhull, lattice minima from a plain exhaustive
coefficient sweep, lattice balls from a `Fraction` sweep over the
coefficient box that bounds each coefficient by the diagonal of Q^-1,
the Voronoi-cell inequalities from `Fraction` dot products over that
ball, dual cells from a per-face sweep over translates, unimodular maps
from explicit elementary operations, the fraction-free kernels (rank,
det, both hull directions) from the plain `Fraction` eliminations they
replaced, and the extreme rays of a cone from a `Fraction` kernel per
(D - 1)-subset of its rows.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.spatial import ConvexHull

from parallo import linalg
from parallo.lattice import vectors_in_ball
from parallo.polytope import _canonical_halfspace
from parallo.scaling import MismatchWitness


def hull_counts(points) -> tuple[int, int]:
    """(n_vertices, n_facets) from floating-point qhull."""
    arr = np.array([[float(x) for x in p] for p in points], dtype=float)
    hull = ConvexHull(arr)
    # qhull reports simplicial facets; merge coplanar ones by hyperplane
    planes = set()
    for eq in np.round(hull.equations, 9):
        planes.add(tuple(eq))
    return len(hull.vertices), len(planes)


def exhaustive_coset_minimizers(basis, gram, parity, box=3):
    """Minimal positive vectors of a 2L-coset by brute coefficient sweep
    over 2 k + parity with |k_i| <= box (or box[i], per coefficient)."""
    d = len(basis)
    basis_t, gram = linalg.transpose(linalg.mat(basis)), linalg.mat(gram)
    bounds = [box] * d if isinstance(box, int) else box
    best = None
    found = []
    for k in product(*(range(-b, b + 1) for b in bounds)):
        coeffs = [2 * kk + pp for kk, pp in zip(k, parity)]
        v = linalg.matvec(basis_t, linalg.vec(coeffs))
        n = linalg.dot(v, linalg.matvec(gram, v))
        if n == 0:
            continue
        if best is None or n < best:
            best = n
            found = [v]
        elif n == best:
            found.append(v)
    return sorted(found)


def random_unimodular(rng, d: int, steps: int = 5):
    """Integer matrix with determinant +-1 from elementary row operations."""
    m = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-1, 1])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(d), 2)
        m[i], m[j] = m[j], m[i]
    return tuple(tuple(row) for row in m)


def facet_image_map(p, q, a, shift):
    """Facet index map of p -> q under the affine bijection x -> a x + shift."""
    a = linalg.mat(a)
    shift = linalg.vec(shift)
    image_sets = []
    for ids in p.facet_vertex_ids:
        img = frozenset(
            linalg.vadd(linalg.matvec(a, p.vertices[i]), shift) for i in ids
        )
        image_sets.append(img)
    q_sets = {
        frozenset(q.vertices[i] for i in ids): fi
        for fi, ids in enumerate(q.facet_vertex_ids)
    }
    return [q_sets[s] for s in image_sets]


def ridge_image_map(para_p, para_q, a, shift):
    """Ridge index map between parallelohedra under an affine bijection."""
    a = linalg.mat(a)
    shift = linalg.vec(shift)
    q_ids = {
        frozenset(r.vertex_ids): i for i, r in enumerate(para_q.ridges)
    }
    q_vertex = {v: i for i, v in enumerate(para_q.polytope.vertices)}
    out = []
    for r in para_p.ridges:
        img = frozenset(
            q_vertex[linalg.vadd(linalg.matvec(a, para_p.polytope.vertices[i]), shift)]
            for i in r.vertex_ids
        )
        out.append(q_ids[img])
    return out


def dual_cell_centers(para, faces):
    """Per face, the translates t whose cell P + t contains it, by testing
    each vertex of the face against each t in the ball of twice the
    circumradius."""
    p = para.polytope
    ball = vectors_in_ball(para.lattice, 4 * p.circumradius_sq)
    out = []
    for face in faces:
        pts = [p.vertices[i] for i in face.vertex_ids]
        out.append(tuple(sorted(
            t for t in ball if all(p.contains(linalg.vsub(v, t)) for v in pts)
        )))
    return out


def fraction_rank(m) -> int:
    """Rank as the number of pivots of the Fraction RREF."""
    return len(linalg.rref(m)[1])


def fraction_det(m) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row swaps."""
    n = len(m)
    rows = [list(r) for r in m]
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def _fraction_affine_rank(points) -> int:
    if not points:
        return -1
    p0 = points[0]
    return fraction_rank(tuple(linalg.vsub(p, p0) for p in points[1:]))


def _hyperplane_through(points, dim):
    """Unique hyperplane <n, x> = b through the points, or None."""
    rows = tuple(p + (Fraction(-1),) for p in points)
    kernel = linalg.nullspace(rows)
    if len(kernel) != 1:
        return None
    nb = kernel[0]
    normal, offset = nb[:dim], nb[dim]
    if all(x == 0 for x in normal):
        return None
    return normal, offset


def fraction_facets_from_points(points, dim):
    """Facet halfspaces of a full-dimensional point set: a Fraction
    kernel per d-subset and a side test against every point."""
    candidates = {}
    for subset in combinations(range(len(points)), dim):
        hp = _hyperplane_through([points[i] for i in subset], dim)
        if hp is None:
            continue
        normal, offset = hp
        vals = [linalg.dot(normal, p) - offset for p in points]
        if all(v <= 0 for v in vals):
            pass
        elif all(v >= 0 for v in vals):
            normal, offset = linalg.vneg(normal), -offset
        else:
            continue
        candidates[_canonical_halfspace(normal, offset)] = None
    facets = []
    for normal, offset in candidates:
        on = [p for p in points if linalg.dot(normal, p) == offset]
        if _fraction_affine_rank(on) == dim - 1:
            facets.append((normal, offset))
    return sorted(facets)


def fraction_vertices_from_halfspaces(halfspaces, dim):
    """Sorted vertices of a bounded halfspace intersection: a Fraction
    solve per d-subset of the canonical planes, kept when feasible."""
    planes = sorted({
        _canonical_halfspace(linalg.vec(n), linalg.frac(b)): None
        for n, b in halfspaces
    })
    vertices = set()
    for subset in combinations(planes, dim):
        a = tuple(n for n, _ in subset)
        b = tuple(off for _, off in subset)
        x = linalg.solve_linear(a, b)
        if x is None:
            continue
        if all(linalg.dot(n, x) <= off for n, off in planes):
            vertices.add(x)
    return sorted(vertices)


def fraction_extreme_rays(rows):
    """Sorted extreme rays of the pointed cone {y : <a, y> >= 0} as
    primitive integer tuples: the one-dimensional Fraction kernel of each
    (D - 1)-subset of rows, kept with the sign that satisfies every row."""
    dim = len(rows[0])
    rays = set()
    for subset in combinations(rows, dim - 1):
        kernel = linalg.nullspace(linalg.mat(subset))
        if len(kernel) != 1:
            continue
        for ray in (kernel[0], linalg.vneg(kernel[0])):
            if all(linalg.dot(linalg.vec(a), ray) >= 0 for a in rows):
                rays.add(tuple(int(x) for x in ray))
    return sorted(rays)


def _integer_interval(c, b):
    """All integers k with (k - c)^2 <= b, for rationals c and b."""
    if b < 0:
        return range(0, 0)
    c, b = Fraction(c), Fraction(b)
    p, q = c.numerator, c.denominator
    u, w = b.numerator, b.denominator
    n = math.isqrt(q * q * u * w)  # floor(q * sqrt(u * w))
    return range(-((n - p * w) // (q * w)), (p * w + n) // (q * w) + 1)


def coefficient_box(lat, r2, center, parity=None):
    """Integer ranges per coefficient covering {k : Q(k - center) <= r2}:
    (k_i - c_i)^2 <= r2 (Q^-1)_ii by Cauchy-Schwarz in the Q-inner
    product, stepped by 2 from the residue `parity` when given."""
    inv = linalg.inverse(lat.coefficient_form)
    axes = [_integer_interval(c, inv[i][i] * r2) for i, c in enumerate(center)]
    if parity is not None:
        axes = [r[(p - r.start) % 2::2] for p, r in zip(parity, axes)]
    return axes


def box_vectors_in_ball(lat, r2, around=None, parity=None):
    """All lattice vectors within Q-distance r2 of `around`, sorted, by a
    Fraction sweep over the whole coefficient box."""
    d = lat.dim
    basis_t = linalg.transpose(lat.basis)
    center = (linalg.zeros(d) if around is None
              else linalg.solve_linear(basis_t, linalg.vec(around)))
    q = lat.coefficient_form
    out = []
    for k in product(*coefficient_box(lat, r2, center, parity)):
        x = linalg.vsub(linalg.vec(k), center)
        if linalg.dot(x, linalg.matvec(q, x)) <= r2:
            out.append(linalg.matvec(basis_t, linalg.vec(k)))
    return sorted(out)


def fraction_voronoi_mismatch(para, lattice):
    """The witness `scaling.voronoi_mismatch` must return, by `Fraction`
    dot products: the first facet that is not the G-bisector of its
    facet vector, else the first (vertex, lattice vector) pair, vertex by
    vertex over the sorted box ball of 4 max |x|^2, whose bisector cuts
    the vertex off, else None."""
    p = para.polytope
    for fi, (t, n, b) in enumerate(zip(para.facet_vectors, p.facet_normals,
                                       p.facet_offsets)):
        g = linalg.matvec(lattice.gram, t)
        lead = next(i for i, x in enumerate(n) if x != 0)
        lam = g[lead] / n[lead]
        if (lam <= 0 or g != linalg.vscale(lam, n)
                or lattice.norm_sq(t) != 2 * lam * b):
            return MismatchWitness("facet", facet=fi)
    r2 = max(lattice.norm_sq(x) for x in p.vertices)
    ball = box_vectors_in_ball(lattice, 4 * r2)
    for x in p.vertices:
        for v in ball:
            if 2 * lattice.inner(x, v) > lattice.norm_sq(v):
                return MismatchWitness("cut", lattice_vector=v, vertex=x)
    return None
