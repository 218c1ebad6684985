"""Independent oracles the tests check the exact code against.

These deliberately avoid the library's own code paths: hulls come from
scipy's floating-point qhull, lattice minima from a plain exhaustive
coefficient sweep, lattice balls from a `Fraction` sweep over the
coefficient box that bounds each coefficient by the diagonal of Q^-1,
the Voronoi-cell inequalities from `Fraction` dot products over that
ball, dual cells from a per-face sweep over translates, dual 3-cell
hulls from `Fraction` coordinates in each cell's own affine hull, the
translate table from a sweep over the whole ball, tilings from counting
the translates that cover a point, unimodular maps from explicit
elementary operations, the fraction-free eliminations
(rank, det, kernels, solutions, inverses, the positive-definite test,
the LDL^T of a lattice, both hull directions) from the plain `Fraction`
eliminations they replaced, the facets of a face and the faces above
it from subset scans over vertex sets, a face's dimension from the
`Fraction` affine rank of its vertices, every face (down to the empty
face, graded in a second pass) from the full intersection closure of
the facets, a point hull's vertices from the rank of the facets
through each point, the extreme rays of a cone from a `Fraction`
kernel per (D - 1)-subset of its rows, the gains of a
6-belt from one `Fraction` kernel per primitive ridge, the ridge-graph
components from a depth-first search over those ridges, the half-belt
span and the surface components from the compact cut model that the
dual-block complex replaced, the point reflections of the Venkov
checks from the `Fraction` centroid of each point set, the belts from a
walk out of every ridge, and the vertex-facet incidences of a hull from
a dot product per vertex and facet.

It also holds the helpers only the tests read: vector arithmetic
(`zeros`, `vsub`, `vscale`), the rank of a rational matrix (the pivots
of one fraction-free elimination), a lattice vector from its coefficients,
the image of a polytope under an affine map, its halfspace list, the
exact matrix inverse, and the neighbours and walk products of a
ridge-gain table.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from operator import mul

from parallo import linalg
from parallo.errors import GeometryError, UnsupportedDimensionError
from parallo.lattice import vectors_in_ball
from parallo.polytope import (
    Face,
    FaceLattice,
    Polytope,
    _bits,
)
from parallo.scaling import build_ridge_graph
from parallo.topology import (
    _require_cycles,
    _require_d3,
    _sparse,
    face_walk,
)
from parallo.venkov import (
    _BeltWalkError,
    _failed,
    _involution,
    _walk_belt,
    _witness,
)


def _dense(col: dict[int, int], n: int) -> tuple[int, ...]:
    """A sparse integer column as a dense tuple of length n."""
    return tuple(col.get(i, 0) for i in range(n))


def hull_counts(points) -> tuple[int, int]:
    """(n_vertices, n_facets) from floating-point qhull."""
    import numpy as np
    from scipy.spatial import ConvexHull

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


def central_symmetry(points) -> tuple[bool, tuple]:
    """Whether a point set is invariant under reflection in its
    `Fraction` centroid, and the centroid."""
    n = len(points)
    c = tuple(sum(col, Fraction(0)) / n for col in zip(*points))
    mirrored = {tuple(2 * ci - xi for ci, xi in zip(c, p)) for p in points}
    return mirrored == set(points), c


def per_ridge_analyze(p):
    """`venkov._analyze` with a belt walk out of every ridge that no good
    belt holds, so a belt of the wrong length is walked once per ridge;
    the centre and the facet vectors come from `Fraction` centroids."""
    if p.dim < 2:
        raise UnsupportedDimensionError(f"dimension {p.dim} is not supported")
    symmetric, center = central_symmetry(p.vertices)
    if not symmetric:
        return _failed(p, [_witness("central-symmetry",
                                    "vertex set is not centrally symmetric")])
    if any(center):
        p = p.translated(linalg.vneg(center))
    rows, _ = linalg.integer_rows(p.vertices)
    witnesses, mirrors, facet_vectors = [], [], []
    for fi, ids in enumerate(p.facet_vertex_ids):
        image, _ = _involution([rows[i] for i in ids])
        if image is None:
            witnesses.append(_witness(
                "facet-symmetry", f"facet {fi} is not centrally symmetric", ids))
            continue
        mirrors.append({i: ids[k] for i, k in zip(ids, image)})
        _, c = central_symmetry([p.vertices[i] for i in ids])
        facet_vectors.append(vscale(2, c))
    if witnesses:
        return _failed(p, witnesses)
    ridges = p.face_lattice.faces(p.dim - 2)
    ridge_ids_by_key = {r.vertex_ids: i for i, r in enumerate(ridges)}
    belts, in_belt = [], set()
    for rid in range(len(ridges)):
        if rid in in_belt:
            continue
        try:
            belt = _walk_belt(ridges, ridge_ids_by_key, mirrors, rid)
        except _BeltWalkError as exc:
            witnesses.append(_witness("belt", exc.detail, exc.face_ids))
            continue
        if belt.length not in (4, 6):
            witnesses.append(_witness(
                "belt",
                f"belt through ridge {rid} has length {belt.length}, expected 4 or 6",
                ridges[rid].vertex_ids))
            continue
        in_belt.update(belt.ridges)
        belts.append(belt)
    if witnesses:
        return _failed(p, witnesses)
    return {"ok": True, "witnesses": []}, p, tuple(belts), tuple(facet_vectors)


def dot_product_facet_vertex_ids(p) -> tuple[tuple[int, ...], ...]:
    """Per facet, the vertices on it, by an integer dot product of every
    vertex with every facet."""
    rows, _, normals, _, offsets = p.integer_form
    return tuple(
        tuple(i for i, v in enumerate(rows) if sum(map(mul, n, v)) == b)
        for n, b in zip(normals, offsets))


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


def circumradius_sq(p):
    """The largest squared Euclidean norm of a vertex of p."""
    return max(linalg.dot(v, v) for v in p.vertices)


def dual_cell_centers(para, faces):
    """Per face, the translates t whose cell P + t contains it, by testing
    each vertex of the face against each t in the ball of twice the
    circumradius: v - t lies in P when <n, t> >= <n, v> - b on every
    facet (n, b), with both dot products in `Fraction`s."""
    p = para.polytope
    ball = vectors_in_ball(para.lattice, 4 * circumradius_sq(p))
    planes = [([linalg.dot(n, v) - b for v in p.vertices],
               [linalg.dot(n, t) for t in ball])
              for n, b in zip(p.facet_normals, p.facet_offsets)]
    holding = [frozenset(t for j, t in enumerate(ball)
                         if all(nt[j] >= low[i] for low, nt in planes))
               for i in range(p.n_vertices)]
    return [tuple(sorted(frozenset.intersection(
        *(holding[i] for i in face.vertex_ids)))) for face in faces]


def affine_hull_polytope(points):
    """Hull of points in coordinates of their own affine hull, by
    `Fraction` solves on a greedy basis of differences.

    Returns (polytope, rank, origin, basis_rows): the polytope lives in
    R^rank; basis rows map its coordinates back via origin + c . basis.
    """
    pts = sorted(set(points))
    p0 = pts[0]
    basis = []
    for p in pts[1:]:
        d = vsub(p, p0)
        if rank(tuple(basis) + (d,)) > len(basis):
            basis.append(d)
    k = len(basis)
    if k == 0:
        raise GeometryError("a single point has no hull")
    bt = linalg.transpose(tuple(basis))
    coords = [linalg.solve_linear(bt, vsub(p, p0)) for p in pts]
    return Polytope.from_vertices(coords), k, p0, tuple(basis)


def dual3_signature(centers):
    """(affine rank, hull signature) of a dual cell's centers, from the
    hull in affine-hull coordinates; the signature is None below rank 3."""
    if len(centers) < 2:
        return 0, None
    hull, k, _, _ = affine_hull_polytope(centers)
    if k != 3:
        return k, None
    return k, (hull.n_vertices,
               tuple(sorted(len(ids) for ids in hull.facet_vertex_ids)))


def ball_tile_members(para):
    """The tiles P + t that meet P, by a sweep over the whole ball of
    twice the circumradius: per t, the ids of the vertices v
    with v - t in P, from every facet inequality of every (v, t) pair.

    The points and the facets are each brought to integers by one common
    denominator, so the comparisons are exact, and numpy makes them one
    array operation per ball vector (A5* has 893 ball vectors and 720
    vertices)."""
    import numpy as np

    def scaled(rows):
        den = math.lcm(*(x.denominator for r in rows for x in r))
        ints = [[int(x * den) for x in r] for r in rows]
        if max(abs(x) for r in ints for x in r) >= 2 ** 20:
            raise OverflowError("int64 dot products could overflow")
        return np.array(ints, dtype=np.int64), den

    p = para.polytope
    ball = vectors_in_ball(para.lattice, 4 * circumradius_sq(p))
    xs, den_x = scaled([*p.vertices, *ball])
    nb, _ = scaled([(*n, b) for n, b in zip(p.facet_normals, p.facet_offsets)])
    # <n, x> <= b  iff  <N, X> <= den_x B, with (N, B) = den_n (n, b), X = den_x x
    dots = xs @ nb[:, :-1].T
    heights, shifts = dots[:len(p.vertices)], dots[len(p.vertices):]
    caps = den_x * nb[:, -1]
    out = {}
    for t, shift in zip(ball, shifts):
        inside = np.all(heights - shift <= caps, axis=1)
        if inside.any():
            out[t] = frozenset(int(i) for i in np.flatnonzero(inside))
    return out


def covering_counts(lat, cell, x) -> tuple[int, int]:
    """(closed, interior) counts of the lattice translates cell + t that
    contain x."""
    x = linalg.vec(x)
    r2 = max(lat.norm_sq(v) for v in cell.vertices)
    closed = interior = 0
    for t in box_vectors_in_ball(lat, r2, around=x):
        p = vsub(x, t)
        if contains(cell, p):
            closed += 1
            if all(linalg.dot(n, p) < b
                   for n, b in zip(cell.facet_normals, cell.facet_offsets)):
                interior += 1
    return closed, interior


def walk_closed(walk) -> bool:
    """Does a facet walk of at least one step end where it starts?"""
    return len(walk) > 1 and walk[0] == walk[-1]


def contains(p, point) -> bool:
    """Whether the polytope holds the point, by `Fraction` dot products."""
    return all(linalg.dot(n, point) <= b
               for n, b in zip(p.facet_normals, p.facet_offsets))


# -- gains per ridge and the gain lemmas ------------------------------------


def ridge_dependence(para, ridge_id: int, normal_scale=None):
    """Normals of the three tiling facets at a primitive ridge and the
    unique dependence among them, by one `Fraction` kernel per ridge.

    Returns (n1, n2, n3, alpha, (f1, f2, f3)): f1, f2 are the two facets
    of the polytope containing the ridge (in belt order), f3 the belt
    successor whose translate supplies the third tiling facet. alpha is
    the kernel vector normalized to integer content 1.

    `normal_scale` optionally rescales each facet's canonical normal by
    a positive rational (index -> factor); gains of closed walks are
    invariant under this.
    """
    belt, pos = next((b, b.ridges.index(ridge_id)) for b in para.belts
                     if ridge_id in b.ridges)
    if belt.length != 6:
        raise GeometryError(f"ridge {ridge_id} is not primitive (belt length 4)")
    m = belt.length
    f1, f2 = belt.facets[pos], belt.facets[(pos + 1) % m]
    f3 = belt.facets[(pos + 2) % m]
    t1, t2 = para.facet_vectors[f1], para.facet_vectors[f2]
    t3 = para.facet_vectors[f3]
    diff = vsub(t1, t2)
    if diff != t3 and diff != linalg.vneg(t3):
        raise GeometryError(
            "belt successor does not carry the neighbor-difference direction"
        )

    def normal(fi):
        n = para.polytope.facet_normals[fi]
        if normal_scale is not None and fi in normal_scale:
            factor = linalg.frac(normal_scale[fi])
            if factor <= 0:
                raise ValueError("normal rescaling must be positive")
            n = vscale(factor, n)
        return n

    n1, n2, n3 = normal(f1), normal(f2), normal(f3)
    kernel = fraction_nullspace(linalg.transpose((n1, n2, n3)))
    if len(kernel) != 1:
        raise GeometryError(
            "normals at the ridge do not have a unique linear dependence"
        )
    alpha = kernel[0]
    if any(a == 0 for a in alpha):
        raise GeometryError("degenerate dependence at a primitive ridge")
    return n1, n2, n3, alpha, (f1, f2, f3)


def per_ridge_graph(para, normal_scale=None) -> dict:
    """The gains of `build_ridge_graph`, each read off its ridge's own
    `ridge_dependence`, optionally on rescaled normals, and oriented from
    `ridge_facets[r][0]` to `ridge_facets[r][1]`."""
    gains = {}
    for rid in range(len(para.ridges)):
        if rid not in para.primitive_ridges:
            continue
        _, _, _, alpha, (f1, f2, _) = ridge_dependence(para, rid, normal_scale)
        gain = abs(alpha[1] / alpha[0])
        gains[rid] = gain if para.ridge_facets[rid][0] == f1 else 1 / gain
    return gains


def ridge_neighbors(para, gains) -> dict:
    """Per facet its neighbour facets across the ridges of `gains`,
    sorted."""
    neighbors = {f: [] for f in range(para.polytope.n_facets)}
    for rid in gains:
        a, b = para.ridge_facets[rid]
        neighbors[a].append(b)
        neighbors[b].append(a)
    return {f: sorted(ns) for f, ns in neighbors.items()}


def walk_ridges(para, walk) -> list[int]:
    """The ridge crossed at each step of a facet walk: the one between
    consecutive facets f and g, `ridge_of[min(f, g), max(f, g)]`."""
    ridges = []
    for f, g in zip(walk, walk[1:]):
        rid = para.ridge_of.get((min(f, g), max(f, g)))
        if rid is None:
            raise GeometryError(f"facets {f} and {g} share no ridge")
        ridges.append(rid)
    return ridges


def walk_gain(para, gains, walk) -> Fraction:
    """Product of the directed gains along a facet walk: a ridge's gain
    from `ridge_facets[r][0]` to `ridge_facets[r][1]`, its inverse the
    other way."""
    total = Fraction(1)
    for f, rid in zip(walk, walk_ridges(para, walk)):
        if rid not in gains:
            raise GeometryError(f"ridge {rid} is not primitive")
        total *= gains[rid] if f == para.ridge_facets[rid][0] else 1 / gains[rid]
    return total


def ridge_graph_components(para) -> int:
    """The number of components of the graph on the facets whose edges
    are the primitive ridges of `per_ridge_graph`, by depth-first search."""
    neighbors = ridge_neighbors(para, per_ridge_graph(para))
    seen, count = set(), 0
    for f in neighbors:
        if f in seen:
            continue
        count += 1
        seen.add(f)
        stack = [f]
        while stack:
            for g in neighbors[stack.pop()]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return count


class LocalCycleCheck(namedtuple("LocalCycleCheck",
                                 "face_vertex_ids skipped reason walk product")):
    """Gain product around a codim-3 face, or the reason it was skipped."""

    __slots__ = ()


def local_cycle_check(para, face, gains=None) -> LocalCycleCheck:
    """Product of gains around a codim-3 face whose ridges are all primitive."""
    walk = face_walk(para, face)
    if walk is None:
        return LocalCycleCheck(
            face.vertex_ids, True,
            "face lies on a non-primitive ridge", None, None,
        )
    if gains is None:
        gains = build_ridge_graph(para)
    return LocalCycleCheck(
        face.vertex_ids, False, None, walk, walk_gain(para, gains, walk)
    )


def half_belt_check(para, gains, belt) -> Fraction:
    """Gain product over three consecutive edges of a 6-belt (expect 1)."""
    if belt.length != 6:
        raise GeometryError("half-belt products need a belt of length 6")
    return walk_gain(para, gains, belt.facets[:4])


# -- k-irreducibility ---------------------------------------------------------


def tiling_facet_normals_at(para, face) -> list:
    """Normals (up to sign) of all tiling facets containing the face."""
    centers = para.centers(para.dual_cell(face))
    vec_to_facet = {t: i for i, t in enumerate(para.facet_vectors)}
    lines = set()
    for t1 in centers:
        for t2 in centers:
            if t1 == t2:
                continue
            fi = vec_to_facet.get(vsub(t2, t1))
            if fi is not None:
                n = para.polytope.facet_normals[fi]
                lines.add(max(fraction_primitive(n),
                              fraction_primitive(linalg.vneg(n))))
    return sorted(lines)


def is_k_irreducible(para, k: int):
    """No codim-k face splits its tiling-facet normals into two subsets
    with linearly independent spans. Returns (bool, witness)."""
    if k <= 1:
        raise ValueError("irreducibility is defined for k > 1")
    for face in para.polytope.face_lattice.faces(para.dim - k):
        lines = tiling_facet_normals_at(para, face)
        m = len(lines)
        total = rank(tuple(lines))
        for mask in range(1, 2 ** (m - 1)):
            n1 = [lines[i] for i in range(m) if mask >> i & 1]
            n2 = [lines[i] for i in range(m) if not mask >> i & 1]
            if rank(tuple(n1)) + rank(tuple(n2)) == total:
                return False, (face, tuple(n1), tuple(n2))
    return True, None


def fraction_rref(m):
    """Reduced row echelon form by Fraction Gauss-Jordan elimination, and
    the pivot column indices."""
    rows = [[Fraction(x) for x in r] for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def fraction_rank(m) -> int:
    """Rank as the number of pivots of the Fraction RREF."""
    return len(fraction_rref(m)[1])


def fraction_primitive(v):
    """The primitive integer vector, as Fractions, in the direction of a
    nonzero rational vector."""
    den = math.lcm(*(x.denominator for x in v))
    g = math.gcd(*(int(x * den) for x in v))
    return tuple(x * Fraction(den, g) for x in v)


def fraction_canonical_halfspace(normal, offset):
    """The halfspace <normal, x> <= offset, scaled so that its normal is
    the primitive integer vector in the same direction."""
    prim = fraction_primitive(normal)
    scale = next(p / n for p, n in zip(prim, normal) if n)
    return prim, offset * scale


def fraction_nullspace(m):
    """Kernel basis from the Fraction RREF, one vector per free column,
    scaled to coprime integers with a positive leading entry."""
    if not m:
        return []
    nc = len(m[0])
    r, pivots = fraction_rref(m)
    basis = []
    for fc in range(nc):
        if fc in pivots:
            continue
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        basis.append(tuple(Fraction(sign * x // g) for x in ints))
    return basis


def fraction_solve(a, b):
    """The unique solution of a x = b from the Fraction RREF of [a | b],
    or None when there is none or more than one."""
    if not a:
        return ()
    nc = len(a[0])
    r, pivots = fraction_rref([tuple(row) + (bi,) for row, bi in zip(a, b)])
    if pivots != list(range(nc)):
        return None
    return tuple(r[i][nc] for i in range(nc))


def fraction_inverse(m):
    """Inverse from the Fraction RREF of [m | I]; None when singular."""
    n = len(m)
    r, pivots = fraction_rref([tuple(row) + tuple(Fraction(int(i == j)) for j in range(n))
                               for i, row in enumerate(m)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in r)


def sylvester_positive_definite(s) -> bool:
    """Every leading principal minor positive, each by `fraction_det`."""
    return all(fraction_det([row[:k] for row in s[:k]]) > 0
               for k in range(1, len(s) + 1))


def fraction_ldl(q):
    """Q = U^T D U by the Fraction recurrence: U unit upper triangular
    as rows, and the diagonal of D."""
    d = len(q)
    u = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    diag = []
    for i in range(d):
        diag.append(q[i][i] - sum(diag[k] * u[k][i] ** 2 for k in range(i)))
        for j in range(i + 1, d):
            u[i][j] = (q[i][j] - sum(diag[k] * u[k][i] * u[k][j]
                                     for k in range(i))) / diag[i]
    return u, diag


def reduced_form(lat):
    """U Q U^T by Fractions, for the coefficient form Q of `lat` and the
    unimodular rows U of its LLL reduction (`Lattice._reduction`)."""
    u, *_ = lat._reduction
    q = lat.coefficient_form
    return [[sum(a * q[i][j] * b for i, a in enumerate(x) for j, b in enumerate(y))
             for y in u] for x in u]


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


def fraction_affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 for empty)."""
    if not points:
        return -1
    p0 = points[0]
    return fraction_rank(tuple(vsub(p, p0) for p in points[1:]))


def scanned_face_facets(p, vertex_ids) -> tuple[int, ...]:
    """Ids of the facets whose vertex sets hold the given vertex ids, by a
    subset scan over every facet."""
    return tuple(i for i, ids in enumerate(p.facet_vertex_ids)
                 if set(vertex_ids) <= set(ids))


def scanned_superfaces(lattice, face, dim) -> list[int]:
    """Indices of the dim-faces whose vertex sets hold the face's."""
    return [i for i, g in enumerate(lattice.faces(dim))
            if set(face.vertex_ids) <= set(g.vertex_ids)]


def full_face_lattice(p) -> FaceLattice:
    """Every face, from the empty face (-1) up to p itself (d), by the
    intersection closure of the facet vertex sets walked down from p; a
    face's grade is one more than the largest grade of its cuts by the
    facets that meet it without containing it."""
    facet_masks = [sum(1 << i for i in ids) for ids in p.facet_vertex_ids]
    through = [0] * p.n_vertices  # per vertex, the bit set of its facets
    for f, ids in enumerate(p.facet_vertex_ids):
        for i in ids:
            through[i] |= 1 << f
    # per face: its vertex ids, the facets containing it, and the
    # facets that meet it without containing it. Every face below it
    # is an intersection with one of the latter, so the closure walks
    # down from the whole polytope through those alone.
    every = (1 << p.n_facets) - 1
    found = {0: ((), every, 0)}
    frontier = {(1 << p.n_vertices) - 1}
    while frontier:
        below = set()
        for vs in frontier:
            ids = tuple(_bits(vs))
            on, near = every, 0
            for i in ids:
                on &= through[i]
                near |= through[i]
            meeting = near & ~on
            found[vs] = ids, on, meeting
            below.update(vs & facet_masks[f] for f in _bits(meeting))
        frontier = below.difference(found)
    # a proper face has fewer vertices, so it is graded first; any
    # other facet meets a nonempty face in the empty face
    grade = {0: -1}
    by_dim = {-1: [Face(-1, (), tuple(range(p.n_facets)))]}
    for vs in sorted(found, key=int.bit_count)[1:]:
        ids, on, meeting = found[vs]
        dim = grade[vs] = 1 + max(
            (grade[vs & facet_masks[f]] for f in _bits(meeting)), default=-1)
        by_dim.setdefault(dim, []).append(Face(dim, ids, tuple(_bits(on))))
    return FaceLattice(
        {
            dim: tuple(sorted(fs, key=lambda f: f.vertex_ids))
            for dim, fs in by_dim.items()
        }
    )


def f_vector(p) -> tuple[int, ...]:
    """Face counts for dimensions 0 .. d-1, from the full face lattice."""
    lattice = full_face_lattice(p)
    return tuple(len(lattice.faces(k)) for k in range(p.dim))


def _hyperplane_through(points, dim):
    """Unique hyperplane <n, x> = b through the points, or None."""
    rows = tuple(p + (Fraction(-1),) for p in points)
    kernel = fraction_nullspace(rows)
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
        candidates[fraction_canonical_halfspace(normal, offset)] = None
    facets = []
    for normal, offset in candidates:
        on = [p for p in points if linalg.dot(normal, p) == offset]
        if fraction_affine_rank(on) == dim - 1:
            facets.append((normal, offset))
    return sorted(facets)


def fraction_point_vertices(points, facets):
    """Sorted distinct points of a full-dimensional set at which the
    normals of the facets through the point have full rank."""
    dim = len(points[0])
    return sorted(p for p in set(points) if fraction_rank(
        [n for n, b in facets if linalg.dot(n, p) == b]) == dim)


def fraction_vertices_from_halfspaces(halfspaces, dim):
    """Sorted vertices of a bounded halfspace intersection: a Fraction
    solve per d-subset of the canonical planes, kept when feasible."""
    planes = sorted({
        fraction_canonical_halfspace(linalg.vec(n), linalg.frac(b)): None
        for n, b in halfspaces
    })
    vertices = set()
    for subset in combinations(planes, dim):
        a = tuple(n for n, _ in subset)
        b = tuple(off for _, off in subset)
        x = fraction_solve(a, b)
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
        kernel = fraction_nullspace(linalg.mat(subset))
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
    inv = fraction_inverse(lat.coefficient_form)
    axes = [_integer_interval(c, inv[i][i] * r2) for i, c in enumerate(center)]
    if parity is not None:
        axes = [r[(p - r.start) % 2::2] for p, r in zip(parity, axes)]
    return axes


def box_vectors_in_ball(lat, r2, around=None, parity=None):
    """All lattice vectors within Q-distance r2 of `around`, sorted, by a
    Fraction sweep over the whole coefficient box."""
    d = lat.dim
    basis_t = linalg.transpose(lat.basis)
    center = (zeros(d) if around is None
              else fraction_solve(basis_t, linalg.vec(around)))
    q = lat.coefficient_form
    out = []
    for k in product(*coefficient_box(lat, r2, center, parity)):
        x = vsub(linalg.vec(k), center)
        if linalg.dot(x, linalg.matvec(q, x)) <= r2:
            out.append(linalg.matvec(basis_t, linalg.vec(k)))
    return sorted(out)


def fraction_voronoi_mismatch(para, lattice):
    """The witness of the Voronoi proof by `Fraction` dot products, read
    off the whole G-ball of `lattice` rather than the relevant vectors
    `scaling.voronoi_mismatch` sweeps: the first facet that is not the
    G-bisector of its facet vector, else the first (vertex, lattice
    vector) pair, vertex by vertex over the sorted box ball of
    4 max |x|^2, whose bisector cuts the vertex off, else None."""
    p = para.polytope
    for fi, (t, n, b) in enumerate(zip(para.facet_vectors, p.facet_normals,
                                       p.facet_offsets)):
        g = linalg.matvec(lattice.gram, t)
        lead = next(i for i, x in enumerate(n) if x != 0)
        lam = g[lead] / n[lead]
        if (lam <= 0 or g != vscale(lam, n)
                or lattice.norm_sq(t) != 2 * lam * b):
            return {"kind": "facet", "facet": fi}
    r2 = max(lattice.norm_sq(x) for x in p.vertices)
    ball = box_vectors_in_ball(lattice, 4 * r2)
    for x in p.vertices:
        for v in ball:
            if 2 * lattice.inner(x, v) > lattice.norm_sq(v):
                return {"kind": "cut", "lattice_vector": v, "vertex": x}
    return None


# -- the compact cut model of the half-belt span ------------------------
#
# Cut the boundary sphere along the removed edge graph (removed edges are
# doubled, vertices split into corners, so the cut locus becomes boundary
# circles), then subdivide every facet into sectors around a center
# vertex with edge midpoints. A facet-to-facet step across a primitive
# ridge is the two-spoke path center -> midpoint -> center, so half-belt
# walks become cellular 1-cycles of this compact homotopy-equivalent
# model of the delta-surface (or, quotiented, of the pi-surface).


def _antipodal_maps(para):
    """Vertex, edge and facet involutions induced by x -> -x, the edge
    map read off the negated vertices."""
    p = para.polytope
    index = {v: i for i, v in enumerate(p.vertices)}
    vmap = {i: index[linalg.vneg(v)] for i, v in enumerate(p.vertices)}
    ridge_ids = {r.vertex_ids: i for i, r in enumerate(para.ridges)}
    emap = {i: ridge_ids[tuple(sorted(vmap[x] for x in r.vertex_ids))]
            for i, r in enumerate(para.ridges)}
    return vmap, emap, dict(enumerate(para.opposite_facet))


def _facet_cycles(para):
    """Per facet: vertex ids and edge ids in boundary-cycle order."""
    edge_ids = {r.vertex_ids: i for i, r in enumerate(para.ridges)}
    return [
        (vs, tuple(edge_ids[tuple(sorted(pair))]
                   for pair in zip(vs, vs[1:] + vs[:1])))
        for vs in para.polytope.facet_cycles
    ]


def _vertex_fans(para, facet_cycles):
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


class CutComplex:
    """Compact surface-with-boundary model of the delta-surface (d = 3)."""

    def __init__(self, para):
        _require_d3(para)
        self.para = para
        p = para.polytope
        self.removed = set(range(len(para.ridges))) - para.primitive_ridges
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


class ChainComplex:
    """Exact boundary matrices of the subdivided cut model (or its quotient)."""

    def __init__(self, cut: CutComplex, quotient: bool):
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
    def b2_chains(self) -> tuple:
        """The boundary of each 2-cell as a dense 1-chain."""
        return tuple(_dense(c, len(self.one_keys)) for c in self.b2_cols)

    @cached_property
    def rank_b2(self) -> int:
        return rank(self.b2_chains)

    @cached_property
    def rank_b1(self) -> int:
        n0 = len(self.v_ids)
        return rank(tuple(_dense(c, n0) for c in self.b1_cols))

    @property
    def h0_rank(self) -> int:
        """The number of components of the model."""
        return len(self.v_ids) - self.rank_b1

    @property
    def h1_rank(self) -> int:
        return len(self.one_keys) - self.rank_b1 - self.rank_b2

    def project_chain(self, terms) -> dict[int, int]:
        """Map [(coeff, delta 1-cell key)] to a sparse 1-chain of this complex."""
        out = []
        for coeff, key in terms:
            sign, rep = self.proj1[key]
            out.append((self.one_ids[rep], coeff * sign))
        return _sparse(out)


def cut_half_belt_cycles(para, chain: ChainComplex) -> list:
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


def cut_half_belt_span(para) -> dict:
    """The half-belt span of `topology.surface_topology` on the quotient
    cut model."""
    _require_d3(para)
    chain = ChainComplex(CutComplex(para), quotient=True)
    cycles = cut_half_belt_cycles(para, chain)
    h1 = chain.h1_rank
    span = 0
    if cycles:
        span = rank(chain.b2_chains + tuple(cycles)) - chain.rank_b2
    return {"h1_rank": h1, "span_rank": span, "spanned": span == h1,
            "cycles": len(cycles)}


# -- helpers only the tests read ----------------------------------------


def zeros(n: int):
    return (Fraction(0),) * n


def rank(m) -> int:
    return len(linalg._bareiss(linalg.integer_rows(m)[0])[0])


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a):
    c = linalg.frac(c)
    return tuple(c * x for x in a)


def from_coefficients(lat, coeffs):
    """The lattice vector with the given coefficients in `lat`'s basis."""
    return linalg.matvec(linalg.transpose(lat.basis), linalg.vec(coeffs))


def inverse(m):
    """The exact inverse, from the fraction-free reduction of [m | I]."""
    n = len(m)
    rows, _ = linalg.integer_rows(row + e for row, e in zip(m, linalg.identity(n)))
    if linalg._bareiss(rows, reduce=True)[0] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:])
                 for i, row in enumerate(rows))


def halfspaces(p) -> list:
    return list(zip(p.facet_normals, p.facet_offsets))


def apply_affine(p, a, shift=None):
    """Image of p under x -> a x + shift; facets re-derived and verified.

    The facet of <n, x> <= b maps to the canonicalized pushforward
    halfspace <a^-T n, y> <= b + <a^-T n, shift>; each is then checked
    exactly against the mapped vertex set, which also lists the vertices
    on it.
    """
    a = linalg.mat(a)
    if linalg.det(a) == 0:
        raise GeometryError("affine map must be invertible")
    shift = linalg.vec(shift) if shift is not None else zeros(p.dim)
    verts = tuple(sorted(
        linalg.vadd(linalg.matvec(a, v), shift) for v in p.vertices))
    inv_t = linalg.transpose(inverse(a))
    facets = []
    for n, b in zip(p.facet_normals, p.facet_offsets):
        m = linalg.matvec(inv_t, n)
        facets.append(fraction_canonical_halfspace(m, b + linalg.dot(m, shift)))
    facets.sort()
    incidences = []
    for n, b in facets:
        vals = [linalg.dot(n, v) for v in verts]
        on = tuple(i for i, x in enumerate(vals) if x == b)
        if any(x > b for x in vals) or len(on) < p.dim:
            raise GeometryError("affine pushforward verification failed")
        incidences.append(on)
    return Polytope(p.dim, verts, tuple(n for n, _ in facets),
                    tuple(b for _, b in facets), tuple(incidences))
