"""Lattices with rational Gram metrics and their Voronoi cells.

A lattice is a rational basis (rows) plus a symmetric positive-definite
Gram matrix G giving the ambient metric <x, y> = x^T G y. Keeping the
metric separate from the coordinates lets hexagonal and other skew
lattices live entirely in rational coordinates.

Enumeration is exact Fincke-Pohst (Fincke & Pohst 1985; Agrell et al.
2002) in integer coefficient space. The coefficient form Q = B G B^T is
first LLL-reduced (`_lll`), so the work depends on the lattice, not on
the basis that names it; `basis` stays as given, and the enumeration's
coefficients are read in the reduced basis. The reduced form is
written once per lattice as U^T D U (U unit upper triangular, D
diagonal), read off the fraction-free echelon rows that `linalg`
computes and scaled to integers, so Q(x) is a sum of squares in which
level i depends only on the coefficients above it. Walking the levels
from the last coordinate down, each coefficient is confined to the
exact integer interval the remaining bound leaves it; every node works
on Python ints, and the norms come out as integers on one scale. The
minima of every class of L/2L, and so the relevant vectors, come from d
graded searches, one per highest odd coefficient m, of radius
sum_{i<=m} D_i (Babai 1986; `_coset_minima`).

The lattice generated by a set of vectors (the facet vectors of a
parallelohedron) gets its basis from the Hermite normal form of their
integer rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from . import linalg
from .errors import GeometryError
from .linalg import Mat, Vec
from .polytope import Polytope


class Lattice:
    def __init__(self, basis: Mat, gram: Mat):
        self.basis = basis  # rows generate the lattice
        self.gram = gram    # ambient metric, symmetric positive definite

    @staticmethod
    def create(basis, gram=None) -> "Lattice":
        basis = tuple(map(linalg.vec, basis))
        d = len(basis)
        if d == 0:
            raise GeometryError("lattice basis is empty")
        if any(len(r) != d for r in basis):
            raise GeometryError("lattice basis must be square")
        if linalg.det(basis) == 0:
            raise GeometryError("lattice basis is singular")
        gram = linalg.identity(d) if gram is None else tuple(map(linalg.vec, gram))
        if len(gram) != d or any(len(r) != d for r in gram):
            raise GeometryError(f"gram matrix must be {d}x{d}")
        if not linalg.is_symmetric(gram):
            raise GeometryError("gram matrix must be symmetric")
        if not linalg.is_positive_definite(gram):
            raise GeometryError("gram matrix must be positive definite")
        return Lattice(basis, gram)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def inner(self, x: Vec, y: Vec) -> Fraction:
        return linalg.dot(x, linalg.matvec(self.gram, y))

    def norm_sq(self, x: Vec) -> Fraction:
        return self.inner(x, x)

    @cached_property
    def cell(self) -> Polytope:
        """The Voronoi cell of the origin (`dv_cell`), built on first read."""
        return dv_cell(self)

    @cached_property
    def coefficient_form(self) -> Mat:
        """Gram matrix of the basis rows under the ambient metric:
        B G B^T, computed as B' G' B'^T / (bs^2 gs) on the integer rows
        B' = bs B and G' = gs G."""
        b, bs = linalg.integer_rows(self.basis)
        g, gs = linalg.integer_rows(self.gram)
        bg = [[sum(map(mul, row, col)) for col in zip(*g)] for row in b]
        return tuple(tuple(Fraction(sum(map(mul, r, c)), bs * bs * gs)
                           for c in b) for r in bg)

    @cached_property
    def _reduction(self) -> tuple[list[list[int]], list, list, int]:
        """(U, mu, bs, s): `_lll` of s Q, s the common denominator of Q.
        The rows of U B are a reduced basis of the lattice."""
        form, s = linalg.integer_rows(self.coefficient_form)
        return (*_lll(form), s)

    @cached_property
    def _ldl(self) -> tuple[list[list[int]], int, list[int], int]:
        """The reduced form U Q U^T as V^T D V, V_ij = mu_ji and
        D_i = bs_i / s (`_reduction`), so Q(x) = sum_i D_i (x_i +
        sum_{j>i} V_ij x_j)^2 in reduced coefficients; on integers: the
        rows of us * V, us, ds * D and ds."""
        _, mu, bs, s = self._reduction
        rows, us = linalg.integer_rows(zip(*mu))
        (diag,), ds = linalg.integer_rows([bs])
        return rows, us, diag, ds * s

    @cached_property
    def _basis_columns(self) -> tuple[list[list[int]], int]:
        """Rows of the reduced basis's transpose (U B)^T times their common
        denominator s, and s: the ambient vector of integer coefficients
        k in the reduced basis is cols k / s."""
        u, *_ = self._reduction
        cols, s = linalg.integer_rows(linalg.transpose(self.basis))
        return [[sum(map(mul, col, row)) for row in u] for col in cols], s

    def to_coefficients(self, v: Vec) -> Vec:
        return linalg.solve_linear(linalg.transpose(self.basis), v)


def _lll(g: list[list[int]]):
    """LLL reduction (Lenstra, Lenstra & Lovasz 1982; Cohen, GTM 138,
    Alg. 2.6.3, delta = 3/4) of the basis b with positive definite Gram
    matrix g, which it consumes: the unimodular integer rows U of the
    reduced basis sum_j U_ij b_j, and its exact Gram-Schmidt data mu
    (rows, 1 on the diagonal) and bs_i = |b*_i|^2. The first mu and bs
    come off the echelon rows of g: row i is its pivot p_i times column
    i of mu, and bs_i = p_i / p_(i-1)."""
    d = len(g)
    linalg._bareiss(g)
    pivots = [row[i] for i, row in enumerate(g)]
    mu = [[Fraction(x, p) for x, p in zip(col, pivots)] for col in zip(*g)]
    bs = [Fraction(p, q) for p, q in zip(pivots, [1] + pivots)]
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):  # size reduction
            q = round(mu[k][j])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                mu[k] = [a - q * b for a, b in zip(mu[k], mu[j])]
        m = mu[k][k - 1]
        if bs[k] >= (Fraction(3, 4) - m * m) * bs[k - 1]:
            k += 1
            continue
        b = bs[k] + m * m * bs[k - 1]  # bs_(k-1) once swapped
        u[k], u[k - 1] = u[k - 1], u[k]
        mu[k], mu[k - 1] = mu[k - 1], mu[k]
        mu[k - 1][k - 1:k + 1] = 1, 0
        mu[k][k - 1:k + 1] = m * bs[k - 1] / b, 1
        bs[k], bs[k - 1] = bs[k - 1] * bs[k] / b, b
        for row in mu[k + 1:]:
            t = row[k]
            row[k] = row[k - 1] - m * t
            row[k - 1] = t + mu[k][k - 1] * row[k]
        k = max(k - 1, 1)
    return u, mu, bs


def _integer_interval(p: int, a: int, m: int) -> range:
    """All integers k with (a k - p)^2 <= m, for a > 0, computed exactly."""
    if m < 0:
        return range(0, 0)
    s = math.isqrt(m)
    return range(-((s - p) // a), (p + s) // a + 1)


# Fincke-Pohst nodes one enumeration may visit: the relevant vectors of a
# cell of aspect ratio a need about 4 a, and E8's about 51,000.
_NODE_BUDGET = 10**6


def _enumerate(lat: Lattice, r2: Fraction,
               top: int | None = None) -> list[tuple[int, tuple[int, ...]]]:
    """(N, k) for every integer k with Q(k) <= r2, where N = ds * us^2 * Q(k);
    with `top`, only those with k_top odd and k_i even above it.

    Fincke-Pohst: level i (from the last coordinate down) sees the
    integer Z_i = us * (k_i + sum_{j>i} U_ij k_j) = us k_i - p_i, and
    k_i ranges over the integers with (ds D_i) Z_i^2 at most what the
    levels above left of the scaled bound, every other one of them at
    the levels from `top` up. Each level's candidates are counted
    against `_NODE_BUDGET` before they are walked.
    """
    rows, us, diag, ds = lat._ldl
    d = lat.dim
    r2 = Fraction(r2)
    bound = r2.numerator * ds * us * us // r2.denominator
    out: list[tuple[int, tuple[int, ...]]] = []
    k = [0] * d
    left = _NODE_BUDGET

    def level(i: int, used: int, lin: list[int]) -> None:
        # lin[j] for j <= i: sum of rows[j][l] * k_l over l > i
        nonlocal left
        p = -lin[i]
        ks = _integer_interval(p, us, (bound - used) // diag[i])
        if top is not None and i >= top:
            ks = ks[(ks.start - (i == top)) % 2::2]
        # len() overflows on a huge range
        left -= max(0, -((ks.start - ks.stop) // ks.step))
        if left < 0:
            raise GeometryError(
                f"lattice enumeration needs more than {_NODE_BUDGET} nodes; "
                "the input is too large, too thin or too skewed")
        for ki in ks:
            z = us * ki - p
            k[i] = ki
            if i == 0:
                out.append((used + diag[0] * z * z, tuple(k)))
            else:
                level(i - 1, used + diag[i] * z * z,
                      [lin[j] + rows[j][i] * ki for j in range(i)])

    if bound >= 0:
        level(d - 1, 0, [0] * d)
    return out


def _ambient_sorted(lat: Lattice, ks) -> list[Vec]:
    """The ambient vectors of integer coefficient tuples, sorted."""
    cols, s = lat._basis_columns
    nums = sorted(tuple(sum(map(mul, col, k)) for col in cols)
                  for k in ks)
    return [tuple(Fraction(x, s) for x in v) for v in nums]


def vectors_in_ball(lat: Lattice, r2: Fraction) -> list[Vec]:
    """All lattice vectors v with norm_sq(v) <= r2, sorted."""
    return _ambient_sorted(lat, (k for _, k in _enumerate(lat, r2)))


def _coset_minima(lat: Lattice) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Per class of L/2L, keyed by its coefficients mod 2 in the given
    basis, the coefficients in the reduced basis (`_basis_columns`) of
    its members of least positive norm.

    A class other than 2L has a highest odd reduced coefficient m, and
    one search per m (`_enumerate` with top m) holds its minima within
    radius sum_{i<=m} D_i. For v in the class, Babai's nearest-plane
    rounding of v/2 from the last level gives a lattice point w with
    x = v/2 - w exactly 0 at the levels above m, where v/2 has integer
    coefficients, and |x_i + sum_{j>i} U_ij x_j| <= 1/2 at the rest. So
    Q(x) <= sum_{i<=m} D_i / 4, and v - 2w is a nonzero member of norm
    at most sum_{i<=m} D_i. No search holds the origin, and together
    they hold L's shortest vectors: each lies in some class, and
    Q(e_0) = D_0 bounds their norm. 2L's minima are twice those.
    """
    _, _, diag, ds = lat._ldl
    hits = sorted(chain.from_iterable(
        _enumerate(lat, Fraction(sum(diag[:m + 1]), ds), m)
        for m in range(lat.dim)))
    least, minima = {}, {}
    for n, k in hits:
        c = tuple(x % 2 for x in k)
        if least.setdefault(c, n) == n:
            minima.setdefault(c, []).append(k)
    minima[(0,) * lat.dim] = [tuple(2 * x for x in k)
                              for n, k in hits if n == hits[0][0]]
    u, *_ = lat._reduction
    given = list(zip(*u))  # k U: the same vector's given coefficients
    return {tuple(sum(map(mul, col, c)) % 2 for col in given): ks
            for c, ks in minima.items()}


def shortest_in_coset(lat: Lattice, coset: Vec) -> list[Vec]:
    """All vectors of minimal positive norm in coset + 2L, sorted, for
    a lattice vector `coset` in ambient coordinates."""
    c = lat.to_coefficients(linalg.vec(coset))
    if c is None or any(x.denominator != 1 for x in c):
        raise GeometryError("coset representative must be a lattice vector")
    return _ambient_sorted(lat, _coset_minima(lat)[tuple(int(x) % 2 for x in c)])


def relevant_vectors(lat: Lattice) -> list[Vec]:
    """Facet vectors of the Voronoi cell: the minima of each class other
    than 2L whose minimum is a single +- pair (Voronoi 1908)."""
    return _ambient_sorted(lat, (k for c, ks in _coset_minima(lat).items()
                                 if any(c) and len(ks) == 2 for k in ks))


def dv_cell(lat: Lattice) -> Polytope:
    """Voronoi cell of the origin: {x : <x, v> <= <v, v>/2 for relevant v}.

    On integer rows V = vs v and GV = gs G V, the halfspace of v is
    <GV, x> <= <V, GV> / (2 vs), the same one scaled by gs vs > 0."""
    gram, _ = linalg.integer_rows(lat.gram)
    rows, vs = linalg.integer_rows(relevant_vectors(lat))
    halfspaces = []
    for v in rows:
        gv = [sum(map(mul, row, v)) for row in gram]
        halfspaces.append((gv, Fraction(sum(map(mul, v, gv)), 2 * vs)))
    return Polytope.from_halfspaces(halfspaces, lat.dim)


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix (nonzero rows)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    nc = len(rows[0])
    done: list[list[int]] = []
    col = 0
    while rows and col < nc:
        work = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not work:
            col += 1
            continue
        while len(work) > 1:
            work.sort(key=lambda r: abs(r[col]))
            p = work[0]
            reduced = [p]
            for r in work[1:]:
                q = r[col] // p[col]
                nr = [a - q * b for a, b in zip(r, p)]
                if nr[col] != 0:
                    reduced.append(nr)
                elif any(nr):
                    rest.append(nr)
            work = reduced
        pivot = work[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        # reduce rows above so entries over the pivot lie in [0, pivot)
        for r in done:
            q = r[col] // pivot[col]
            if q:
                r[:] = [a - q * b for a, b in zip(r, pivot)]
        done.append(pivot)
        rows = rest
        col += 1
    return done


def lattice_basis_from_generators(rows, s: int) -> Mat:
    """Basis (HNF rows) of the lattice of integer combinations of the
    vectors rows / s, for integer rows and a positive scale s."""
    return tuple(tuple(Fraction(x, s) for x in row) for row in _hnf_rows(rows))
