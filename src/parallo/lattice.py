"""Lattices with rational Gram metrics and their Voronoi cells.

A lattice is a rational basis (rows) plus a symmetric positive-definite
Gram matrix G giving the ambient metric <x, y> = x^T G y. Keeping the
metric separate from the coordinates lets hexagonal and other skew
lattices live entirely in rational coordinates.

Enumeration is exact Fincke-Pohst (Fincke & Pohst 1985; Agrell et al.
2002) in integer coefficient space. The coefficient form Q = B G B^T is
written once per lattice as U^T D U (U unit upper triangular, D
diagonal), read off the fraction-free echelon rows that `linalg`
computes and scaled to integers, so Q(x) is a sum of squares in which
level i depends only on the coefficients above it. Walking the levels
from the last coordinate down, each coefficient is confined to the
exact integer interval the remaining bound leaves it; every node works
on Python ints, and the norms come out as integers on one scale.

The lattice generated by a set of vectors (the facet vectors of a
parallelohedron) gets its basis from their Hermite normal form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
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
        basis = linalg.mat(basis)
        d = len(basis)
        if any(len(r) != d for r in basis):
            raise GeometryError("lattice basis must be square")
        if linalg.det(basis) == 0:
            raise GeometryError("lattice basis is singular")
        gram = linalg.mat(gram) if gram is not None else linalg.identity(d)
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
    def _ldl(self) -> tuple[list[list[int]], int, list[int], int]:
        """The coefficient form as Q = U^T D U, U unit upper triangular
        and D diagonal, so Q(x) = sum_i D_i (x_i + sum_{j>i} U_ij x_j)^2;
        returned on integers: the rows of us * U, us, ds * D and ds.

        Read off the fraction-free echelon rows of s Q (s the common
        denominator): Q is positive definite, so no row is swapped, row
        i is its pivot p_i times U_i, and D_i = p_i / (p_{i-1} s).
        """
        rows, s = linalg.integer_rows(self.coefficient_form)
        linalg._bareiss(rows)
        pivots = [row[i] for i, row in enumerate(rows)]
        u = [[Fraction(x, p) for x in row] for row, p in zip(rows, pivots)]
        diag = [Fraction(p, q * s) for p, q in zip(pivots, [1] + pivots)]
        rows, us = linalg.integer_rows(u)
        (diag_ints,), ds = linalg.integer_rows([diag])
        return rows, us, diag_ints, ds

    @cached_property
    def _basis_columns(self) -> tuple[list[list[int]], int]:
        """Rows of the basis transpose times their common denominator s,
        and s: the ambient vector of integer coefficients k is cols k / s."""
        return linalg.integer_rows(linalg.transpose(self.basis))

    def from_coefficients(self, coeffs) -> Vec:
        return linalg.matvec(linalg.transpose(self.basis), linalg.vec(coeffs))

    def to_coefficients(self, v: Vec) -> Vec:
        return linalg.solve_linear(linalg.transpose(self.basis), v)


def _integer_interval(p: int, a: int, m: int) -> range:
    """All integers k with (a k - p)^2 <= m, for a > 0, computed exactly."""
    if m < 0:
        return range(0, 0)
    s = math.isqrt(m)
    return range(-((s - p) // a), (p + s) // a + 1)


def _enumerate(lat: Lattice, r2: Fraction, center: Vec | None = None,
               parity: tuple[int, ...] | None = None
               ) -> list[tuple[int, tuple[int, ...]]]:
    """(N, k) for every integer k with Q(k - center) <= r2 and, if given,
    k = parity mod 2, where N = ds * (us * cs)^2 * Q(k - center).

    Fincke-Pohst: with x = k - center scaled by the denominator cs of the
    center, level i (from the last coordinate down) sees the integer
    Z_i = us * cs * (x_i + sum_{j>i} U_ij x_j) = a k_i - p_i, and
    k_i ranges over the integers with (ds D_i) Z_i^2 at most what the
    levels above left of the scaled bound.
    """
    rows, us, diag, ds = lat._ldl
    d = lat.dim
    if center is None:
        c, cs = [0] * d, 1
    else:
        (c,), cs = linalg.integer_rows([center])
    a = us * cs
    r2 = Fraction(r2)
    bound = r2.numerator * ds * a * a // r2.denominator
    out: list[tuple[int, tuple[int, ...]]] = []
    k = [0] * d

    def level(i: int, used: int, lin: list[int]) -> None:
        # lin[j] for j <= i: sum of rows[j][l] * (cs k_l - c_l) over l > i
        p = us * c[i] - lin[i]
        ks = _integer_interval(p, a, (bound - used) // diag[i])
        if parity is not None:
            ks = ks[(parity[i] - ks.start) % 2::2]
        for ki in ks:
            z = a * ki - p
            k[i] = ki
            if i == 0:
                out.append((used + diag[0] * z * z, tuple(k)))
            else:
                x = cs * ki - c[i]
                level(i - 1, used + diag[i] * z * z,
                      [lin[j] + rows[j][i] * x for j in range(i)])

    if bound >= 0:
        level(d - 1, 0, [0] * d)
    return out


def _ambient_sorted(lat: Lattice, ks) -> list[Vec]:
    """The ambient vectors of integer coefficient tuples, sorted."""
    cols, s = lat._basis_columns
    nums = sorted(tuple(sum(map(mul, col, k)) for col in cols)
                  for k in ks)
    return [tuple(Fraction(x, s) for x in v) for v in nums]


def vectors_in_ball(lat: Lattice, r2: Fraction, around: Vec | None = None,
                    parity: tuple[int, ...] | None = None) -> list[Vec]:
    """All lattice vectors v with norm_sq(v - around) <= r2, sorted.

    `parity` restricts basis coefficients to a fixed residue mod 2,
    i.e. enumerates one coset of 2L instead of all of L.
    """
    center = None
    if around is not None:
        center = lat.to_coefficients(linalg.vec(around))
        if center is None:
            raise GeometryError("center is not in the lattice's span")
    return _ambient_sorted(lat, (k for _, k in
                                 _enumerate(lat, r2, center, parity)))


def _coset_minimizers(lat: Lattice, parity: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Coefficients of the vectors of minimal positive norm in parity + 2L.

    The ball's radius is the norm of a member of the coset (the 0/1
    representative, or twice a basis vector for 2L itself), so the true
    minimum is always inside it.
    """
    q = lat.coefficient_form
    if any(parity):
        on = [i for i, x in enumerate(parity) if x]
        bound = sum(q[i][j] for i in on for j in on)
    else:
        bound = 4 * min(q[i][i] for i in range(lat.dim))
    hits = _enumerate(lat, bound, parity=parity)
    best = min(n for n, _ in hits if n > 0)
    return [k for n, k in hits if n == best]


def shortest_in_coset(lat: Lattice, coset: Vec) -> list[Vec]:
    """All vectors of minimal positive norm in coset + 2L, sorted.

    `coset` is a lattice vector (in ambient coordinates); its residue
    mod 2L determines the search space.
    """
    c = lat.to_coefficients(linalg.vec(coset))
    if c is None or any(x.denominator != 1 for x in c):
        raise GeometryError("coset representative must be a lattice vector")
    parity = tuple(int(x) % 2 for x in c)
    return _ambient_sorted(lat, _coset_minimizers(lat, parity))


def relevant_vectors(lat: Lattice) -> list[Vec]:
    """Facet vectors of the Voronoi cell: strict +-pair minimizers per coset."""
    out = []
    for par in product((0, 1), repeat=lat.dim):
        if not any(par):
            continue
        mins = _coset_minimizers(lat, par)
        if len(mins) == 2:
            out.extend(mins)
    return _ambient_sorted(lat, out)


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
    rows = [r[:] for r in rows if any(r)]
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


def lattice_basis_from_generators(vectors: Mat) -> Mat:
    """Basis (HNF rows) of the lattice of integer combinations of vectors."""
    if not vectors:
        return ()
    int_rows, lcm = linalg.integer_rows(vectors)
    hnf = _hnf_rows(int_rows)
    return tuple(tuple(Fraction(x, lcm) for x in row) for row in hnf)

