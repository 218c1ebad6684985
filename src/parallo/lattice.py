"""Lattices with rational Gram metrics and their Voronoi cells.

A lattice is a rational basis (rows) plus a symmetric positive-definite
Gram matrix G giving the ambient metric <x, y> = x^T G y. Keeping the
metric separate from the coordinates lets hexagonal and other skew
lattices live entirely in rational coordinates.

Enumeration is exact: for any positive-definite quadratic form Q and
bound r, the coefficients of lattice vectors with Q <= r are confined to
a box computed from the diagonal of Q^-1 (Cauchy-Schwarz in the
Q-inner product), so a finite sweep is guaranteed complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import linalg
from .errors import GeometryError
from .linalg import Mat, Vec
from .polytope import Polytope


@dataclass(frozen=True)
class Lattice:
    basis: Mat  # rows generate the lattice
    gram: Mat   # ambient metric, symmetric positive definite

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

    def with_gram(self, gram) -> "Lattice":
        return Lattice.create(self.basis, gram)

    @cached_property
    def coefficient_form(self) -> Mat:
        """Gram matrix of the basis rows under the ambient metric."""
        b = self.basis
        return linalg.matmul(linalg.matmul(b, self.gram), linalg.transpose(b))

    @cached_property
    def _coefficient_form_inverse_diag(self) -> Vec:
        inv = linalg.inverse(self.coefficient_form)
        return tuple(inv[i][i] for i in range(len(inv)))

    def from_coefficients(self, coeffs) -> Vec:
        return linalg.matvec(linalg.transpose(self.basis), linalg.vec(coeffs))

    def to_coefficients(self, v: Vec) -> Vec:
        return linalg.solve_linear(linalg.transpose(self.basis), v)


def _integer_interval(c: Fraction, b: Fraction) -> range:
    """All integers k with (k - c)^2 <= b, computed exactly."""
    if b < 0:
        return range(0, 0)
    p, q = c.numerator, c.denominator
    u, w = b.numerator, b.denominator
    n = math.isqrt(q * q * u * w)  # floor(q * sqrt(u * w))
    d = q * w
    hi = (p * w + n) // d
    lo = -((-(p * w - n)) // d)
    return range(lo, hi + 1)


def _coefficient_box(lat: Lattice, r2: Fraction, center: Vec) -> list[range]:
    """Integer ranges per coordinate covering {k : Q(k - center) <= r2}."""
    return [
        _integer_interval(center[i], qii * r2)
        for i, qii in enumerate(lat._coefficient_form_inverse_diag)
    ]


def vectors_in_ball(lat: Lattice, r2: Fraction, around: Vec | None = None,
                    parity: tuple[int, ...] | None = None) -> list[Vec]:
    """All lattice vectors v with norm_sq(v - around) <= r2, sorted.

    `parity` restricts basis coefficients to a fixed residue mod 2,
    i.e. enumerates one coset of 2L instead of all of L.
    """
    d = lat.dim
    if around is None:
        center = linalg.zeros(d)
    else:
        center = lat.to_coefficients(linalg.vec(around))
        if center is None:
            raise GeometryError("center is not in the lattice's span")
    q = lat.coefficient_form
    out = []
    axes = _coefficient_box(lat, r2, center)
    # Q(k - center) <= r2 on integers: Q scaled by qs, k - center by cs
    qi, qs = linalg.integer_rows(q)
    (ci,), cs = linalg.integer_rows([center])
    bound = r2 * qs * cs * cs
    if parity is not None:
        axes = [
            range(
                r.start + ((parity[i] - r.start) % 2),
                r.stop,
                2,
            )
            for i, r in enumerate(axes)
        ]
    for k in product(*axes):
        delta = [cs * a - c for a, c in zip(k, ci)]
        if sum(a * sum(x * y for x, y in zip(row, delta))
               for a, row in zip(delta, qi)) <= bound:
            out.append(lat.from_coefficients(k))
    return sorted(out)


def shortest_in_coset(lat: Lattice, coset: Vec) -> list[Vec]:
    """All vectors of minimal positive norm in coset + 2L.

    `coset` is a lattice vector (in ambient coordinates); its residue
    mod 2L determines the search space. Exact enumeration inside a ball
    whose radius comes from a representative of the coset, so the true
    minimum is always inside the sweep.
    """
    c = lat.to_coefficients(linalg.vec(coset))
    if c is None or any(x.denominator != 1 for x in c):
        raise GeometryError("coset representative must be a lattice vector")
    par = tuple(int(x) % 2 for x in c)
    if any(par):
        rep = lat.from_coefficients(par)
        bound = lat.norm_sq(rep)
    else:
        bound = min(lat.norm_sq(linalg.vscale(2, row)) for row in lat.basis)
    norms = [(lat.norm_sq(v), v)
             for v in vectors_in_ball(lat, bound, parity=par)]
    best = min(n for n, _ in norms if n > 0)
    return [v for n, v in norms if n == best]  # the ball comes sorted


def relevant_vectors(lat: Lattice) -> list[Vec]:
    """Facet vectors of the Voronoi cell: strict +-pair minimizers per coset."""
    out = []
    for par in product((0, 1), repeat=lat.dim):
        if not any(par):
            continue
        mins = shortest_in_coset(lat, lat.from_coefficients(par))
        if len(mins) == 2:
            out.extend(mins)
    return sorted(out)


def dv_cell(lat: Lattice) -> Polytope:
    """Voronoi cell of the origin: {x : <x, v> <= <v, v>/2 for relevant v}."""
    halfspaces = []
    for v in relevant_vectors(lat):
        normal = linalg.matvec(lat.gram, v)
        halfspaces.append((normal, lat.norm_sq(v) / 2))
    return Polytope.from_halfspaces(halfspaces, lat.dim)


def covering_counts(lat: Lattice, cell: Polytope, x: Vec) -> tuple[int, int]:
    """(closed, interior) counts of translates cell + t containing x."""
    x = linalg.vec(x)
    r2 = max(lat.norm_sq(v) for v in cell.vertices)
    closed = interior = 0
    for t in vectors_in_ball(lat, r2, around=x):
        p = linalg.vsub(x, t)
        if cell.contains(p):
            closed += 1
            if cell.contains(p, strict=True):
                interior += 1
    return closed, interior
