"""Exact rational linear algebra.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything here is pure, immutable and exact; no floating point is used
anywhere, so results can serve as certificates. Sized for desk-scale
geometry (dimensions up to ~6, a few dozen rows), not for performance.

Kernel and solution-space bases are normalized to integer entries with
content 1 and a positive leading entry, so identical inputs always
produce byte-identical outputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', or Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c, a: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def is_symmetric(m: Mat) -> bool:
    return all(len(r) == len(m) for r in m) and m == transpose(m)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots: list[int] = []
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
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def normalize_primitive(v: Vec) -> Vec:
    """Scale a nonzero rational vector to integer entries, content 1,
    positive leading entry. Zero vectors pass through unchanged."""
    if all(x == 0 for x in v):
        return vec(v)
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return vec(ints)


def scale_to_content_one(v: Vec) -> Vec:
    """Like normalize_primitive but keeps the original sign."""
    w = normalize_primitive(v)
    lead_v = next((x for x in v if x != 0), Fraction(0))
    lead_w = next((x for x in w if x != 0), Fraction(0))
    if lead_v != 0 and (lead_v < 0) != (lead_w < 0):
        return vneg(w)
    return w


def nullspace(m: Mat) -> list[Vec]:
    """Exact basis of the kernel, normalized; empty list for trivial kernel.

    Basis vectors are ordered by their free-column index, one per
    non-pivot column of the RREF.
    """
    if not m:
        return []
    nc = len(m[0])
    r, pivots = rref(m)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(normalize_primitive(tuple(v)))
    return basis


def solve_linear(a: Mat, b: Vec) -> Optional[Vec]:
    """The unique exact solution of a x = b.

    Returns None when the system is inconsistent or its solution is not
    unique (a has dependent columns). Raises on a row-count mismatch
    between a and b.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} rows vs {len(b)} entries")
    if not a:
        return ()
    nc = len(a[0])
    r, pivots = rref(tuple(row + (bi,) for row, bi in zip(a, b)))
    if pivots != tuple(range(nc)):
        return None
    return tuple(r[i][nc] for i in range(nc))


def det(m: Mat) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
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


def inverse(m: Mat) -> Mat:
    n = len(m)
    aug = tuple(row + identity(n)[i] for i, row in enumerate(m))
    r, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in r)


def is_positive_definite(s: Mat) -> bool:
    """Sylvester's criterion: all leading principal minors positive.

    Requires a symmetric matrix; raises ValueError otherwise.
    """
    if not is_symmetric(s):
        raise ValueError("positive definiteness requires a symmetric matrix")
    n = len(s)
    for k in range(1, n + 1):
        minor = tuple(row[:k] for row in s[:k])
        if det(minor) <= 0:
            return False
    return True


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


def lattice_basis_from_generators(vectors: Sequence[Vec]) -> Mat:
    """Basis (HNF rows) of the lattice of integer combinations of vectors."""
    if not vectors:
        return ()
    lcm = 1
    for v in vectors:
        for x in v:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    int_rows = [[int(x * lcm) for x in v] for v in vectors]
    hnf = _hnf_rows(int_rows)
    return tuple(tuple(Fraction(x, lcm) for x in row) for row in hnf)


def floor_sqrt(q: Fraction) -> int:
    """Largest integer s with s*s <= q, for q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    return math.isqrt(q.numerator * q.denominator) // q.denominator
