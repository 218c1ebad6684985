"""Exact rational linear algebra.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything here is pure, immutable and exact; no floating point is used
anywhere, so results can serve as certificates. Sized for desk-scale
geometry (dimensions up to ~6, a few dozen rows).

All elimination is one fraction-free routine on integer rows (Bareiss
1968; Nakos, Turner & Williams 1997): every intermediate entry is a
minor of the input, so each division is exact. A rational matrix is
first scaled by the lcm s of all its denominators (`integer_rows`),
which keeps its rank, kernel and solutions and scales an n-square
determinant by s ** n. The determinant and the positive-definite test
read the echelon rows; kernels (`int_kernel`, on integer rows) and
solutions read the fully reduced rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', or Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vec(xs: Iterable) -> Vec:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def is_symmetric(m: Mat) -> bool:
    return all(len(r) == len(m) for r in m) and m == transpose(m)


def integer_rows(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """The rows times their least common denominator s, as integer
    lists, and s."""
    rows = list(rows)
    s = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (s // x.denominator) for x in r] for r in rows], s


def _bareiss(rows: list[list[int]], reduce: bool = False) -> tuple[list[int], int]:
    """Fraction-free elimination of an integer matrix, in place.

    After the k-th pivot, each entry below it is the determinant of the
    (k+1)-square submatrix on the pivot rows and columns so far plus its
    own row and column (Sylvester's identity), so the division by the
    previous pivot is exact. Returns the pivot columns and the number of
    row swaps. Echelon row k is the k-th pivot times row k of U in an
    LDU factorization. With `reduce`, pivot columns are also cleared
    above the pivot by the same exact step (fraction-free Gauss-Jordan):
    every pivot then equals the last one, D, and the rows are D times
    the reduced row echelon form.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots: list[int] = []
    swaps, prev, r = 0, 1, 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        top = rows[r]
        p = top[c]
        for i in range(0 if reduce else r + 1, nr):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, swaps


def int_kernel(rows: list[list[int]]) -> list[list[int]]:
    """A kernel basis of a nonempty integer matrix, as integer vectors;
    consumes the rows. One vector per free column f of the reduced rows
    D R (R the reduced row echelon form): D at f and -D R[i][f] at the
    i-th pivot column, so every entry is a Cramer minor."""
    nc = len(rows[0])
    pivots, _ = _bareiss(rows, reduce=True)
    row_of = dict(zip(pivots, rows))
    d = rows[0][pivots[0]] if pivots else 1
    return [[d if c == f else -row_of[c][f] if c in row_of else 0
             for c in range(nc)] for f in range(nc) if f not in row_of]


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by its content, sign kept."""
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def solve_linear(a: Mat, b: Vec) -> Vec | None:
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
    rows, _ = integer_rows(row + (bi,) for row, bi in zip(a, b))
    if _bareiss(rows, reduce=True)[0] != list(range(nc)):
        return None
    return tuple(Fraction(row[nc], row[i]) for i, row in enumerate(rows[:nc]))


def det(m: Mat) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    rows, s = integer_rows(m)
    _, swaps = _bareiss(rows)
    # every row past the rank ends zero, so a singular matrix reads 0
    return Fraction((-1) ** swaps * rows[-1][-1] if rows else 1, s ** n)


def is_positive_definite(s: Mat) -> bool:
    """Sylvester's criterion: all leading principal minors positive.

    One elimination decides it: with no row swap, the k-th pivot is the
    k-th leading minor times s ** k for the positive scale s; a
    swap means some leading minor is zero, and a singular matrix ends in
    a zero row. Requires a symmetric matrix; raises ValueError otherwise.
    """
    if not is_symmetric(s):
        raise ValueError("positive definiteness requires a symmetric matrix")
    rows, _ = integer_rows(s)
    _, swaps = _bareiss(rows)
    return not swaps and all(row[i] > 0 for i, row in enumerate(rows))

