from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    fraction_det,
    fraction_inverse,
    fraction_ldl,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
    inverse,
    reduced_form,
    sylvester_positive_definite,
)
from parallo import linalg
from parallo.lattice import Lattice, lattice_basis_from_generators

F = Fraction


def test_solve_identity():
    x = linalg.solve_linear(linalg.identity(2), linalg.vec([3, 4]))
    assert x == linalg.vec([3, 4])


def test_solve_rank_one():
    # consistent, but the solution is not unique
    a = linalg.mat([[1, 1], [2, 2]])
    assert linalg.solve_linear(a, linalg.vec([1, 2])) is None


def test_solve_consistent_overdetermined():
    a = linalg.mat([[1, 0], [0, 1], [1, 1]])
    x = linalg.solve_linear(a, linalg.vec([1, 2, 3]))
    assert x == linalg.vec([1, 2])


def test_solve_inconsistent():
    a = linalg.mat([[1, 1], [1, 1]])
    assert linalg.solve_linear(a, linalg.vec([0, 1])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.solve_linear(linalg.identity(2), linalg.vec([1, 2, 3]))


def kernel(m):
    """`int_kernel` of a rational matrix, each vector made primitive with
    a positive leading entry, as Fractions: the form of
    `fraction_nullspace`."""
    if not m:
        return []
    basis = []
    for v in linalg.int_kernel(linalg.integer_rows(m)[0]):
        v = linalg.primitive(v)
        basis.append(linalg.vec(v if next(filter(None, v)) > 0
                                else [-x for x in v]))
    return basis


def test_nullspace_hexagon_normals():
    rows = [[1, 0], [0, 1], [-1, -1]]
    (v,) = linalg.int_kernel([list(col) for col in zip(*rows)])
    assert linalg.primitive(v) in ((1, 1, 1), (-1, -1, -1))
    assert kernel(linalg.transpose(linalg.mat(rows))) == [linalg.vec([1, 1, 1])]


def test_nullspace_belt_normals():
    cols = linalg.transpose(linalg.mat([[1, 1, 1], [1, 1, -1], [0, 0, 1]]))
    basis = kernel(cols)
    assert basis == [linalg.vec([1, -1, -2])]
    # substitution check: 1*(1,1,1) - 1*(1,1,-1) - 2*(0,0,1) = 0
    combo = [
        sum(c * v for c, v in zip(basis[0], col)) for col in linalg.mat(
            [[1, 1, 0], [1, 1, 0], [1, -1, 1]])
    ]
    assert all(x == 0 for x in combo)


def test_nullspace_identity_trivial():
    assert linalg.int_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_positive_definite_basics():
    assert linalg.is_positive_definite(linalg.identity(3))
    assert not linalg.is_positive_definite(linalg.mat([[1, 2], [2, 1]]))
    assert linalg.is_positive_definite(linalg.mat([[2, 1], [1, 2]]))
    # a zero leading minor swaps rows to positive pivots
    assert not linalg.is_positive_definite(linalg.mat([[0, 1], [1, 0]]))
    assert not linalg.is_positive_definite(linalg.mat([[0, 1], [1, 2]]))
    assert not linalg.is_positive_definite(linalg.mat([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        linalg.is_positive_definite(linalg.mat([[1, 2], [0, 1]]))


def test_positive_definite_agrees_with_sampling(rng):
    candidates = [
        linalg.identity(3),
        linalg.mat([[2, 1, 0], [1, 2, 0], [0, 0, 1]]),
        linalg.mat([[1, 2, 0], [2, 1, 0], [0, 0, 1]]),
        linalg.mat([[4, 2, 1], [2, 3, 1], [1, 1, 2]]),
        linalg.mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    ]
    for s in candidates:
        verdict = linalg.is_positive_definite(s)
        samples_positive = True
        for _ in range(1000):
            x = linalg.vec([F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3)])
            if all(v == 0 for v in x):
                continue
            if linalg.dot(x, linalg.matvec(s, x)) <= 0:
                samples_positive = False
                break
        # sampling gives a necessary condition: PD must never fail a sample
        if verdict:
            assert samples_positive


rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def matrix_and_vec(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    a = tuple(
        tuple(draw(rational) for _ in range(cols)) for _ in range(rows)
    )
    x = tuple(draw(rational) for _ in range(cols))
    return a, x


@given(matrix_and_vec())
@settings(max_examples=150, deadline=None)
def test_solve_reproduces_constructed_solutions(mx):
    a, x = mx
    b = linalg.matvec(a, x)
    sol = linalg.solve_linear(a, b)
    # unique exactly when the columns are independent
    if linalg.rank(a) == len(x):
        assert sol == x
    else:
        assert sol is None


@given(matrix_and_vec())
@settings(max_examples=150, deadline=None)
def test_nullspace_dimension_theorem(mx):
    a, _ = mx
    basis = linalg.int_kernel(linalg.integer_rows(a)[0])
    assert linalg.rank(a) + len(basis) == len(a[0])
    assert all(not any(linalg.matvec(a, v)) for v in basis)


def test_primitive():
    assert linalg.primitive([3, -6, 9]) == (1, -2, 3)
    assert linalg.primitive([-4, 6]) == (-2, 3)
    assert linalg.primitive([0, -5, 0]) == (0, -1, 0)
    assert linalg.primitive([7]) == (1,)


def test_lattice_basis_from_generators():
    gens = [linalg.vec([1, 0]), linalg.vec([0, 1]), linalg.vec([1, 1])]
    basis = lattice_basis_from_generators(*linalg.integer_rows(gens))
    assert basis == linalg.identity(2)
    gens = [linalg.vec([2, 0]), linalg.vec([1, 1])]
    basis = lattice_basis_from_generators(*linalg.integer_rows(gens))
    assert len(basis) == 2
    # index-2 sublattice of Z^2
    assert abs(linalg.det(basis)) == 2


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices of 0-4 rows, often singular: a row may be
    replaced by zeros or by a rational combination of two others."""
    rows = draw(st.integers(0, 4))
    cols = rows if square else draw(st.integers(0, 4))
    m = [[draw(rational) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, rows - 1))
        j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(rational), draw(rational)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return tuple(tuple(r) for r in m)


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_fraction_rref(m):
    assert linalg.rank(m) == fraction_rank(m)


@given(rational_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_det_matches_fraction_elimination(m):
    assert linalg.det(m) == fraction_det(m)


def test_rank_and_det_edge_cases():
    assert linalg.rank(()) == 0
    assert linalg.rank(((),)) == 0
    assert linalg.rank(linalg.mat([[0, 0, 0], [0, 0, 0]])) == 0
    assert linalg.rank(linalg.mat([[0, F(1, 2)], [0, F(-3, 4)], [1, 0]])) == 2
    assert linalg.det(()) == 1
    assert linalg.det(linalg.mat([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])) \
        == F(1, 10) - F(1, 12)
    assert linalg.det(linalg.mat([[0, 1], [1, 0]])) == -1
    assert linalg.det(linalg.mat([[1, 2], [F(1, 2), 1]])) == 0
    with pytest.raises(ValueError, match="non-square"):
        linalg.det(linalg.mat([[1, 2]]))


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_fraction_rref(m):
    assert kernel(m) == fraction_nullspace(m)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_solve_linear_matches_fraction_rref(data):
    """Random right-hand sides (mostly inconsistent when rows are
    dependent) and constructed ones (always consistent)."""
    a = data.draw(rational_matrices())
    cols = len(a[0]) if a else 0
    if data.draw(st.booleans()):
        b = tuple(data.draw(rational) for _ in a)
    else:
        b = linalg.matvec(a, tuple(data.draw(rational) for _ in range(cols)))
    assert linalg.solve_linear(a, b) == fraction_solve(a, b)


@given(rational_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_inverse_matches_fraction_rref(m):
    expected = fraction_inverse(m)
    if expected is None:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        assert inverse(m) == expected


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of 1-4 rows: either A A^T + c I (PD
    for c > 0, often only semidefinite for c = 0) or random entries,
    with diagonal entries often zero so that leading minors vanish."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = [[draw(rational) for _ in range(n)] for _ in range(n)]
        c = draw(st.sampled_from([0, 0, Fraction(1, 3), 1]))
        return tuple(tuple(sum(x * y for x, y in zip(a[i], a[j])) + c * (i == j)
                           for j in range(n)) for i in range(n))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.one_of(st.just(Fraction(0)), rational))
    return tuple(tuple(r) for r in m)


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_positive_definite_matches_sylvester(s):
    assert linalg.is_positive_definite(s) == sylvester_positive_definite(s)


def test_positive_definite_runs_one_elimination(monkeypatch):
    real, calls = linalg._bareiss, []

    def counted(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    s = linalg.mat([[4, 2, 1, 0], [2, 3, 1, 0], [1, 1, 2, 1], [0, 0, 1, 5]])
    assert linalg.is_positive_definite(s)
    assert calls == [4]


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_ldl_matches_fraction_recurrence(gram):
    assume(sylvester_positive_definite(gram))
    lat = Lattice.create(linalg.identity(len(gram)), gram)
    rows, us, diag, ds = lat._ldl
    u, d = fraction_ldl(reduced_form(lat))  # `_ldl` factors U Q U^T
    assert [[Fraction(x, us) for x in row] for row in rows] == u
    assert [Fraction(x, ds) for x in diag] == d
