from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_det, fraction_rank
from parallo import linalg

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


def test_nullspace_hexagon_normals():
    rows = linalg.mat([[1, 0], [0, 1], [-1, -1]])
    assert linalg.nullspace(linalg.transpose(rows)) == [linalg.vec([1, 1, 1])]


def test_nullspace_belt_normals():
    cols = linalg.transpose(linalg.mat([[1, 1, 1], [1, 1, -1], [0, 0, 1]]))
    basis = linalg.nullspace(cols)
    assert basis == [linalg.vec([1, -1, -2])]
    # substitution check: 1*(1,1,1) - 1*(1,1,-1) - 2*(0,0,1) = 0
    combo = [
        sum(c * v for c, v in zip(basis[0], col)) for col in linalg.mat(
            [[1, 1, 0], [1, 1, 0], [1, -1, 1]])
    ]
    assert all(x == 0 for x in combo)


def test_nullspace_identity_trivial():
    assert linalg.nullspace(linalg.identity(3)) == []


def test_positive_definite_basics():
    assert linalg.is_positive_definite(linalg.identity(3))
    assert not linalg.is_positive_definite(linalg.mat([[1, 2], [2, 1]]))
    assert linalg.is_positive_definite(linalg.mat([[2, 1], [1, 2]]))
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
    assert linalg.rank(a) + len(linalg.nullspace(a)) == len(a[0])


def test_normalize_primitive():
    assert linalg.normalize_primitive(linalg.vec([F(1, 2), F(-1, 3)])) == \
        linalg.vec([3, -2])
    assert linalg.normalize_primitive(linalg.vec([-2, 4])) == linalg.vec([1, -2])


def test_lattice_basis_from_generators():
    gens = [linalg.vec([1, 0]), linalg.vec([0, 1]), linalg.vec([1, 1])]
    assert linalg.lattice_basis_from_generators(gens) == linalg.identity(2)
    gens = [linalg.vec([2, 0]), linalg.vec([1, 1])]
    basis = linalg.lattice_basis_from_generators(gens)
    assert len(basis) == 2
    # index-2 sublattice of Z^2
    assert abs(linalg.det(basis)) == 2


def test_floor_sqrt():
    assert linalg.floor_sqrt(F(0)) == 0
    assert linalg.floor_sqrt(F(35, 4)) == 2
    assert linalg.floor_sqrt(F(36, 4)) == 3


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


small_int_matrices = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n))


@given(small_int_matrices)
@settings(max_examples=200, deadline=None)
def test_int_cofactors_are_orthogonal_and_vanish_on_dependent_rows(a):
    rows = a[1:]  # (n - 1) x n
    normal = linalg.int_cofactors(rows)
    assert all(sum(x * y for x, y in zip(r, normal)) == 0 for r in rows)
    assert any(normal) == (fraction_rank(linalg.mat(rows)) == len(rows))
