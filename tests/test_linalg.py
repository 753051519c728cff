import pytest

from courantcalc import linalg
from courantcalc.scalar import Scalar, parse_scalar


def M(rows, n=2):
    return [[parse_scalar(x, n) for x in row] for row in rows]


def mat_vec(a, v):
    """The product of a matrix and a vector of Scalars."""
    return [sum((x * y for x, y in zip(row, v)), Scalar.zero(v[0].n)) for row in a]


def test_rank_and_det():
    a = M([["1", "x1"], ["x2", "x1*x2"]])
    assert linalg.rank(a) == 1
    assert linalg.det(a).is_zero()
    b = M([["1", "x1"], ["0", "x2"]])
    assert linalg.rank(b) == 2
    assert linalg.det(b) == parse_scalar("x2", 2)


def test_inverse_rational_entries():
    a = M([["1", "x1"], ["0", "1"]])
    inv = linalg.inverse(a)
    assert linalg.mat_eq(linalg.mat_mul(a, inv), linalg.mat_identity(2, 2))
    c = M([["x1", "1"], ["1", "x2"]])
    inv = linalg.inverse(c)
    assert linalg.mat_eq(linalg.mat_mul(inv, c), linalg.mat_identity(2, 2))


def test_inverse_singular():
    with pytest.raises(linalg.LinAlgError):
        linalg.inverse(M([["x1", "x1"], ["x2", "x2"]]))


def test_solve_unique_and_rational():
    a = M([["1", "x1"], ["0", "x2"]])
    b = [parse_scalar("x1 + x1*x2", 2), parse_scalar("x2^2", 2)]
    x = linalg.solve(a, b)
    assert x is not None
    assert mat_vec(a, x) == b
    assert x[1] == parse_scalar("x2", 2)


def test_solve_free_variables_are_zero():
    # one equation, three unknowns: pivot in the first column only
    a = M([["1", "x1", "x2"]])
    b = [parse_scalar("x1", 2)]
    x = linalg.solve(a, b)
    assert x == [parse_scalar("x1", 2), Scalar.zero(2), Scalar.zero(2)]


def test_solve_inconsistent_returns_none():
    a = M([["1", "0"], ["1", "0"]])
    b = [Scalar.zero(2), Scalar.one(2)]
    assert linalg.solve(a, b) is None


def test_solve_matrix_columnwise():
    a = M([["1", "1"], ["0", "1"]])
    rhs = M([["x1", "0"], ["x2", "1"]])
    x = linalg.solve_matrix(a, rhs)
    assert linalg.mat_eq(linalg.mat_mul(a, x), rhs)


def test_rank_over_fraction_field():
    # generically independent rows that are dependent at x1 = 0 still have
    # full rank over the fraction field
    a = M([["x1", "1"], ["0", "1"]])
    assert linalg.rank(a) == 2
