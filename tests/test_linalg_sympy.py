"""Differential test of ``linalg`` against sympy's matrices over Q(x1, x2).

sympy shares no code with courantcalc, so it serves as an oracle for the
determinant, the inverse and the solves over the fraction field.  The
matrices have seeded polynomial entries; the singular ones have a row that
is a polynomial combination of the others.  A solve takes the leftmost pivot
columns and sets the free variables to zero, so its solution is read off
sympy's reduced row echelon form of the augmented matrix: the last column
below each pivot, zero elsewhere, and no solution when the last column is a
pivot column.
"""

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from courantcalc import linalg
from courantcalc.scalar import Scalar, parse_scalar, random_polynomial

X1, X2 = sympy.symbols("x1 x2")
K = QQ.frac_field(X1, X2)


def S(text):
    return parse_scalar(text, 2)


def mat_vec(a, v):
    """The product of a matrix and a vector of Scalars."""
    return [sum((x * y for x, y in zip(row, v)), Scalar.zero(v[0].n)) for row in a]


def to_k(s):
    expr = sympy.sympify(str(s).replace("^", "**"), locals={"x1": X1, "x2": X2})
    return K.from_sympy(expr)


def to_dm(m):
    return DomainMatrix([[to_k(x) for x in row] for row in m], (len(m), len(m[0])), K)


def random_matrix(rows, cols, seed, degree=1):
    return [[random_polynomial(2, degree, 1000 * seed + cols * i + j)
             for j in range(cols)] for i in range(rows)]


def singular_matrix(seed):
    """3 x 3, the last row x1 times the first plus the second."""
    a = random_matrix(2, 3, seed)
    return a + [[S("x1") * x + y for x, y in zip(a[0], a[1])]]


def theirs_solve(a, b):
    """The solution of a x = b with free variables zero, from sympy's rref."""
    aug = [list(row) + [v] for row, v in zip(a, b)]
    rref, pivots = to_dm(aug).rref()
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [K.zero] * cols
    for row, c in enumerate(pivots):
        x[c] = rref[row, cols].element
    return x


SQUARE = [random_matrix(3, 3, seed) for seed in range(3)] \
    + [random_matrix(2, 2, 7, degree=2)]


@pytest.mark.parametrize("a", SQUARE + [singular_matrix(4)])
def test_det_agrees_with_sympy(a):
    assert to_k(linalg.det(a)) == to_dm(a).det()


@pytest.mark.parametrize("a", SQUARE)
def test_inverse_agrees_with_sympy(a):
    assert to_dm(linalg.inverse(a)) == to_dm(a).inv()


def test_inverse_of_a_singular_matrix_raises():
    assert to_dm(singular_matrix(5)).det() == K.zero
    with pytest.raises(linalg.LinAlgError):
        linalg.inverse(singular_matrix(5))


@pytest.mark.parametrize("a", SQUARE + [singular_matrix(6), random_matrix(2, 3, 8)])
def test_solve_agrees_with_sympy(a):
    # a right-hand side in the column space, so every system is consistent
    x0 = [random_polynomial(2, 1, 50 + j) for j in range(len(a[0]))]
    b = mat_vec(a, x0)
    x = linalg.solve(a, b)
    assert x is not None
    assert [to_k(v) for v in x] == theirs_solve(a, b)


@pytest.mark.parametrize("a", SQUARE[:2] + [singular_matrix(9)])
def test_solve_matrix_agrees_with_sympy_column_by_column(a):
    rhs = linalg.mat_mul(a, random_matrix(len(a[0]), 2, 11))
    x = linalg.solve_matrix(a, rhs)
    assert x is not None
    for col in range(2):
        want = theirs_solve(a, [row[col] for row in rhs])
        assert [to_k(row[col]) for row in x] == want


def test_inconsistent_systems_are_none_in_both():
    a = singular_matrix(12)
    b = [Scalar.zero(2), Scalar.zero(2), Scalar.one(2)]
    assert theirs_solve(a, b) is None
    assert linalg.solve(a, b) is None
    # a consistent column does not rescue an inconsistent one
    rhs = [[Scalar.zero(2), x] for x in b]
    assert linalg.solve_matrix(a, rhs) is None
