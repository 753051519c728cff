from fractions import Fraction
from math import comb

import pytest

from courantcalc import cochain as co
from courantcalc import linalg
from courantcalc.algebroid import build_quadratic_lie_algebra, build_standard
from courantcalc.cohomology import PointComplex
from courantcalc.report import PreconditionError
from courantcalc.scalar import Scalar

from conftest import su2_structure_constants


def eye(r):
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


def oracle_rank(matrix):
    """Independent brute-force rank over the rationals (test-local code)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rows):
            if r != rank and m[r][c] != 0:
                factor = m[r][c] / m[rank][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle_betti(pc, p):
    rank_out = oracle_rank(pc.differential_matrix(p)) if p < pc.rank else 0
    rank_in = oracle_rank(pc.differential_matrix(p - 1)) if p >= 1 else 0
    return comb(pc.rank, p) - rank_out - rank_in


@pytest.fixture(scope="module")
def su2_complex(su2):
    return PointComplex(su2)


def test_su2_betti(su2_complex):
    assert [su2_complex.betti(p) for p in range(4)] == [1, 0, 0, 1]


def test_su2_betti_against_oracle(su2_complex):
    for p in range(4):
        assert su2_complex.betti(p) == oracle_betti(su2_complex, p)


def test_abelian_betti():
    zero = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    pc = PointComplex(build_quadratic_lie_algebra(zero, eye(4)))
    assert [pc.betti(p) for p in range(5)] == [1, 4, 6, 4, 1]
    for p in range(4):
        assert all(x == 0 for row in pc.differential_matrix(p) for x in row)


def test_su2_plus_line_betti():
    c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    eps = su2_structure_constants()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i][j][k] = eps[i][j][k]
    pc = PointComplex(build_quadratic_lie_algebra(c, eye(4)))
    assert [pc.betti(p) for p in range(5)] == [1, 1, 0, 1, 1]
    for p in range(5):
        assert pc.betti(p) == oracle_betti(pc, p)


def test_differential_squares_to_zero(su2_complex):
    for p in range(su2_complex.rank - 1):
        m1 = su2_complex.differential_matrix(p)
        m2 = su2_complex.differential_matrix(p + 1)
        if not (m1 and m2 and m1[0] and m2[0]):
            continue
        for i in range(len(m2)):
            for j in range(len(m1[0])):
                assert sum(m2[i][t] * m1[t][j] for t in range(len(m1))) == 0


def test_degree_zero_differential_vanishes(su2_complex):
    assert all(x == 0 for row in su2_complex.differential_matrix(0)
               for x in row)


def test_degree_one_matrix_echoes_structure_constants(su2, su2_complex):
    # the image of a dual frame functional measures bracket coefficients
    m = su2_complex.differential_matrix(1)
    rows = su2_complex.basis(2)
    c = su2.bracket_coeffs
    for ri, (a, b) in enumerate(rows):
        for ci in range(3):
            want = -c[a][b][ci].constant_value()
            assert m[ri][ci] == want


def test_matrix_entries_match_generic_evaluator(su2, su2_complex):
    ginv = linalg.inverse(su2.pairing_matrix)
    dual = [su2.element([ginv[i][j] for j in range(3)]) for i in range(3)]
    for p in (1, 2):
        m = su2_complex.differential_matrix(p)
        for ci, col in enumerate(su2_complex.basis(p)):
            w = None
            for idx in col:
                leaf = co.section_leaf(su2, dual[idx])
                w = leaf if w is None else co.mul(w, leaf)
            dw = co.differential(w)
            for ri, row in enumerate(su2_complex.basis(p + 1)):
                got = co.evaluate(dw, 0, tuple(su2.frame[t] for t in row))
                assert got == Scalar.const(0, m[ri][ci])


def test_euler_characteristic(su2_complex):
    betti_sum = sum((-1) ** p * su2_complex.betti(p) for p in range(4))
    assert betti_sum == su2_complex.euler_characteristic() == 0


def test_table_shape(su2_complex):
    table = su2_complex.table(3)
    assert [row["betti"] for row in table] == [1, 0, 0, 1]
    assert [row["dim"] for row in table] == [1, 3, 3, 1]


def test_rejects_positive_dimension():
    with pytest.raises(PreconditionError):
        PointComplex(build_standard(1))
