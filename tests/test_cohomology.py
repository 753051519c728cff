import contextlib
import io
import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from courantcalc import cli, linalg
from courantcalc import cochain as co
from courantcalc.algebroid import (
    algebroid_to_json,
    build_quadratic_lie_algebra,
    build_standard,
    verify_axioms,
)
from courantcalc.battery import Battery
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


@pytest.fixture(scope="module")
def random_rank5():
    """Seeded rational structure constants with no Jacobi identity, which
    the differential's formula does not need."""
    rng = random.Random(5)
    c = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for i, j in combinations(range(5), 2):
        for k in range(5):
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            c[i][j][k], c[j][i][k] = v, -v
    return build_quadratic_lie_algebra(c, eye(5))


# on su(2) the inserted index never moves, on T*su(2) it moves one place,
# and on the random rank-5 constants two places
@pytest.mark.parametrize("name, degrees", [
    ("su2", (1, 2)),
    ("cotangent_su2", (1, 2, 3)),
    ("random_rank5", (1, 2, 3)),
], ids=["su2", "cotangent_su2", "random_rank5"])
def test_matrix_entries_match_generic_evaluator(name, degrees, request):
    alg = request.getfixturevalue(name)
    pc = PointComplex(alg)
    r = alg.rank
    ginv = linalg.inverse(alg.pairing_matrix)
    dual = [alg.element([ginv[i][j] for j in range(r)]) for i in range(r)]
    for p in degrees:
        m = pc.differential_matrix(p)
        for ci, col in enumerate(pc.basis(p)):
            w = None
            for idx in col:
                leaf = co.section_leaf(alg, dual[idx])
                w = leaf if w is None else co.mul(w, leaf)
            dw = co.differential(w)
            for ri, row in enumerate(pc.basis(p + 1)):
                got = co.evaluate(dw, 0, tuple(alg.frame[t] for t in row))
                assert got == Scalar.const(0, m[ri][ci])


def test_euler_characteristic(su2_complex):
    betti_sum = sum((-1) ** p * su2_complex.betti(p) for p in range(4))
    assert betti_sum == su2_complex.euler_characteristic() == 0


def test_table_shape(su2_complex):
    table = su2_complex.table()
    assert [row["betti"] for row in table] == [1, 0, 0, 1]
    assert [row["dim"] for row in table] == [1, 3, 3, 1]


def test_rejects_positive_dimension():
    with pytest.raises(PreconditionError):
        PointComplex(build_standard(1))


# -- T*su(2): a complex whose d^2 entries cancel ----------------------------------

def cancelling_entries(pc):
    """Per p, the entries of d_{p+1} d_p with some nonzero product."""
    counts = {}
    for p in range(pc.rank - 1):
        m1, m2 = pc.differential_matrix(p), pc.differential_matrix(p + 1)
        for row in m2:
            for j in range(len(m1[0])):
                if any(row[t] * m1[t][j] for t in range(len(m1))):
                    counts[p] = counts.get(p, 0) + 1
    return counts


def test_cotangent_su2_axioms_and_betti(cotangent_su2):
    assert verify_axioms(cotangent_su2, Battery(cotangent_su2)).passed
    pc = PointComplex(cotangent_su2)
    assert [pc.betti(p) for p in range(7)] == [1, 0, 0, 2, 0, 0, 1]
    for p in range(7):
        assert pc.betti(p) == oracle_betti(pc, p)


def test_cotangent_su2_d_squared_cancels(cotangent_su2):
    # unlike su(2) and the abelian algebras, where every product is zero
    assert cancelling_entries(PointComplex(cotangent_su2)) == {1: 6, 2: 12, 3: 6}
    assert cancelling_entries(PointComplex(build_quadratic_lie_algebra(
        su2_structure_constants(), eye(3)))) == {}


def run_cohomology(alg, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebroid_to_json(alg)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["cohomology", str(path), "--format", "json"])
    return code, json.loads(out.getvalue())


def test_cohomology_command_on_cotangent_su2(cotangent_su2, tmp_path):
    code, doc = run_cohomology(cotangent_su2, tmp_path)
    assert code == 0
    checks = {c["name"]: c for c in doc["checks"]}
    # one tuple per entry of d_{p+1} d_p, one per degree
    assert checks["differential-squares-to-zero"]["checked"] == sum(
        comb(6, p + 2) * comb(6, p) for p in range(5))
    assert checks["betti-numbers-nonnegative"]["checked"] == 7
    assert [row["betti"] for row in doc["cohomology"]["table"]] == [
        1, 0, 0, 2, 0, 0, 1]


def test_a_sign_flip_in_d_fails_d_squared(cotangent_su2, tmp_path, monkeypatch):
    pc = PointComplex(cotangent_su2)
    m1, m2 = pc.differential_matrix(1), pc.differential_matrix(2)
    # an entry of d_1 that meets a nonzero entry of d_2
    t, j = next((t, j) for t in range(len(m1)) for j in range(len(m1[0]))
                if m1[t][j] and any(row[t] for row in m2))
    original = PointComplex.differential_matrix

    def flipped(self, p):
        m = original(self, p)
        if p != 1:
            return m
        m = [list(row) for row in m]
        m[t][j] = -m[t][j]
        return m

    monkeypatch.setattr(PointComplex, "differential_matrix", flipped)
    code, doc = run_cohomology(cotangent_su2, tmp_path)
    assert code == 1
    check = next(c for c in doc["checks"]
                 if c["name"] == "differential-squares-to-zero")
    assert check["status"] == "fail"
    assert check["witness"].startswith("p=1, row ")
    assert check["residual"] != "0"


def test_negative_betti_numbers_fail(tmp_path, monkeypatch):
    # maps of full rank in every degree make no complex: on rank 4,
    # b_1 = 4 - rank d_1 - rank d_0 = 4 - 4 - 1
    def full_rank(self, p):
        return [[1 if i == j else 0 for j in range(self.dimension(p))]
                for i in range(self.dimension(p + 1))]

    monkeypatch.setattr(PointComplex, "differential_matrix", full_rank)
    zero = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    code, doc = run_cohomology(build_quadratic_lie_algebra(zero, eye(4)), tmp_path)
    assert code == 1
    check = next(c for c in doc["checks"]
                 if c["name"] == "betti-numbers-nonnegative")
    assert (check["status"], check["witness"], check["residual"]) == (
        "fail", "p=1", "1")
    assert check["checked"] == 5


@pytest.mark.parametrize("name", ["abelian4", "su2"])
def test_each_differential_is_ranked_once(name, monkeypatch):
    ranked = []
    rank = linalg.rank

    def counting_rank(matrix):
        ranked.append(tuple(tuple(str(x) for x in row) for row in matrix))
        return rank(matrix)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    path = pathlib.Path(__file__).parent.parent / "demos" / "data" / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["cohomology", str(path), "--format", "json"]) == 0
    assert ranked
    assert len(ranked) == len(set(ranked))
