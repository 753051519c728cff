"""Acceptance suite: one test per criterion, exact residuals throughout.

Every check here is exact (zero tolerance) in rational arithmetic; stated
runtime budgets are asserted.  Run with `pytest tests/test_acceptance.py -s`
to see one pass/fail line per criterion.
"""

import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from courantcalc import cochain as co
from courantcalc import dorfman as dc
from courantcalc import linalg
from courantcalc.algebroid import (
    build_port_hamiltonian,
    build_quadratic_lie_algebra,
    build_standard,
    verify_axioms,
)
from courantcalc.battery import Battery
from courantcalc.cohomology import PointComplex
from courantcalc.report import PreconditionError
from courantcalc.scalar import Scalar, parse_scalar, random_polynomial

from conftest import su2_structure_constants

DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"


def announce(number, passed, text):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {text}", flush=True)
    assert passed, f"criterion {number} failed: {text}"


def eye(r):
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


@pytest.fixture(scope="module")
def connection_pool(standard2, battery2):
    """Connections shared by criteria 6, 7 and 8."""
    pool = {}
    for n in (1, 2, 3):
        alg = build_standard(n)
        battery = Battery(alg)
        bundle = dc._self_predual(alg)
        conn, _ = dc.build_connection(bundle, battery)
        pool[f"standard({n}) self-paired"] = (conn, battery)
    ph = build_port_hamiltonian(1, 1)
    ph_battery = Battery(ph)
    conn_a, conn_b = dc.build_port_hamiltonian_connections(ph)
    pool["port-hamiltonian projection"] = (conn_a, ph_battery)
    pool["port-hamiltonian co-projection"] = (conn_b, ph_battery)
    built_a, _ = dc.build_connection(conn_a.bundle, ph_battery)
    built_b, _ = dc.build_connection(conn_b.bundle, ph_battery)
    pool["port built on cotangent+port"] = (built_a, ph_battery)
    pool["port built on cotangent+co-port"] = (built_b, ph_battery)
    trivial = dc.build_standard_connection(standard2)
    christoffel = [[[random_polynomial(2, 2, 100 + 9 * i + 3 * j + k)
                     for k in range(2)] for j in range(2)] for i in range(2)]
    poly = dc.build_standard_connection(standard2, christoffel)
    pool["tangent-lift trivial"] = (trivial, battery2)
    pool["tangent-lift polynomial"] = (poly, battery2)
    pool["affine combination"] = (
        dc.affine_combine(trivial, poly, parse_scalar("x1", 2)), battery2)
    return pool


def test_criterion_1_axiom_suite(port_hamiltonian11):
    cases = []
    for n in (1, 2, 3):
        cases.append((f"standard({n})", build_standard(n)))
    cases.append(("su(2)", build_quadratic_lie_algebra(
        su2_structure_constants(), eye(3))))
    c4 = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    eps = su2_structure_constants()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c4[i][j][k] = eps[i][j][k]
    cases.append(("su(2) + line", build_quadratic_lie_algebra(c4, eye(4))))
    cases.append(("port-hamiltonian(1,1)", port_hamiltonian11))
    ok = True
    for name, alg in cases:
        start = time.monotonic()
        report = verify_axioms(alg, Battery(alg, degree=2, extras=3, seed=0))
        elapsed = time.monotonic() - start
        if not report.passed or elapsed >= 30.0:
            ok = False
        print(f"    {name}: passed={report.passed} ({elapsed:.1f}s)")
    announce(1, ok, "axiom suite passes with zero residual, < 30 s each")


def test_criterion_2_negative_control(su2_bad_form):
    report = verify_axioms(su2_bad_form, Battery(su2_bad_form))
    failed = report.failed_checks()
    ok = (len(failed) == 1
          and failed[0].name == "pairing-compatibility"
          and failed[0].witness == "e1 , e2 , e3"
          and failed[0].residual == "1")
    announce(2, ok, "bad invariant form fails exactly the compatibility "
                    "axiom, residual 1 on (e1, e2, e3)")


def test_criterion_3_d_squared(standard2, battery2):
    start = time.monotonic()
    gens = co.generator_cochains(standard2, battery2)
    kinds = set()

    def walk(node):
        kinds.add(type(node).__name__)
        for attr in ("child", "left", "right"):
            if hasattr(node, attr):
                walk(getattr(node, attr))

    for w in gens:
        walk(w)
    ok = len(gens) >= 20 and all(w.degree <= 4 for w in gens)
    ok = ok and {"_ScalarLeaf", "_SectionLeaf", "_Product", "_Differential",
                 "_InteriorE", "_InteriorF", "_LieE", "_LieF"} <= kinds
    for i, w in enumerate(gens):
        res = co.vanishes(co.differential(co.differential(w)), battery2)
        if not res:
            ok = False
            print(f"    d^2 != 0 on generator {i}: {res.witness}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    announce(3, ok, f"d squared vanishes on {len(gens)} generator cochains "
                    f"({elapsed:.1f}s)")


def test_criterion_4_cartan_suite(standard2, battery2, su2, battery_su2):
    ok = True
    for name, alg, battery in (("standard(2)", standard2, battery2),
                               ("su(2)", su2, battery_su2)):
        report = co.cartan_suite(alg, battery)
        names = [c.name for c in report.checks]
        complete = (len(names) == 11 and report.passed
                    and all(c.checked > 0 for c in report.checks[:9]))
        if not complete:
            ok = False
        print(f"    {name}: {len(names)} identities, passed={report.passed}")
    announce(4, ok, "all commutation relations and contraction brackets "
                    "hold exactly")


def test_criterion_5_algebra_laws(standard2, battery2):
    rng = random.Random("acceptance-laws")
    ok = True
    pairs = 0
    while pairs < 6:
        pa = rng.randint(0, 3)
        pb = rng.randint(0, min(3, 6 - pa))
        a = co.random_cochain(standard2, pa, rng, battery2)
        b = co.random_cochain(standard2, pb, rng, battery2)
        sign = (-1) ** (a.degree * b.degree)
        if not co.equal_combinations([(1, co.mul(a, b))],
                                     [(sign, co.mul(b, a))],
                                     battery2, reduced=True):
            ok = False
        if a.degree + b.degree + 1 <= co.DEGREE_CAP:
            lhs = co.differential(co.mul(a, b))
            rhs = [(1, co.mul(co.differential(a), b)),
                   ((-1) ** a.degree, co.mul(a, co.differential(b)))]
            if not co.equal_combinations([(1, lhs)], rhs, battery2,
                                         reduced=True):
                ok = False
        f = parse_scalar("x1", 2)
        e = standard2.frame[1]
        prod = co.mul(a, b)
        rhs = [(1, co.mul(co.interior_f(f, a), b)),
               (1, co.mul(a, co.interior_f(f, b)))]
        if not co.equal_combinations([(1, co.interior_f(f, prod))], rhs,
                                     battery2, reduced=True):
            ok = False
        rhs = [(1, co.mul(co.interior_e(e, a), b)),
               ((-1) ** a.degree, co.mul(a, co.interior_e(e, b)))]
        if not co.equal_combinations([(1, co.interior_e(e, prod))], rhs,
                                     battery2, reduced=True):
            ok = False
        pairs += 1
    triples = 0
    while triples < 4:
        degs = [rng.randint(0, 2) for _ in range(3)]
        if sum(degs) > 6:
            continue
        a, b, c = (co.random_cochain(standard2, d, rng, battery2)
                   for d in degs)
        lhs = co.mul(co.mul(a, b), c)
        rhs = co.mul(a, co.mul(b, c))
        if not co.equal_combinations([(1, lhs)], [(1, rhs)], battery2,
                                     reduced=True):
            ok = False
        triples += 1
    announce(5, ok, "graded commutativity, associativity and the three "
                    "Leibniz laws hold exactly on random cochains")


def test_criterion_6_connection_existence(connection_pool, standard2,
                                          battery2):
    ok = True
    for name in ("standard(1) self-paired", "standard(2) self-paired",
                 "standard(3) self-paired", "port built on cotangent+port",
                 "port built on cotangent+co-port"):
        conn, battery = connection_pool[name]
        report = dc.verify_connection(conn, battery)
        if not report.passed:
            ok = False
        print(f"    {name}: passed={report.passed}")
    comb_conn, battery = connection_pool["affine combination"]
    report = dc.verify_connection(comb_conn, battery)
    ok = ok and report.passed
    print(f"    affine combination with coordinate weight: "
          f"passed={report.passed}")
    trivial, _ = connection_pool["tangent-lift trivial"]
    poly, _ = connection_pool["tangent-lift polynomial"]
    diff = dc.difference_check(trivial, poly, battery2)
    ok = ok and diff.passed
    print(f"    difference annihilates derivation images: "
          f"passed={diff.passed}")
    announce(6, ok, "constructed connections satisfy all three axioms "
                    "exactly; affine structure verified")


def test_criterion_7_curvature_laws(connection_pool, standard2, battery2):
    ok = True
    for name in ("tangent-lift trivial", "tangent-lift polynomial"):
        conn, battery = connection_pool[name]
        bundle = conn.bundle
        b = bundle.element([parse_scalar(s, 2)
                            for s in ("x2", "x1", "1", "x1*x2")])
        f = parse_scalar("x1*x2", 2)
        dd = dc.covariant_differential(
            conn, dc.covariant_differential(conn, dc.b_leaf(bundle, b)))
        dds = dc.covariant_differential(
            conn, dc.covariant_differential(conn,
                                            dc.b_leaf(bundle, b.scale(f))))
        for pair in list(battery.section_tuples(2, reduced=True))[:25]:
            if not (dc.evaluateB(dds, 0, pair)
                    - dc.evaluateB(dd, 0, pair).scale(f)).is_zero():
                ok = False
        for g in (parse_scalar("x1", 2), parse_scalar("x2^2", 2)):
            if not (dc.evaluateB(dds, 1, (), (g,))
                    - dc.evaluateB(dd, 1, (), (g,)).scale(f)).is_zero():
                ok = False
            db = bundle.d_B(g)
            for e1, e2 in list(battery.section_tuples(2))[:15]:
                if not dc.curvature_R0(conn, e1, e2, db).is_zero():
                    ok = False
            if not dc.curvature_R1(conn, f, db).is_zero():
                ok = False
            lhs = dc.evaluateB(dc.interior_f_b(g, dd), 0, ())
            if not (lhs - dc.curvature_R1(conn, g, b)).is_zero():
                ok = False
        lin = dc.induced_linear_connection(conn, battery)
        symbol_report = dc.curvature_symbol_checks(conn, lin, battery)
        if not symbol_report.passed:
            ok = False
        print(f"    {name}: curvature laws passed={ok}")
    # hand-derived oracle: function curvature is the Hessian pairing in the
    # flat case
    conn, battery = connection_pool["tangent-lift trivial"]
    bundle = conn.bundle
    f = parse_scalar("x1^2*x2 + x2^3 - x1", 2)
    y = [parse_scalar("x2", 2), parse_scalar("x1^2", 2)]
    eta = [parse_scalar("1", 2), parse_scalar("x1", 2)]
    hess = [[f.partial(i + 1).partial(j + 1) for j in range(2)]
            for i in range(2)]
    want = bundle.element([Scalar.zero(2), Scalar.zero(2),
                           hess[0][0] * y[0] + hess[0][1] * y[1],
                           hess[1][0] * y[0] + hess[1][1] * y[1]])
    got = dc.curvature_R1(conn, f, bundle.element(y + eta))
    ok = ok and got == want
    print(f"    Hessian oracle matched: {got == want}")
    announce(7, ok, "curvature laws and slot-symbol identities hold exactly")


def test_criterion_8_bianchi(connection_pool):
    start = time.monotonic()
    ok = True
    for name, (conn, battery) in connection_pool.items():
        report = dc.bianchi_check(conn, battery)
        if not report.passed:
            ok = False
        print(f"    {name}: bianchi passed={report.passed}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    announce(8, ok, f"both Bianchi components vanish exactly for "
                    f"{len(connection_pool)} connections ({elapsed:.1f}s)")


def test_criterion_9_bott(standard2):
    ok = True
    tangent = [standard2.frame[0], standard2.frame[1]]
    bundle, conn, report = dc.bott_connection(standard2, tangent)
    ok = ok and report.passed
    print(f"    tangent distribution: flat={report.passed}")
    rows = [["1", "0", "0", "3"], ["0", "1", "-3", "0"]]
    graph = [standard2.element_from_strings(r) for r in rows]
    bundle, conn, report = dc.bott_connection(standard2, graph)
    ok = ok and report.passed
    print(f"    graph of constant closed two-form: flat={report.passed}")
    try:
        dc.bott_connection(standard2, [standard2.frame[0], standard2.frame[2]])
        ok = False
        print("    non-Lagrangian control was NOT rejected")
    except PreconditionError as exc:
        witness_ok = "isotropic" in str(exc)
        ok = ok and witness_ok
        print(f"    non-Lagrangian control rejected with witness: {exc}")
    announce(9, ok, "Dirac gates pass, quotient connections exactly flat, "
                    "non-Lagrangian input rejected")


def test_criterion_10_cohomology(su2):
    start = time.monotonic()

    def oracle_rank(matrix):
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

    ok = True
    pc = PointComplex(su2)
    betti = [pc.betti(p) for p in range(4)]
    ok = ok and betti == [1, 0, 0, 1]
    for p in range(4):
        rank_out = oracle_rank(pc.differential_matrix(p)) if p < 3 else 0
        rank_in = oracle_rank(pc.differential_matrix(p - 1)) if p >= 1 else 0
        ok = ok and pc.betti(p) == comb(3, p) - rank_out - rank_in
    print(f"    su(2): betti={betti}")

    zero4 = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    pca = PointComplex(build_quadratic_lie_algebra(zero4, eye(4)))
    betti4 = [pca.betti(p) for p in range(5)]
    ok = ok and betti4 == [1, 4, 6, 4, 1]
    print(f"    abelian rank-4: betti={betti4}")

    ginv = linalg.inverse(su2.pairing_matrix)
    dual = [su2.element([ginv[i][j] for j in range(3)]) for i in range(3)]
    for p in (1, 2):
        m = pc.differential_matrix(p)
        for ci, col in enumerate(pc.basis(p)):
            w = None
            for idx in col:
                leaf = co.section_leaf(su2, dual[idx])
                w = leaf if w is None else co.mul(w, leaf)
            dw = co.differential(w)
            for ri, row in enumerate(pc.basis(p + 1)):
                got = co.evaluate(dw, 0, tuple(su2.frame[t] for t in row))
                if got != Scalar.const(0, m[ri][ci]):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    announce(10, ok, f"betti numbers via exact ranks match the brute-force "
                     f"oracle and the generic evaluator ({elapsed:.1f}s)")


def test_criterion_11_cli_determinism():
    ok = True
    for args in (
        ("verify-algebroid", str(DATA / "standard2.json"),
         "--format", "json", "--seed", "5"),
        ("cohomology", str(DATA / "su2.json"), "--format", "json"),
        ("cartan", str(DATA / "su2.json"), "--format", "json", "--seed", "9"),
    ):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "courantcalc.cli", *args],
                capture_output=True, text=True)
            outs.append(proc.stdout)
            json.loads(proc.stdout)
        if outs[0] != outs[1]:
            ok = False
    announce(11, ok, "repeated CLI runs with identical seeds produce "
                     "byte-identical JSON reports")
