import json
import pathlib
from collections import Counter
from itertools import product

import pytest

from courantcalc import algebroid
from courantcalc import cochain as co
from courantcalc import dorfman as dc
from courantcalc import linalg
from courantcalc.algebroid import (
    Section,
    algebroid_from_json,
    build_port_hamiltonian,
    build_standard,
)
from courantcalc.battery import Battery
from courantcalc.report import PreconditionError, Report, run_check
from courantcalc.scalar import Scalar, parse_scalar, random_polynomial

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"


def S1(text):
    return parse_scalar(text, 1)


def S2(text):
    return parse_scalar(text, 2)


@pytest.fixture(scope="module")
def self_predual1(standard1):
    return dc._self_predual(standard1)


@pytest.fixture(scope="module")
def self_predual2(standard2):
    return dc._self_predual(standard2)


@pytest.fixture(scope="module")
def conn_trivial2(standard2):
    return dc.build_standard_connection(standard2)


def poly2_connection(alg):
    christoffel = [[[random_polynomial(2, 2, 100 + 9 * i + 3 * j + k)
                     for k in range(2)] for j in range(2)] for i in range(2)]
    return dc.build_standard_connection(alg, christoffel)


@pytest.fixture(scope="module")
def conn_poly2(standard2):
    return poly2_connection(standard2)


# -- predual bundles -------------------------------------------------------------

def test_self_predual_alpha(self_predual1):
    assert [[str(x) for x in row] for row in self_predual1.alpha_matrix] == \
        [["0"], ["1"]]


def test_d_B_matches_dual_differential(standard1, self_predual1):
    db = self_predual1.d_B(S1("x1"))
    assert db.components == (Scalar.zero(1), Scalar.one(1))
    assert self_predual1.d_B(Scalar.const(1, 5)).is_zero()


def test_d_B_defining_property(standard2, self_predual2, battery2):
    for f in battery2.functions[:8]:
        db = self_predual2.d_B(f)
        for s in battery2.sections[:8]:
            assert self_predual2.b_pairing(s, db) == \
                standard2.anchor_apply(s, f)


def test_predual_rejects_incompatible_alpha(standard1):
    bad_alpha = [[S1("1")], [S1("1")]]
    with pytest.raises(PreconditionError):
        dc.PredualBundle(standard1, 2, standard1.pairing_matrix, bad_alpha)


def test_incompatible_alpha_message_prints_the_matrix_entries(standard1):
    eye = [[S1("1"), S1("0")], [S1("0"), S1("1")]]
    with pytest.raises(PreconditionError) as exc:
        dc.PredualBundle(standard1, 2, eye, [[S1("1")], [S1("1")]])
    assert str(exc.value) == ("alpha^T . pairing must equal the anchor matrix; "
                              "got [[1, 1]] vs [[1, 0]]")


def _contract_end_with_dual(b, other):
    end, dual = dc.TensorBundle.of(b, 1, 1), dc.TensorBundle.of(b, 0, 1)
    return end.contract(end.frame[0], dual.frame[0])


@pytest.mark.parametrize("call", [
    lambda b, other: b.frame[0] + dc.TensorBundle.of(b, 1, 1).frame[3],
    lambda b, other: b.frame[0] + other.frame[0],
    _contract_end_with_dual,
    lambda b, other: b.b_pairing(other.alg.frame[0], b.frame[1]),
], ids=["add-tensor-bundle", "add-other-predual", "contract", "b-pairing"])
def test_elements_of_different_modules_do_not_mix(call):
    b, other = (dc._self_predual(build_standard(1)) for _ in range(2))
    with pytest.raises(PreconditionError):
        call(b, other)


def test_predual_diagnose_cases(standard1, self_predual1):
    diag = dc.predual_diagnose(self_predual1)
    assert diag == {"pairing_rank": 2, "kernel_in_bundle": 0,
                    "kernel_in_algebroid": 0, "case": "isomorphic"}
    # extend by a kernel line: pairing row of zeros
    p = [list(row) for row in self_predual1.pairing_matrix] + \
        [[Scalar.zero(1), Scalar.zero(1)]]
    a = [list(row) for row in self_predual1.alpha_matrix] + [[Scalar.zero(1)]]
    bigger = dc.PredualBundle(standard1, 3, p, a)
    diag = dc.predual_diagnose(bigger)
    assert diag["kernel_in_bundle"] == 1
    assert diag["case"] == "bundle-extends-algebroid"


@pytest.mark.parametrize("rows,expected", [
    ([["1", "0", "0"], ["0", "1", "0"]],
     {"pairing_rank": 2, "kernel_in_bundle": 0, "kernel_in_algebroid": 1,
      "case": "algebroid-extends-bundle"}),
    ([["1", "0", "0"], ["2", "0", "0"]],
     {"pairing_rank": 1, "kernel_in_bundle": 1, "kernel_in_algebroid": 2,
      "case": "degenerate-both"}),
], ids=["algebroid-extends-bundle", "degenerate-both"])
def test_predual_diagnose_cases_with_a_kernel_in_the_algebroid(su2, rows, expected):
    bundle = dc.predual_from_json(su2, {"rank": 2, "pairing_P": rows,
                                        "alpha_A": [[], []]})
    assert dc.predual_diagnose(bundle) == expected


# -- connection extension rules ----------------------------------------------------

def test_apply_zero_gamma_on_frames(standard1, self_predual1, battery1):
    conn, _ = dc.build_connection(self_predual1, battery1)
    assert all(x.is_zero() for row in conn.gamma for cell in row for x in cell)
    e, b = standard1.frame, self_predual1.frame
    x1 = S1("x1")
    for i in range(2):
        for j in range(2):
            assert conn.apply(e[i], b[j]).is_zero()
            want = self_predual1.d_B(x1).scale(self_predual1.pairing_matrix[j][i])
            assert conn.apply(e[i].scale(x1), b[j]) == want
            want = b[j].scale(standard1.anchor_apply(e[i], x1))
            assert conn.apply(e[i], b[j].scale(x1)) == want


def test_verify_connection_trivial(standard1, self_predual1, battery1):
    conn, _ = dc.build_connection(self_predual1, battery1)
    assert dc.verify_connection(conn, battery1).passed


def test_perturbed_gamma_fails_third_axiom(standard1, self_predual1, battery1):
    conn, _ = dc.build_connection(self_predual1, battery1)
    gamma = [[list(cell) for cell in row] for row in conn.gamma]
    gamma[0][1][0] = S1("x1")  # derivative of the cotangent line leaks
    bad = dc.DorfmanConnection(self_predual1, gamma)
    report = dc.verify_connection(bad, battery1)
    assert not report.passed
    assert any(c.name == "derivation-image-equivariance"
               for c in report.failed_checks())


def test_build_connection_returns_its_self_test_report(standard1,
                                                       self_predual1,
                                                       battery1):
    for bundle in (self_predual1, kernel_line(standard1, S1("x1"))):
        conn, report = dc.build_connection(bundle, battery1)
        fresh = dc.verify_connection(conn, battery1)
        assert report.passed
        assert report.to_dict() == fresh.to_dict()


# -- construction branches -----------------------------------------------------------

def kernel_line(standard1, last):
    """standard(1) plus one kernel line, the derivation row on it last."""
    zero, one = Scalar.zero(1), Scalar.one(1)
    p = [list(row) for row in standard1.pairing_matrix] + [[zero, zero]]
    return dc.PredualBundle(standard1, 3, p, [[zero], [one], [last]])


def full_rank_predual(standard2):
    """A rank-2 predual of standard(2) with invertible polynomial alpha."""
    zero, one = Scalar.zero(2), Scalar.one(2)
    p = [[one, S2("-x1"), zero, zero], [zero, one, zero, zero]]
    a = [[one, zero], [S2("x1"), one]]
    return dc.PredualBundle(standard2, 2, p, a)


def test_build_connection_point_case(su2):
    eye = su2.pairing_matrix
    alpha = [[] for _ in range(3)]
    bundle = dc.PredualBundle(su2, 3, eye, alpha)
    battery = Battery(su2)
    conn, _ = dc.build_connection(bundle, battery)
    assert dc.verify_connection(conn, battery).passed
    # over a point every derivative vanishes: the construction is the zero map
    assert all(x.is_zero() for row in conn.gamma for cell in row for x in cell)


def test_build_connection_kernel_extension_with_polynomial_alpha(standard1,
                                                                battery1):
    # bundle = algebroid + one kernel line, nonzero derivation row on the
    # kernel: exercises the rank-deficient correction solve
    conn, _ = dc.build_connection(kernel_line(standard1, S1("x1")), battery1)
    report = dc.verify_connection(conn, battery1)
    assert report.passed
    # the correction must hit the kernel slot of the second bundle frame
    assert conn.gamma[0][1][2] == S1("-1")


def test_build_connection_full_rank_polynomial_alpha(standard2, battery2):
    # invertible polynomial alpha: the unique-solution branch
    bundle = full_rank_predual(standard2)
    assert linalg.rank(bundle.alpha_matrix) == 2
    conn, _ = dc.build_connection(bundle, battery2)
    assert dc.verify_connection(conn, battery2).passed


_FIELD_BRACKET = dc._field_bracket

# the obstruction with the bracket [u, v]^l = u(v^l) - v(u^l) of the alpha
# vector fields broken: its sign flipped, or one of its two terms dropped.
# The kernel line weights only the bracket with alpha_1 = d_1, whose
# coefficient is constant, so it cannot see u(v^l) dropped
OBSTRUCTION_MUTATIONS = {
    "sign-flipped": lambda u, v: [-x for x in _FIELD_BRACKET(u, v)],
    "first-term-only": lambda u, v: [algebroid._derivative(u, b) for b in v],
    "second-term-only": lambda u, v: [-algebroid._derivative(v, a) for a in u],
}


@pytest.mark.parametrize("mutation", sorted(OBSTRUCTION_MUTATIONS))
def test_build_connection_rejects_a_wrong_obstruction(standard1, standard2, battery1,
                                                      battery2, monkeypatch, mutation):
    monkeypatch.setattr(dc, "_field_bracket", OBSTRUCTION_MUTATIONS[mutation])
    cases = [(full_rank_predual(standard2), battery2)]
    if mutation != "second-term-only":
        cases.append((kernel_line(standard1, S1("x1")), battery1))
    for bundle, battery in cases:
        with pytest.raises(dc.ConstructionError):
            dc.build_connection(bundle, battery)


# -- named examples -------------------------------------------------------------------

def test_standard_connection_trivial_verifies(conn_trivial2, battery2):
    assert dc.verify_connection(conn_trivial2, battery2).passed


def test_standard_connection_polynomial_verifies(conn_poly2, battery2):
    assert dc.verify_connection(conn_poly2, battery2).passed


def test_apply_memo_keeps_only_battery_pairs():
    # verify_connection and difference_check apply along scaled sections, to
    # scaled elements and to d_B images through memos of their own; only
    # (battery section, test element) pairs, which recur from check to
    # check, stay in the connections' memos
    alg = build_standard(2)
    conn, trivial = poly2_connection(alg), dc.build_standard_connection(alg)
    battery = Battery(alg)
    assert dc.verify_connection(conn, battery).passed
    assert dc.difference_check(conn, trivial, battery).passed
    sections = set(battery.sections)
    elements = set(dc._b_elements(conn.bundle, battery))
    for c in (conn, trivial):
        assert c._apply_cache
        assert all(sigma in sections and b in elements
                   for sigma, b in c._apply_cache)


def _check_rows(report):
    return [(c.name, c.passed, c.checked, c.witness, c.residual)
            for c in report.checks]


def _unmemoised(monkeypatch):
    """Make every per-check memo of dorfman compute afresh."""
    monkeypatch.setattr(dc, "_memo", lambda fn: fn)


def test_verify_connection_applies_each_fresh_pair_once(monkeypatch):
    # the kernel runs once per distinct value pair of the fresh arguments
    # (a scaled section or element, a d_B image), where it ran once per
    # tuple; battery pairs go through the connection's own memo
    calls = []
    kernel = dc.DorfmanConnection._apply

    def recording(self, sigma, b):
        calls.append((sigma, b))
        return kernel(self, sigma, b)

    monkeypatch.setattr(dc.DorfmanConnection, "_apply", recording)
    alg = build_standard(2)
    battery = Battery(alg, degree=1, extras=1)

    def run():
        calls.clear()
        conn = dc.DorfmanConnection(dc._self_predual(alg),
                                    poly2_connection(alg).gamma)
        report = dc.verify_connection(conn, battery)
        fresh = Counter(calls)
        fresh.subtract(conn._apply_cache.keys())
        return report, +fresh

    report, fresh = run()
    assert report.passed
    assert set(fresh.values()) == {1}
    _unmemoised(monkeypatch)
    report_once, fresh_once = run()
    assert _check_rows(report) == _check_rows(report_once)
    assert set(fresh_once) == set(fresh)
    assert sum(fresh_once.values()) > len(fresh)


def test_bianchi_duality_computes_each_curvature_value_once(conn_poly2,
                                                            monkeypatch):
    # dual-curvature-duality compares component i of R0(pair, b) for every
    # dual frame index i; R0 at (pair, b) is computed once for all of them
    battery = Battery(conn_poly2.alg, degree=1, extras=1)
    calls, counts, name = [], {}, "dual-curvature-duality"
    curvature_R0, run_check = dc.curvature_R0, dc.run_check

    def counting_R0(conn, *args):
        calls.append(args)
        return curvature_R0(conn, *args)

    def duality_only(report, check, *rest):
        calls.clear()
        run_check(report, check, *rest)
        if check == name:
            counts[check] = list(calls)

    monkeypatch.setattr(dc, "curvature_R0", counting_R0)
    monkeypatch.setattr(dc, "run_check", duality_only)
    report = dc.bianchi_check(conn_poly2, battery)
    assert report.passed
    memoised = counts[name]
    assert len(memoised) == len(set(memoised)) == 120

    _unmemoised(monkeypatch)
    unmemoised = dc.bianchi_check(conn_poly2, battery)
    assert len(counts[name]) == 480 == conn_poly2.bundle.rank * 120
    assert set(counts[name]) == set(memoised)
    assert _check_rows(report) == _check_rows(unmemoised)


def _b_pairing_formula(bundle, sigma, b):
    """sum_ij g_j P[i][j] h_i for sigma = g_j e_j and b = h_i b_i, from the
    pairing matrix P."""
    zero = Scalar.zero(bundle.alg.n)
    return sum((g * bundle.pairing_matrix[i][j] * h
                for i, h in enumerate(b.components)
                for j, g in enumerate(sigma.components)), zero)


def _lin_formula(lin, b, e):
    """Delta_e b - [e, b] with b read as the section of its first r
    components, padded with zeros below rank r, afresh."""
    conn, alg = lin.conn, lin.conn.alg
    zero = Scalar.zero(alg.n)

    def as_section(x):
        comps = list(x.components[: alg.rank])
        return Section(alg, comps + [zero] * (alg.rank - len(comps)))

    return as_section(conn._apply(e, b)) - alg._bracket(e, as_section(b))


@pytest.mark.parametrize("kind", ["polynomial", "bott"])
def test_pairing_memo_agrees_with_the_formula(kind):
    alg = build_standard(2)
    if kind == "polynomial":
        bundle = poly2_connection(alg).bundle
    else:
        bundle, _, report = dc.bott_connection(
            alg, two_form_graph(alg, parse_scalar("x1", 2)), 1, 1)
        assert report.passed
    battery = Battery(bundle.alg, degree=1, extras=1)
    pairs = list(product(battery.sections, dc._b_elements(bundle, battery)))
    nonzero = 0
    for sigma, b in pairs:
        value = bundle.b_pairing(sigma, b)
        assert value == _b_pairing_formula(bundle, sigma, b)
        assert bundle.b_pairing(sigma, b) is value
        nonzero += not value.is_zero()
    assert nonzero and set(pairs) <= set(bundle._pairing_cache)


# the two ways the formula reads b as a section: K drops the components past
# the algebroid rank r (bundle rank s >= r: a kernel line over standard(1),
# and the self-predual of standard(2)), F pads them with zeros (s <= r: su(2)
# paired against its first two frame sections, and the self-predual again)
@pytest.mark.parametrize("case", ["K", "F"])
def test_linear_connection_memo_agrees_with_the_formula(case, standard1, su2,
                                                         conn_poly2):
    if case == "K":
        wider = kernel_line(standard1, Scalar.zero(1))
        other = dc.build_connection(wider, Battery(standard1, degree=1, extras=1))[0]
    else:
        narrower = dc.PredualBundle(su2, 2, su2.pairing_matrix[:2], [[], []])
        other = dc.build_connection(narrower, Battery(su2))[0]
    for conn in (other, conn_poly2):
        lin = dc.LinearConnection(conn)
        battery = Battery(conn.alg, degree=1, extras=1)
        pairs = list(product(dc._b_elements(conn.bundle, battery), battery.sections))
        nonzero = 0
        for b, e in pairs:
            value = lin.apply(b, e)
            assert value == _lin_formula(lin, b, e) == lin._apply(b, e)
            assert lin.apply(b, e) is value
            nonzero += not value.is_zero()
        assert nonzero and len(lin._apply_cache) == len(set(pairs))
    if case == "F":
        assert dc.curvature_laws(other, Battery(su2)).passed


# -- mutation guard: the Leibniz checks catch a wrong kernel ----------------------

_KERNEL = algebroid._leibniz


def _without_d_term(g, h, rho, struct, pairing, d):
    return _KERNEL(g, h, rho, struct, pairing, None)


def _without_anchor_term(g, h, rho, struct, pairing, d):
    return _KERNEL(g, h, tuple(Scalar.zero(a.n) for a in rho), struct, pairing, d)


# Each dropped term breaks only the Leibniz rules that scale the slot it
# differentiates: the D-term <e_i, b> D g_i is tensorial in b, and the
# anchor term rho(sigma)(h) is tensorial in sigma.  So the kernel without its
# D-term still satisfies the rules scaling b (right Leibniz, bundle slot),
# and the kernel without its anchor term those scaling sigma.
LEIBNIZ_MUTATIONS = [
    (_without_d_term, ("left-leibniz", "scaling-in-the-section-slot"),
     ("right-leibniz", "leibniz-in-the-bundle-slot")),
    (_without_anchor_term, ("right-leibniz", "leibniz-in-the-bundle-slot"),
     ("left-leibniz", "scaling-in-the-section-slot")),
]


def _old_style_differences(alg, conn):
    """Each Leibniz identity as the single difference A - B - C, test-local."""
    br, rho, ap, bundle = alg._bracket, alg.anchor_apply, conn._apply, conn.bundle
    return {
        "right-leibniz": lambda a, b, f: (
            br(a, b.scale(f)) - br(a, b).scale(f) - b.scale(rho(a, f))),
        "left-leibniz": lambda a, b, f: (
            br(a.scale(f), b) - br(a, b).scale(f) + a.scale(rho(b, f))
            - alg.d_E(f).scale(alg.pairing(a, b))),
        "scaling-in-the-section-slot": lambda sigma, f, b: (
            ap(sigma.scale(f), b) - ap(sigma, b).scale(f)
            - bundle.d_B(f).scale(bundle.b_pairing(sigma, b))),
        "leibniz-in-the-bundle-slot": lambda sigma, f, b: (
            ap(sigma, b.scale(f)) - ap(sigma, b).scale(f)
            - b.scale(alg.anchor_apply(sigma, f))),
    }


@pytest.mark.parametrize("mutation,broken,kept", LEIBNIZ_MUTATIONS,
                         ids=["without-d-term", "without-anchor-term"])
def test_leibniz_checks_catch_a_wrong_kernel(conn_poly2, monkeypatch, mutation,
                                             broken, kept):
    streams = {}

    def recording_run_check(report, name, tuples, *fns):
        tuples = list(tuples)
        streams[name] = (tuples, fns[-1])
        run_check(report, name, tuples, *fns)

    for module in (algebroid, dc):
        monkeypatch.setattr(module, "_leibniz", mutation)
        monkeypatch.setattr(module, "run_check", recording_run_check)
    # fresh objects, so no memo holds a value of the right kernel
    alg = build_standard(2)
    conn = dc.DorfmanConnection(dc._self_predual(alg), conn_poly2.gamma)
    battery = Battery(alg)
    report = Report()
    report.extend(algebroid.verify_axioms(alg, battery))
    report.extend(dc.verify_connection(conn, battery))

    differences = _old_style_differences(alg, conn)
    for name in broken:
        tuples, describe = streams[name]
        witness = next(t for t in tuples if not differences[name](*t).is_zero())
        check = report[name]
        assert not check.passed
        assert check.checked == len(tuples)
        assert (check.witness, check.residual) == (
            describe(*witness), str(differences[name](*witness)))
    for name in kept:
        assert report[name].passed


def test_standard_connection_lie_derivative_on_cotangent_part(standard2,
                                                              conn_trivial2):
    # derivative of a pure cotangent element along a tangent frame reduces to
    # the coordinate Lie derivative
    b = conn_trivial2.bundle.element([S2("0"), S2("0"), S2("x1*x2"), S2("0")])
    got = conn_trivial2.apply(standard2.frame[0], b)
    assert got == conn_trivial2.bundle.element([S2("0"), S2("0"), S2("x2"),
                                                S2("0")])


def test_port_hamiltonian_connections_verify():
    theta = [[[S1("x1")]]]
    alg = build_port_hamiltonian(1, 1, theta)
    battery = Battery(alg)
    conn, conn_prime = dc.build_port_hamiltonian_connections(alg)
    assert dc.verify_connection(conn, battery).passed
    assert dc.verify_connection(conn_prime, battery).passed


def test_port_hamiltonian_connection_formula():
    theta = [[[S1("x1")]]]
    alg = build_port_hamiltonian(1, 1, theta)
    conn, conn_prime = dc.build_port_hamiltonian_connections(alg)
    # derivative of the port frame along the tangent frame is the stored
    # connection coefficient
    tangent = alg.frame[0]
    port = conn.bundle.frame[1]
    assert conn.apply(tangent, port) == conn.bundle.element([S1("0"), S1("x1")])
    # the co-port slot of the primed connection uses the dual coefficients
    co_port = conn_prime.bundle.frame[1]
    assert conn_prime.apply(tangent, co_port) == \
        conn_prime.bundle.element([S1("0"), S1("-x1")])


def hand_port_hamiltonian_connections(n, v, theta):
    """The two projection connections written out index by index from the
    Christoffel data theta, frame order tangent, cotangent, port, co-port:
    (pairing_P, alpha_A, gamma) of each."""
    zero, one = Scalar.zero(n), Scalar.one(n)
    r, s = 2 * n + 2 * v, n + v
    tan, out, inn = 0, 2 * n, 2 * n + v
    alpha = [[one if col == i and i < n else zero for col in range(n)]
             for i in range(s)]
    p1 = [[zero] * r for _ in range(s)]
    p2 = [[zero] * r for _ in range(s)]
    g1 = [[[zero] * s for _ in range(s)] for _ in range(r)]
    g2 = [[[zero] * s for _ in range(s)] for _ in range(r)]
    for l in range(n):
        p1[l][tan + l] = p2[l][tan + l] = one
    for a in range(v):
        p1[n + a][inn + a] = one
        p2[n + a][out + a] = one
    for l, a, b in product(range(n), range(v), range(v)):
        t = theta[l][a][b]
        if t.is_zero():
            continue
        # ports along the tangent frame, and the cotangent part of the
        # co-port bracket with a port
        g1[tan + l][n + a][n + b] = t
        g1[inn + a][n + b][l] = g1[inn + a][n + b][l] - theta[l][b][a]
        # the dual connection on co-ports, and the port bracket with a co-port
        g2[tan + l][n + b][n + a] = g2[tan + l][n + b][n + a] - t
        g2[out + a][n + b][l] = g2[out + a][n + b][l] + t
    return (p1, alpha, g1), (p2, alpha, g2)


def flat_constant_theta(seed):
    """n = 2, v = 2: a seeded constant matrix along x1 and a multiple of the
    identity along x2, which commute, so the port connection is flat."""
    m = [[random_polynomial(2, 0, seed + 2 * a + b) for b in range(2)]
         for a in range(2)]
    c = random_polynomial(2, 0, seed + 7)
    eye = [[c if a == b else Scalar.zero(2) for b in range(2)] for a in range(2)]
    return [m, eye]


def seeded_theta(n, v, seed):
    return [[[random_polynomial(n, 2, 1000 * seed + 9 * l + 3 * a + b)
              for b in range(v)] for a in range(v)] for l in range(n)]


PORT_GRID = ([(1, v, "poly", seed) for v in (1, 2) for seed in range(6)]
             + [(2, 2, "flat", seed) for seed in (0, 1)]
             + [(1, 1, "none", 0), (2, 3, "none", 0)])


@pytest.mark.parametrize("n,v,kind,seed", PORT_GRID,
                         ids=[f"n{n}v{v}-{kind}{seed}" for n, v, kind, seed in PORT_GRID])
def test_port_hamiltonian_connections_are_the_hand_formula(n, v, kind, seed):
    if kind == "poly":
        theta = seeded_theta(n, v, seed)
    elif kind == "flat":
        theta = flat_constant_theta(seed)
    else:
        theta = None
    alg = build_port_hamiltonian(n, v, theta)
    if theta is None:
        theta = [[[Scalar.zero(n)] * v for _ in range(v)] for _ in range(n)]
    built = dc.build_port_hamiltonian_connections(alg)
    for conn, (pairing, alpha, gamma) in zip(
            built, hand_port_hamiltonian_connections(n, v, theta)):
        assert conn.bundle.pairing_matrix == pairing
        assert conn.bundle.alpha_matrix == alpha
        assert conn.gamma == gamma


def test_port_hamiltonian_connections_need_the_builder():
    # a loaded document carries no port data, so no connections are read off
    alg = algebroid_from_json(algebroid.algebroid_to_json(
        build_port_hamiltonian(1, 1, [[[S1("x1")]]])))
    with pytest.raises(PreconditionError, match="port-Hamiltonian data"):
        dc.build_port_hamiltonian_connections(alg)


# -- affine structure --------------------------------------------------------------------

def test_affine_combination_identity(conn_trivial2, conn_poly2):
    assert dc.affine_combine(conn_trivial2, conn_poly2, Scalar.zero(2)) \
        is conn_trivial2


def test_affine_combination_verifies(standard2, conn_trivial2, conn_poly2,
                                     battery2):
    comb = dc.affine_combine(conn_trivial2, conn_poly2, S2("x1"))
    assert dc.verify_connection(comb, battery2).passed


def test_difference_check(conn_trivial2, conn_poly2, battery2):
    assert dc.difference_check(conn_trivial2, conn_poly2, battery2).passed


def test_difference_kills_derivation_images(standard2, conn_trivial2,
                                            conn_poly2, battery2):
    bundle = conn_trivial2.bundle
    for f in battery2.functions[:6]:
        db = bundle.d_B(f)
        for sigma in battery2.sections[:8]:
            res = conn_trivial2.apply(sigma, db) - conn_poly2.apply(sigma, db)
            assert res.is_zero()


# -- induced linear connection ----------------------------------------------------------

def test_induced_connection_case_f(standard1, self_predual1, battery1):
    conn, _ = dc.build_connection(self_predual1, battery1)
    lin = dc.induced_linear_connection(conn, battery1)
    # with zero frame coefficients the derivative reduces to minus the bracket
    b = self_predual1.frame[0]
    e = standard1.frame[1].scale(S1("x1"))
    emb = standard1.frame[0]
    got = lin.apply(b, e)
    assert got == lin._to_section(conn.apply(e, b)) - conn.alg.bracket(e, emb)
    # tensoriality in the bundle slot
    assert lin.apply(b.scale(S1("x1")), e) == lin.apply(b, e).scale(S1("x1"))


def test_induced_connection_case_k(standard1, battery1):
    conn, _ = dc.build_connection(kernel_line(standard1, Scalar.zero(1)), battery1)
    lin = dc.induced_linear_connection(conn, battery1)
    assert dc.verify_linear_connection(lin, battery1).passed


def test_induced_connection_adapted_frame_gate(standard2, battery2):
    conn, _ = dc.build_connection(full_rank_predual(standard2), battery2)
    with pytest.raises(PreconditionError):
        dc.induced_linear_connection(conn, battery2)


def test_compatibility_identity(conn_poly2, battery2):
    lin = dc.induced_linear_connection(conn_poly2, battery2)
    assert dc.compatibility_check(conn_poly2, lin, battery2).passed


def test_linear_connection_laws(conn_poly2, battery2):
    lin = dc.induced_linear_connection(conn_poly2, battery2)
    assert dc.verify_linear_connection(lin, battery2).passed


# -- dual connection ---------------------------------------------------------------------

def dual_covector(dual, seeds):
    return dual.bundle.element([random_polynomial(dual.alg.n, 1, s) for s in seeds])


def test_dual_defining_identity(standard2, conn_poly2, battery2):
    dual = dc.TensorConnection(conn_poly2, 0, 1)
    bundle, pair = conn_poly2.bundle, dual.bundle.contract
    beta = dual_covector(dual, (21, 22, 23, 24))
    b = bundle.element([random_polynomial(2, 1, 31 + i) for i in range(4)])
    for sigma in battery2.sections[:10]:
        lhs = standard2.anchor_apply(sigma, pair(beta, b))
        rhs = pair(dual.apply(sigma, beta), b) + pair(beta, conn_poly2.apply(sigma, b))
        assert (lhs - rhs).is_zero()


def test_dual_scaling_law(standard2, conn_poly2, battery2):
    dual = dc.TensorConnection(conn_poly2, 0, 1)
    bundle = conn_poly2.bundle
    beta = dual_covector(dual, (41, 42, 43, 44))
    f = S2("x1*x2")
    for sigma in list(standard2.frame) + battery2.randoms[:1]:
        lhs = dual.apply(sigma.scale(f), beta)
        base = dual.apply(sigma, beta)
        coeff = dual.bundle.contract(beta, bundle.d_B(f))
        covector = dual.bundle.element([
            sum((bundle.pairing_matrix[j][k] * sigma.components[k]
                 for k in range(standard2.rank)), Scalar.zero(2))
            for j in range(bundle.rank)])
        assert (lhs - (base.scale(f) - covector.scale(coeff))).is_zero()


def test_dual_zero_gamma_constant_anchor(standard1, self_predual1, battery1):
    conn, _ = dc.build_connection(self_predual1, battery1)
    dual = dc.TensorConnection(conn, 0, 1)
    # the frame coefficients of the dual connection vanish
    assert all(dual.apply(e, beta).is_zero()
               for e in standard1.frame for beta in dual.bundle.frame)
    beta = dual.bundle.element([Scalar.one(1), Scalar.zero(1)])
    assert dual.apply(standard1.frame[0], beta).is_zero()


def dual_curvature(dual, e1, e2, beta):
    """R0 of the dual connection: the square of its covariant differential."""
    square = dc.covariant_differential(
        dual, dc.covariant_differential(dual, dc.b_leaf(dual.bundle, beta)))
    return dc.evaluateB(square, 0, (e1, e2))


def test_dual_curvature_duality(standard2, conn_poly2, battery2):
    dual = dc.TensorConnection(conn_poly2, 0, 1)
    bundle, pair = conn_poly2.bundle, dual.bundle.contract
    beta = dual.bundle.frame[2]
    b = bundle.element([S2("x1"), S2("1"), S2("x2^2"), S2("0")])
    for e1, e2 in list(battery2.section_tuples(2))[:30]:
        lhs = pair(dual_curvature(dual, e1, e2, beta), b)
        rhs = pair(beta, dc.curvature_R0(conn_poly2, e1, e2, b))
        assert (lhs + rhs).is_zero()


# -- endomorphism connection ----------------------------------------------------------------

def endomorphism(bundle, rows):
    """The endomorphism of bundle with the given matrix rows, in T^{1,1}."""
    return dc.TensorBundle.of(bundle, 1, 1).element([x for row in rows for x in row])


def test_endomorphism_prints_its_matrix_rows():
    bundle = dc._self_predual(build_standard(1))
    m = endomorphism(bundle, [[S1("1"), S1("0")], [S1("x1"), S1("-1")]])
    assert str(m) == "[[1, 0], [x1, -1]]"


def rows_of(m):
    s = m.module.base.rank
    return [list(m.components[k:k + s]) for k in range(0, m.module.rank, s)]


def test_endo_identity_matrix_is_parallel(conn_poly2, battery2):
    end = dc.TensorConnection(conn_poly2, 1, 1)
    eye = endomorphism(conn_poly2.bundle, linalg.mat_identity(4, 2))
    for sigma in battery2.sections[:8]:
        assert end.apply(sigma, eye).is_zero()


def test_endo_leibniz_property(standard2, conn_poly2, battery2):
    # scaling an endomorphism: derivative picks up an anchor term
    end = dc.TensorConnection(conn_poly2, 1, 1)
    m = endomorphism(conn_poly2.bundle,
                     [[random_polynomial(2, 1, 50 + 4 * i + j) for j in range(4)]
                      for i in range(4)])
    f = S2("x1")
    for sigma in list(standard2.frame) + battery2.randoms[:1]:
        lhs = end.apply(sigma, m.scale(f))
        rhs = end.apply(sigma, m).scale(f) + m.scale(standard2.anchor_apply(sigma, f))
        assert (lhs - rhs).is_zero()


def test_endo_preserves_derivation_image_maps(standard2, conn_poly2, battery2):
    # endomorphism with image inside the derivation images stays there
    end = dc.TensorConnection(conn_poly2, 1, 1)
    bundle = conn_poly2.bundle
    db = bundle.d_B(S2("x1*x2"))
    covector = [S2("1"), S2("x1"), S2("0"), S2("2")]
    m = endomorphism(bundle, [[x * c for c in covector] for x in db.components])
    span = [list(bundle.d_B(f).components)
            for f in (S2("x1"), S2("x2"), S2("x1*x2"), S2("x1^2"), S2("x2^2"))]
    base_rank = linalg.rank(span)
    for sigma in list(standard2.frame)[:2]:
        out = end.apply(sigma, m)
        for b in bundle.test_elements()[:6]:
            assert linalg.rank(span + [list(out.module.contract(out, b).components)]) \
                == base_rank


# -- curvature -------------------------------------------------------------------------------

def test_hessian_curvature_oracle(standard2, conn_trivial2):
    f = S2("x1^2*x2 + x2^3")
    bundle = conn_trivial2.bundle
    y = [S2("x2"), S2("x1*x1")]
    eta = [S2("1"), S2("x1")]
    b = bundle.element(y + eta)
    hess = [[f.partial(i + 1).partial(j + 1) for j in range(2)]
            for i in range(2)]
    want = bundle.element([Scalar.zero(2), Scalar.zero(2),
                           hess[0][0] * y[0] + hess[0][1] * y[1],
                           hess[1][0] * y[0] + hess[1][1] * y[1]])
    assert dc.curvature_R1(conn_trivial2, f, b) == want


def test_curvature_kills_derivation_images(conn_poly2, battery2):
    bundle = conn_poly2.bundle
    for g in (S2("x1"), S2("x1*x2^2"), S2("x2")):
        db = bundle.d_B(g)
        for e1, e2 in list(battery2.section_tuples(2))[:20]:
            assert dc.curvature_R0(conn_poly2, e1, e2, db).is_zero()
        for f in (S2("x1"), S2("x2*x2")):
            assert dc.curvature_R1(conn_poly2, f, db).is_zero()


def test_curvature_R1_of_constant_vanishes(conn_poly2):
    b = conn_poly2.bundle.element([S2("x1"), S2("0"), S2("1"), S2("x2")])
    assert dc.curvature_R1(conn_poly2, Scalar.const(2, 4), b).is_zero()


def test_curvature_laws_share_one_evaluation_context(conn_poly2, monkeypatch):
    made = []

    class CountingContext(co.EvalContext):
        __slots__ = ()

        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(dc, "EvalContext", CountingContext)
    monkeypatch.setattr(co, "EvalContext", CountingContext)
    report = dc.curvature_laws(conn_poly2,
                               Battery(conn_poly2.alg, degree=1, extras=1))
    assert report.passed, report
    assert len(made) == 1


def test_contracted_square_is_R1(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("x1"), S2("x2"), S2("1"), S2("x1*x2")])
    dd = dc.covariant_differential(
        conn_poly2, dc.covariant_differential(conn_poly2, dc.b_leaf(bundle, b)))
    for f in (S2("x1"), S2("x2^2"), S2("x1*x2")):
        lhs = dc.evaluateB(dc.interior_f_b(f, dd), 0, ())
        assert (lhs - dc.curvature_R1(conn_poly2, f, b)).is_zero()


def test_double_contraction_is_R0(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("0"), S2("x2"), S2("x1"), S2("1")])
    dd = dc.covariant_differential(
        conn_poly2, dc.covariant_differential(conn_poly2, dc.b_leaf(bundle, b)))
    for e1, e2 in list(battery2.section_tuples(2))[:25]:
        lhs = dc.evaluateB(dc.interior_e_b(e2, dc.interior_e_b(e1, dd)), 0, ())
        assert (lhs - dc.curvature_R0(conn_poly2, e1, e2, b)).is_zero()


def test_squared_differential_function_linear(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("x2"), S2("0"), S2("x1"), S2("1")])
    f = S2("x1*x2")
    dd = dc.covariant_differential(
        conn_poly2, dc.covariant_differential(conn_poly2, dc.b_leaf(bundle, b)))
    dds = dc.covariant_differential(
        conn_poly2,
        dc.covariant_differential(conn_poly2, dc.b_leaf(bundle, b.scale(f))))
    for pair in list(battery2.section_tuples(2, reduced=True))[:30]:
        assert (dc.evaluateB(dds, 0, pair)
                - dc.evaluateB(dd, 0, pair).scale(f)).is_zero()
    for g in (S2("x1"), S2("x2")):
        assert (dc.evaluateB(dds, 1, (), (g,))
                - dc.evaluateB(dd, 1, (), (g,)).scale(f)).is_zero()


def test_curvature_symbol_identities(conn_poly2, battery2):
    lin = dc.induced_linear_connection(conn_poly2, battery2)
    assert dc.curvature_symbol_checks(conn_poly2, lin, battery2).passed


def test_curvature_symbols_vanish_for_constants(conn_poly2, battery2):
    lin = dc.induced_linear_connection(conn_poly2, battery2)
    bundle = conn_poly2.bundle
    b = bundle.frame[1]
    c = Scalar.const(2, 3)
    e1, e2 = conn_poly2.alg.frame[0], conn_poly2.alg.frame[2]
    lhs = dc.curvature_R0(conn_poly2, e1, e2.scale(c), b) - \
        dc.curvature_R0(conn_poly2, e1, e2, b).scale(c)
    assert lhs.is_zero()


# -- value-level cochain laws -------------------------------------------------------------

def test_covariant_leibniz_for_tensors(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("x1"), S2("0"), S2("x2^2"), S2("1")])
    w = co.mul(co.section_leaf(standard2, standard2.frame[0].scale(S2("x1"))),
               co.section_leaf(standard2, standard2.frame[3]))
    lhs = dc.covariant_differential(conn_poly2, dc.tensor(w, bundle, b))
    rhs = [(1, dc.tensor(co.differential(w), bundle, b)),
           ((-1) ** w.degree,
            dc.product_b(w, dc.covariant_differential(
                conn_poly2, dc.b_leaf(bundle, b))))]
    res = dc.equal_b([(1, lhs)], rhs, battery2)
    assert res.equal, (res.witness, res.residual)
    assert res.checked > 0


def test_nabla_product_rule(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("0"), S2("x2"), S2("1"), S2("x1")])
    w = co.mul(co.section_leaf(standard2, standard2.frame[1]),
               co.section_leaf(standard2, standard2.frame[2]))
    t = dc.tensor(w, bundle, b)
    for e in list(standard2.frame)[:3] + battery2.randoms[:1]:
        lhs = dc.nabla_e(conn_poly2, e, t)
        rhs = [(1, dc.tensor(co.lie_e(e, w), bundle, b)),
               (1, dc.product_b(w, dc.b_leaf(bundle, conn_poly2.apply(e, b))))]
        res = dc.equal_b([(1, lhs)], rhs, battery2)
        assert res.equal, (res.witness, res.residual)


def test_lie_f_nabla_rule(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("x2"), S2("1"), S2("0"), S2("x1")])
    w = co.mul(co.section_leaf(standard2, standard2.frame[0]),
               co.section_leaf(standard2, standard2.frame[2].scale(S2("x2"))))
    t = dc.tensor(w, bundle, b)
    for f in (S2("x1"), S2("x1*x2")):
        lhs = dc.lie_f_nabla(conn_poly2, f, t)
        rhs = [(1, dc.tensor(co.interior_e(standard2.d_E(f), w), bundle, b))]
        res = dc.equal_b([(1, lhs)], rhs, battery2)
        assert res.equal, (res.witness, res.residual)


def test_nabla_interior_commutator(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("1"), S2("x1"), S2("x2"), S2("0")])
    h = dc.covariant_differential(conn_poly2, dc.b_leaf(bundle, b))
    for e1 in list(standard2.frame)[:2] + battery2.randoms[:1]:
        for e2 in list(standard2.frame)[1:3]:
            lhs = [(1, dc.nabla_e(conn_poly2, e1, dc.interior_e_b(e2, h))),
                   (-1, dc.interior_e_b(e2, dc.nabla_e(conn_poly2, e1, h)))]
            rhs = [(1, dc.interior_e_b(standard2.bracket(e1, e2), h))]
            res = dc.equal_b(lhs, rhs, battery2)
            assert res.equal, (res.witness, res.residual)


def test_interior_f_product_rule(standard2, conn_poly2, battery2):
    bundle = conn_poly2.bundle
    b = bundle.element([S2("x1"), S2("x2"), S2("0"), S2("1")])
    w = co.mul(co.differential(co.section_leaf(standard2, standard2.frame[0])),
               co.section_leaf(standard2, standard2.frame[1]))
    db = dc.covariant_differential(conn_poly2, dc.b_leaf(bundle, b))
    f = S2("x1")
    lhs = dc.interior_f_b(f, dc.product_b(w, db))
    rhs = [(1, dc.product_b(co.interior_f(f, w), db)),
           (1, dc.product_b(w, dc.interior_f_b(f, db)))]
    res = dc.equal_b([(1, lhs)], rhs, battery2)
    assert res.equal, (res.witness, res.residual)


# -- Bianchi and flatness -----------------------------------------------------------------

def test_bianchi_trivial(conn_trivial2, battery2):
    assert dc.bianchi_check(conn_trivial2, battery2).passed


def test_bianchi_polynomial(conn_poly2, battery2):
    assert dc.bianchi_check(conn_poly2, battery2).passed


@pytest.mark.parametrize("suite, name", [
    (dc.bianchi_check, "dual-curvature-duality"),
    (lambda conn, battery: dc.curvature_laws(conn, battery),
     "squared-differential-linear-over-functions"),
])
def test_a_failing_check_computes_nothing_past_its_witness(conn_poly2, suite, name,
                                                           monkeypatch):
    # the check is made to fail at its first tuple; while the runner counts
    # the tuples after it, no square may be evaluated and nothing scaled
    battery = Battery(conn_poly2.alg, degree=1, extras=1)
    passing = suite(conn_poly2, battery)[name]
    assert passing.passed

    past, late = [False], []
    run_check, evaluate, scale = dc.run_check, dc.evaluate, Section.scale

    def failing_run_check(report, check, tuples, sides, witness):
        if check != name:
            return run_check(report, check, tuples, sides, witness)

        def fail_first(*t):
            sides(*t)
            past[0] = True
            return 1, 0

        try:
            return run_check(report, check, tuples, fail_first, witness)
        finally:
            past[0] = False

    def spy_evaluate(*args, **kwargs):
        if past[0]:
            late.append("evaluate")
        return evaluate(*args, **kwargs)

    def spy_scale(self, f):
        if past[0]:
            late.append("scale")
        return scale(self, f)

    monkeypatch.setattr(dc, "run_check", failing_run_check)
    monkeypatch.setattr(dc, "evaluate", spy_evaluate)
    monkeypatch.setattr(Section, "scale", spy_scale)
    failing = suite(conn_poly2, battery)[name]
    assert (failing.passed, failing.residual) == (False, "1")
    assert failing.checked == passing.checked
    assert late == []


def commutator_rows(r, m):
    r, m = rows_of(r), rows_of(m)
    return [[x - y for x, y in zip(ra, rb)]
            for ra, rb in zip(linalg.mat_mul(r, m), linalg.mat_mul(m, r))]


def test_endo_curvature_is_commutator(standard2, conn_poly2, battery2):
    # the endomorphism-valued curvature acts by commutator with the plain one
    end = dc.TensorConnection(conn_poly2, 1, 1)
    m = endomorphism(conn_poly2.bundle,
                     [[random_polynomial(2, 1, 70 + 4 * i + j) for j in range(4)]
                      for i in range(4)])
    curvature = dc.curvature(conn_poly2)
    for e1, e2 in list(battery2.section_tuples(2))[:12]:
        r0 = dc.evaluateB(curvature, 0, (e1, e2))
        direct = (end.apply(e1, end.apply(e2, m)) - end.apply(e2, end.apply(e1, m))
                  - end.apply(standard2.bracket(e1, e2), m))
        assert linalg.mat_eq(rows_of(direct), commutator_rows(r0, m))


def test_endo_function_curvature_is_commutator(standard2, conn_poly2):
    end = dc.TensorConnection(conn_poly2, 1, 1)
    m = endomorphism(conn_poly2.bundle,
                     [[random_polynomial(2, 1, 80 + 4 * i + j) for j in range(4)]
                      for i in range(4)])
    curvature = dc.curvature(conn_poly2)
    for f in (S2("x1"), S2("x1*x2"), S2("x2^2")):
        r1 = dc.evaluateB(curvature, 1, (), (f,))
        direct = end.apply(standard2.d_E(f), m)
        assert linalg.mat_eq(rows_of(direct), commutator_rows(r1, m))


def test_curvature_columns_are_the_curvature_operators(conn_poly2, battery2):
    bundle = conn_poly2.bundle
    curvature = dc.curvature(conn_poly2)
    b = bundle.element([S2("x1"), S2("x2"), S2("1"), S2("x1*x2")])
    for e1, e2 in list(battery2.section_tuples(2))[:10]:
        r0 = dc.evaluateB(curvature, 0, (e1, e2))
        assert r0.module.contract(r0, b) == dc.curvature_R0(conn_poly2, e1, e2, b)
    f = S2("x1^2*x2")
    r1 = dc.evaluateB(curvature, 1, (), (f,))
    assert r1.module.contract(r1, b) == dc.curvature_R1(conn_poly2, f, b)


def test_bianchi_residual_is_the_covariant_differential_of_curvature():
    # the negative control of the golden reports: an su(2) connection over an
    # algebroid that fails Jacobi fails d_nabla~ R = 0 at e1, e2, e3
    def load(kind):
        return json.loads((GOLDEN / f"bianchi_bad_{kind}.json").read_text())

    alg = algebroid_from_json(load("algebroid"))
    conn = dc.connection_from_json(dc.predual_from_json(alg, load("predual")),
                                   load("connection"))
    bad = dc.bianchi_check(conn, Battery(alg))["degree-3-component"]
    assert not bad.passed and bad.witness == "e1 , e2 , e3"
    value = dc.evaluateB(dc.covariant_differential(dc.TensorConnection(conn, 1, 1),
                                                   dc.curvature(conn)),
                         0, alg.frame)
    assert bad.residual == str(value) == linalg.mat_str(rows_of(value)) \
        == "[[0, 0, 0], [0, 0, -1], [0, 1, 0]]"
    assert rows_of(value)[1][2] == Scalar.const(0, -1)


def test_flatness_propagates_to_dual_and_endomorphisms(standard2):
    # the quotient connection of an involutive Lagrangian subbundle is flat;
    # its dual and its endomorphism extension must then be flat as well
    sections = [standard2.frame[0], standard2.frame[1]]
    bundle, conn, report = dc.bott_connection(standard2, sections)
    assert report.passed
    battery = Battery(bundle.alg)
    dual = dc.TensorConnection(conn, 0, 1)
    beta = dual.bundle.element([S2("x1"), S2("1 - x2")])
    m = endomorphism(bundle, [[S2("x1"), S2("0")], [S2("x2^2"), S2("1")]])
    curvature = dc.curvature(conn)
    for e1, e2 in list(battery.section_tuples(2))[:30]:
        assert dual_curvature(dual, e1, e2, beta).is_zero()
        r0 = dc.evaluateB(curvature, 0, (e1, e2))
        assert linalg.mat_is_zero(commutator_rows(r0, m))


# -- tensor bundles T^{p,q}(B) --------------------------------------------------------------

TENSOR_TYPES = [(0, 1), (1, 1), (0, 2), (2, 0)]


@pytest.fixture(scope="module")
def conn_file2(standard2):
    """The Dorfman connection of demos/data/christoffel_poly2.json."""
    doc = json.loads((DATA / "christoffel_poly2.json").read_text())
    return dc.build_standard_connection(standard2, dc.christoffel_from_json(doc, 2))


def slotwise(bundle, mat, t, flip_lower=False):
    """The endomorphism of B with rows mat[j], the image of e_j, acting on t
    in T^{p,q}(B) as a derivation: by mat on each upper slot and by minus its
    transpose on each lower slot (plus it, with flip_lower), written out over
    the index tuples of the product frame."""
    s, p, q = bundle.base.rank, bundle.p, bundle.q
    index = list(product(range(s), repeat=p + q))
    position = {idx: k for k, idx in enumerate(index)}
    out = [Scalar.zero(bundle.alg.n)] * len(index)
    for idx, c in zip(index, t.components):
        for slot in range(p + q):
            for m in range(s):
                k = position[idx[:slot] + (m,) + idx[slot + 1:]]
                if slot < p:
                    out[k] = out[k] + mat[idx[slot]][m] * c
                elif flip_lower:
                    out[k] = out[k] + mat[m][idx[slot]] * c
                else:
                    out[k] = out[k] - mat[m][idx[slot]] * c
    return bundle.element(out)


class FlippedLower:
    """A connection on T^{p,q}(B) that is not the induced one: the derivation
    rule with the sign of its lower-slot term flipped."""

    def __init__(self, conn, p, q):
        self.conn, self.alg = conn, conn.alg
        self.bundle = dc.TensorBundle.of(conn.bundle, p, q)

    def apply(self, sigma, t):
        a = [self.conn.apply(sigma, e).components for e in self.conn.bundle.frame]
        rho = self.bundle.element([self.alg.anchor_apply(sigma, c) for c in t.components])
        return rho + slotwise(self.bundle, a, t, flip_lower=True)


def tensor_curvature_report(tc, battery):
    """The curvature operators R0 and R1 of a connection tc on T^{p,q}(B)
    against the slot-wise derivation extension of those of B's connection."""
    conn, bundle = tc.conn, tc.bundle
    frame = conn.bundle.frame
    elements = list(bundle.frame[:2]) + [bundle.element(
        [random_polynomial(2, 1, 300 + k) for k in range(bundle.rank)])]
    report = Report(f"curvature on T^{bundle.p},{bundle.q}")

    def r0(e1, e2, t):
        mat = [dc.curvature_R0(conn, e1, e2, e).components for e in frame]
        return dc.curvature_R0(tc, e1, e2, t), slotwise(bundle, mat, t)

    def r1(f, t):
        mat = [dc.curvature_R1(conn, f, e).components for e in frame]
        return dc.curvature_R1(tc, f, t), slotwise(bundle, mat, t)

    pairs = list(battery.section_tuples(2, reduced=True))
    # B's curvature does not vanish on the sample, so the check is not 0 = 0
    assert any(not dc.curvature_R0(conn, e1, e2, e).is_zero()
               for e1, e2 in pairs for e in frame)
    run_check(report, "R0-is-the-slotwise-extension",
              ((e1, e2, t) for e1, e2 in pairs for t in elements), r0,
              lambda e1, e2, t: f"{battery.label(e1)}, {battery.label(e2)}, t={t}")
    run_check(report, "R1-is-the-slotwise-extension",
              ((f, t) for f in battery.functions for t in elements), r1,
              lambda f, t: f"f={f}, t={t}")
    return report


@pytest.mark.parametrize("p,q", TENSOR_TYPES)
def test_slotwise_rule_over_index_tuples_is_the_induced_connection(
        standard2, conn_file2, p, q):
    tc = dc.TensorConnection(conn_file2, p, q)
    t = tc.bundle.element([random_polynomial(2, 1, 400 + k) for k in range(tc.bundle.rank)])
    for sigma in Battery(standard2, degree=1, extras=1).sections:
        a = [conn_file2.apply(sigma, e).components for e in conn_file2.bundle.frame]
        rho = tc.bundle.element([standard2.anchor_apply(sigma, c) for c in t.components])
        assert tc.apply(sigma, t) == rho + slotwise(tc.bundle, a, t)


@pytest.mark.parametrize("p,q", TENSOR_TYPES)
def test_tensor_curvature_is_the_slotwise_extension(standard2, conn_file2, p, q):
    report = tensor_curvature_report(dc.TensorConnection(conn_file2, p, q),
                                     Battery(standard2, degree=1, extras=1))
    assert report.passed, report
    assert all(c.checked > 0 for c in report.checks)


def test_flipped_lower_slot_fails_the_curvature_identity(standard2, conn_file2):
    # the negative control: flipping the sign of the lower-slot term breaks
    # the identity wherever there is a lower slot.  It does not break the
    # Bianchi identity, which holds for the flipped connection as well: d of
    # the curvature of any connection additive in sigma vanishes by the
    # Jacobi identity of the bracket
    report = tensor_curvature_report(FlippedLower(conn_file2, 0, 2),
                                     Battery(standard2, degree=1, extras=1))
    assert not report["R0-is-the-slotwise-extension"].passed
    assert not report["R1-is-the-slotwise-extension"].passed


def test_bianchi_on_t02_through_the_dag(standard2, conn_file2):
    # R_T is End(T)-valued, T = T^{0,2}(B), and End(T) is T^{1,1}(T), so the
    # connection d_nabla~ is taken along is the tensor rule applied twice
    tc = dc.TensorConnection(conn_file2, 0, 2)
    curvature = dc.curvature(tc)
    bianchi = co.differential(curvature, dc.TensorConnection(tc, 1, 1))
    battery = Battery(standard2, degree=1, extras=1)
    ctx = co.EvalContext()
    assert any(not co.evaluate(curvature, 0, pair, (), ctx).is_zero()
               for pair in battery.section_tuples(2))
    report = Report("Bianchi identity on T^0,2")
    run_check(report, "degree-3-component", battery.section_tuples(3, reduced=True),
              lambda *secs: (co.evaluate(bianchi, 0, secs, (), ctx), bianchi.zero),
              lambda *secs: " , ".join(battery.describe(secs)))
    run_check(report, "function-component",
              ((sigma, f) for (sigma,) in battery.section_tuples(1)
               for f in battery.functions),
              lambda sigma, f: (co.evaluate(bianchi, 1, (sigma,), (f,), ctx),
                                bianchi.zero),
              lambda sigma, f: f"{battery.label(sigma)}, f={f}")
    assert report.passed, report
    assert all(c.checked > 0 for c in report.checks)


# -- quotient (Bott) connection --------------------------------------------------------------

def test_bott_tangent_distribution(standard2):
    sections = [standard2.frame[0], standard2.frame[1]]
    bundle, conn, report = dc.bott_connection(standard2, sections)
    assert report.passed
    # the quotient derivative along tangent frames is the coordinate Lie
    # derivative of the cotangent class
    got = conn.apply(bundle.alg.frame[0],
                     bundle.frame[0].scale(parse_scalar("x1", 2)))
    assert got == bundle.element([Scalar.one(2), Scalar.zero(2)])


def test_bott_graph_of_constant_closed_two_form(standard2):
    rows = [["1", "0", "0", "3"], ["0", "1", "-3", "0"]]
    sections = [standard2.element_from_strings(r) for r in rows]
    bundle, conn, report = dc.bott_connection(standard2, sections)
    assert report.passed


def two_form_graph(alg, c):
    """Spanning sections of the graph of c dx1^dx2 on standard(2)."""
    zero, one = Scalar.zero(2), Scalar.one(2)
    return [alg.element([one, zero, zero, c]), alg.element([zero, one, -c, zero])]


def test_bott_graph_of_x1_two_form_has_polynomial_gamma(standard2):
    # the quotient is L*, so no complement frame can degenerate where x1 = 0
    bundle, conn, report = dc.bott_connection(
        standard2, two_form_graph(standard2, S2("x1")), battery_degree=1, extras=1)
    assert report.passed
    assert all(x.is_polynomial() for row in conn.gamma for cell in row for x in cell)


def test_bott_poisson_graph_gamma_is_coadjoint(standard2):
    # graph of f d1^d2: [l1, l2] = (d1 f) l1 + (d2 f) l2, and the coadjoint
    # connection holds minus these structure functions, transposed
    f = S2("x1*x2 + 1")
    zero, one = Scalar.zero(2), Scalar.one(2)
    sections = [standard2.element([zero, f, one, zero]),
                standard2.element([-f, zero, zero, one])]
    bundle, conn, report = dc.bott_connection(standard2, sections,
                                              battery_degree=1, extras=1)
    assert report.passed
    assert [[[str(x) for x in cell] for cell in row] for row in conn.gamma] == \
        [[["0", "-x2"], ["0", "-x1"]], [["x2", "0"], ["x1", "0"]]]
    assert report["duality-with-the-bracket"].checked == 175


def test_bott_rejects_non_isotropic(standard2):
    with pytest.raises(PreconditionError, match="isotropic"):
        dc.bott_connection(standard2, [standard2.frame[0], standard2.frame[2]])


def test_bott_rejects_wrong_rank(standard2):
    with pytest.raises(PreconditionError):
        dc.bott_connection(standard2, [standard2.frame[0]])
    with pytest.raises(PreconditionError):
        dc.bott_connection(standard2, [standard2.frame[0],
                                       standard2.frame[0].scale(S2("x1"))])


def test_bott_rejects_non_involutive():
    # graph of a non-closed two-form on a three-dimensional base
    alg = build_standard(3)
    x3 = parse_scalar("x3", 3)
    zero, one = Scalar.zero(3), Scalar.one(3)
    rows = [
        [one, zero, zero, zero, x3, zero],
        [zero, one, zero, -x3, zero, zero],
        [zero, zero, one, zero, zero, zero],
    ]
    sections = [alg.element(r) for r in rows]
    with pytest.raises(PreconditionError, match="involutive"):
        dc.bott_connection(alg, sections)


# -- serialization ------------------------------------------------------------------------

def test_connection_json_round_trip(conn_poly2, battery2):
    doc = dc.connection_to_json(conn_poly2)
    again = dc.connection_from_json(conn_poly2.bundle, doc)
    assert again.gamma == conn_poly2.gamma


def test_christoffel_from_json():
    doc = {"gamma": {"1,1": ["x1", "0"], "2,2": ["0", "1/2"]}}
    ch = dc.christoffel_from_json(doc, 2)
    assert ch[0][0][0] == S2("x1")
    assert ch[1][1][1] == S2("1/2")
    assert ch[0][1][0].is_zero()
