from types import SimpleNamespace

import pytest

from courantcalc import algebroid, scalar
from courantcalc.algebroid import (
    CourantAlgebroid,
    _derivative,
    algebroid_from_json,
    algebroid_to_json,
    build_from_structure_data,
    build_port_hamiltonian,
    build_quadratic_lie_algebra,
    build_standard,
    verify_axioms,
)
from courantcalc.battery import Battery
from courantcalc.report import PreconditionError
from courantcalc.scalar import Scalar, parse_scalar


def sec(alg, *strings):
    return alg.element_from_strings(strings)


# -- pairing ------------------------------------------------------------------

def test_standard_pairing_couples_the_blocks(standard2):
    d1 = sec(standard2, "1", "0", "0", "0")
    dx1 = sec(standard2, "0", "0", "1", "0")
    assert standard2.pairing(d1, dx1) == Scalar.one(2)
    assert standard2.pairing(d1, d1).is_zero()


def test_pairing_with_zero_section(standard2):
    s = sec(standard2, "x1", "x2^2", "1", "0")
    assert standard2.pairing(s, standard2.zero()).is_zero()


def test_su2_off_diagonal(su2):
    assert su2.pairing(su2.frame[0], su2.frame[1]).is_zero()


def test_pairing_dimension_mismatch(standard1, standard2):
    with pytest.raises(PreconditionError):
        standard2.pairing(standard2.frame[0], standard1.frame[0])


# -- anchor ----------------------------------------------------------------------

def test_anchor_projects_to_first_block(standard1):
    f = parse_scalar("x1^2", 1)
    assert standard1.anchor_apply(standard1.frame[0], f) == parse_scalar("2*x1", 1)
    assert standard1.anchor_apply(standard1.frame[1], f).is_zero()


def test_anchor_over_a_point(su2):
    f = Scalar.const(0, 5)
    assert su2.anchor_apply(su2.frame[0], f).is_zero()


# -- dual differential --------------------------------------------------------------

def test_dual_differential_standard(standard1):
    d = standard1.d_E(parse_scalar("x1", 1))
    assert d.components == (Scalar.zero(1), Scalar.one(1))
    assert standard1.d_E(Scalar.const(1, 7)).is_zero()


def test_dual_differential_over_a_point(su2):
    assert su2.d_E(Scalar.const(0, 3)).is_zero()


def test_dual_differential_defining_property(standard2, battery2):
    f = parse_scalar("x1*x2^2 - x1", 2)
    d = standard2.d_E(f)
    for s in battery2.sections[:10]:
        assert standard2.pairing(d, s) == standard2.anchor_apply(s, f)


# -- bracket ---------------------------------------------------------------------

def test_bracket_standard_example(standard2):
    # derivative along the first coordinate direction of x1 dx1
    d1 = sec(standard2, "1", "0", "0", "0")
    t = sec(standard2, "0", "0", "x1", "0")
    assert standard2.bracket(d1, t) == sec(standard2, "0", "0", "1", "0")


def test_bracket_symmetric_part(standard2):
    # both sides of the squared bracket against the dual differential
    sigma = sec(standard2, "1", "0", "x1", "0")
    lhs = standard2.bracket(sigma, sigma)
    rhs = standard2.d_E(standard2.pairing(sigma, sigma)).scale(
        Scalar.const(2, 1) / Scalar.const(2, 2))
    assert lhs == rhs == sec(standard2, "0", "0", "1", "0")


def test_bracket_su2_structure_constants(su2):
    assert su2.bracket(su2.frame[0], su2.frame[1]) == su2.frame[2]
    assert su2.bracket(su2.frame[1], su2.frame[0]) == -su2.frame[2]


def test_standard_frame_brackets_vanish(standard2):
    for a in standard2.frame:
        for b in standard2.frame:
            assert standard2.bracket(a, b).is_zero()


def test_bracket_with_a_degenerate_pairing_has_no_dual_differential_term():
    # a singular pairing has no pairing-dual differential D, so the left
    # Leibniz rule loses its <s, t> D f term: [f s, t] = f [s, t] - rho(t)(f) s
    one, zero, x1 = Scalar.one(1), Scalar.zero(1), parse_scalar("x1", 1)
    alg = CourantAlgebroid(
        1, 2, [[one, zero], [zero, zero]], [[one, x1]],
        [[[zero, zero], [x1, one]], [[-x1, -one], [zero, zero]]],
        _allow_degenerate=True)
    assert alg.degenerate
    f = parse_scalar("x1^2 + 3", 1)
    for ei in alg.frame:
        for ej in alg.frame:
            want = alg.bracket(ei, ej).scale(f) - ei.scale(alg.anchor_apply(ej, f))
            assert alg.bracket(ei.scale(f), ej) == want
    assert alg.pairing(alg.frame[0], alg.frame[0]) == one


def _fold(n, pairs):
    """sum a*b over pairs, one product after another."""
    total = Scalar.zero(n)
    for a, b in pairs:
        total = total + a * b
    return total


def test_a_bracket_sums_each_component_once(monkeypatch):
    # every component of [rnd1, x1*x2*rnd2] is one sum of products, fused:
    # two nonzero scalars are added only where _bracket subtracts
    # rho(tau)(g_k), at most once per component (48 times as a fold)
    alg = build_standard(3)
    battery = Battery(alg)
    sigma = battery.randoms[0]
    tau = battery.randoms[1].scale(parse_scalar("x1*x2", 3))
    sums = []
    add = scalar._sum
    monkeypatch.setattr(scalar, "_sum", lambda *args: sums.append(args) or add(*args))
    got = alg._bracket(sigma, tau)
    assert 0 < len(sums) <= alg.rank
    monkeypatch.setattr(algebroid, "sum_of_products", _fold)
    assert alg._bracket(sigma, tau) == got


def test_a_d_term_whose_coefficient_cancels_is_dropped():
    # <e_0, b> = h_0 + h_1 = 0 although both pairings and both h_j are
    # nonzero: the D-term vanishes, and each component is the anchor
    # derivative alone, a sum of two products of multi-term factors
    S = lambda text: parse_scalar(text, 2)
    g = [S("x1^2 + x2"), S("0")]
    h = [S("x1^2 + x1*x2 + x2^2"), S("-x1^2 - x1*x2 - x2^2")]
    rho = [S("x1 + x2"), S("x1 - x2")]
    pairing = [[(0, S("1")), (1, S("1"))], []]
    d = lambda f: SimpleNamespace(components=(f.partial(1), f.partial(2)))
    got = algebroid._leibniz(g, h, rho, [[], []], pairing, d)
    assert got == [_derivative(rho, hq) for hq in h]


# -- verification -----------------------------------------------------------------

def test_standard_axioms_pass(standard2, battery2):
    assert verify_axioms(standard2, battery2).passed


def test_su2_axioms_pass(su2, battery_su2):
    assert verify_axioms(su2, battery_su2).passed


def test_abelian_point_axioms_pass():
    zero = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    alg = build_quadratic_lie_algebra(zero, eye)
    assert verify_axioms(alg, Battery(alg)).passed


def test_bracket_memo_keeps_only_battery_pairs():
    # verify_axioms brackets scaled sections, dual differentials and inner
    # brackets afresh; only pairs of battery sections, which recur from check
    # to check, stay in the algebroid's memo
    alg = build_standard(2)
    battery = Battery(alg)
    assert verify_axioms(alg, battery).passed
    sections = set(battery.sections)
    assert alg._bracket_cache
    assert all(a in sections and b in sections for a, b in alg._bracket_cache)


def test_bad_invariant_form_fails_compatibility_only(su2_bad_form):
    report = verify_axioms(su2_bad_form, Battery(su2_bad_form))
    assert not report.passed
    failed = {c.name for c in report.failed_checks()}
    assert failed == {"pairing-compatibility"}
    check = report["pairing-compatibility"]
    assert check.witness == "e1 , e2 , e3"
    assert check.residual == "1"


# -- builders -----------------------------------------------------------------------

def test_standard_shape():
    alg = build_standard(1)
    assert alg.rank == 2
    assert [[str(x) for x in row] for row in alg.pairing_matrix] == \
        [["0", "1"], ["1", "0"]]


def test_standard_rejects_zero_dimension():
    with pytest.raises(PreconditionError):
        build_standard(0)


def test_quadratic_builder_rejects_non_antisymmetric():
    c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(PreconditionError):
        build_quadratic_lie_algebra(c, [[1, 0], [0, 1]])


def test_structure_loader_round_trip(standard1):
    doc = algebroid_to_json(standard1)
    again = algebroid_from_json(doc)
    assert again.pairing_matrix == standard1.pairing_matrix
    assert again.anchor_matrix == standard1.anchor_matrix
    assert again.bracket_coeffs == standard1.bracket_coeffs


def test_structure_loader_rejects_nonconstant_determinant():
    n = 1
    g = [[parse_scalar("x1", n)]]
    with pytest.raises(PreconditionError):
        build_from_structure_data(n, 1, g, [[Scalar.zero(n)]],
                                  [[[Scalar.zero(n)]]])


def test_rank_one_algebroid():
    n = 1
    g = [[Scalar.const(n, 2)]]
    anchor = [[Scalar.zero(n)]]
    c = [[[Scalar.zero(n)]]]
    alg = build_from_structure_data(n, 1, g, anchor, c)
    assert verify_axioms(alg, Battery(alg)).passed


def test_anchor_isotropy_residual_prints_the_matrix_entries():
    # a rank-one algebroid whose anchor is not isotropic: rho rho* = [[1]]
    one, zero = Scalar.one(1), Scalar.zero(1)
    alg = build_from_structure_data(1, 1, [[one]], [[one]], [[[zero]]])
    check = verify_axioms(alg, Battery(alg))["anchor-isotropy-matrix-identity"]
    assert not check.passed and check.residual == "[[1]]"


def test_port_hamiltonian_axioms(port_hamiltonian11):
    assert verify_axioms(port_hamiltonian11, Battery(port_hamiltonian11)).passed


def test_port_hamiltonian_pairing(port_hamiltonian11):
    alg = port_hamiltonian11
    out_port = sec(alg, "0", "0", "1", "0")
    in_port = sec(alg, "0", "0", "0", "1")
    assert alg.pairing(out_port, in_port) == Scalar.one(1)
    assert alg.pairing(out_port, out_port).is_zero()


def test_port_hamiltonian_nonzero_connection_coefficients():
    theta = [[[parse_scalar("x1", 1)]]]
    alg = build_port_hamiltonian(1, 1, theta)
    assert verify_axioms(alg, Battery(alg)).passed


def test_port_hamiltonian_flatness_gate():
    theta = [[[parse_scalar("x2", 2)]], [[Scalar.zero(2)]]]
    with pytest.raises(PreconditionError):
        build_port_hamiltonian(2, 1, theta)


# -- battery-level invariants ---------------------------------------------------------

def test_symmetric_bracket_part_on_battery(standard2, battery2):
    for a, b in battery2.section_tuples(2):
        lhs = standard2.bracket(a, b) + standard2.bracket(b, a)
        rhs = standard2.d_E(standard2.pairing(a, b))
        assert lhs == rhs


def test_anchor_homomorphism_on_battery(standard2, battery2):
    f = parse_scalar("x1^2*x2", 2)
    for a, b in list(battery2.section_tuples(2))[:60]:
        lhs = standard2.anchor_apply(standard2.bracket(a, b), f)
        rhs = standard2.anchor_apply(a, standard2.anchor_apply(b, f)) - \
            standard2.anchor_apply(b, standard2.anchor_apply(a, f))
        assert lhs == rhs


# -- the anchor-derivative memo -------------------------------------------------

def _anchor_by_matrix(alg, sigma, f):
    """rho(sigma)(f) = sum_j sigma_j sum_l anchor[l][j] df/dx_l, from the matrix."""
    total = Scalar.zero(alg.n)
    for j, g in enumerate(sigma.components):
        for l in range(alg.n):
            total = total + g * alg.anchor_matrix[l][j] * f.partial(l + 1)
    return total


@pytest.mark.parametrize("build", [
    lambda: build_standard(2),
    lambda: build_port_hamiltonian(1, 1),
    lambda: build_port_hamiltonian(1, 1, [[[parse_scalar("x1", 1)]]]),
], ids=["standard2", "port_hamiltonian11", "port_hamiltonian11-theta-x1"])
def test_anchor_memo_matches_the_unmemoised_derivative(build):
    alg = build()
    battery = Battery(alg)
    checked = 0
    for a, b in list(battery.section_tuples(2))[:40]:
        # battery sections and a bracket, which is no battery section
        for sigma in (a, b, alg.bracket(a, b)):
            for f in battery.functions:
                value = alg.anchor_apply(sigma, f)
                assert value == _derivative(alg._anchor_row(sigma), f)
                assert value == _anchor_by_matrix(alg, sigma, f)
                assert alg.anchor_apply(sigma, f) is value
                # the memo is keyed by value: an equal section built anew hits it
                twin = alg.element(sigma.components)
                assert twin is not sigma and alg.anchor_apply(twin, f) is value
                checked += 1
    assert checked > 100
