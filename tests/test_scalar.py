from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courantcalc import scalar
from courantcalc.scalar import (
    ParseError,
    PoleError,
    Scalar,
    ScalarError,
    monomials_up_to,
    parse_scalar,
    random_polynomial,
)


def S(text, n=2):
    return parse_scalar(text, n)


# -- arithmetic ---------------------------------------------------------------

def test_polynomial_factor_cancellation():
    assert S("(x1^2 - x2^2)/(x1 - x2)") == S("x1 + x2")


def test_multiplicative_identity():
    a = S("2*x1^2*x2 - 1/3")
    assert a * Scalar.one(2) == a


def test_rational_constants():
    third = Scalar.const(0, Fraction(1, 3))
    sixth = Scalar.const(0, Fraction(1, 6))
    assert third + sixth == Scalar.const(0, Fraction(1, 2))


def test_division_by_zero_scalar():
    with pytest.raises(ScalarError):
        S("x1") / Scalar.zero(2)


def test_nested_rational_normal_form():
    a = S("x1") / S("x1 + x2")
    b = S("x2") / S("x1 + x2")
    assert a + b == Scalar.one(2)
    assert (a / b) == S("x1") / S("x2")


# -- partial derivatives ------------------------------------------------------

def test_partial_examples():
    assert S("x1^2*x2").partial(1) == S("2*x1*x2")
    assert S("x1").partial(2).is_zero()
    inv = Scalar.one(2) / S("x1")
    assert inv.partial(1) == S("-1") / S("x1^2")


def test_partial_is_kept_on_the_scalar():
    s = S("x1^3*x2/(x1 + x2^2)")
    d1 = s.partial(1)
    assert s.partial(1) is d1
    assert s.partial(2) is s.partial(2) and s.partial(2) != d1
    fresh = S("x1^3*x2/(x1 + x2^2)")
    assert fresh is not s
    assert fresh.partial(1) == d1 and fresh.partial(2) == s.partial(2)


def test_partial_out_of_range():
    with pytest.raises(ScalarError):
        S("x1").partial(3)


# -- evaluation ---------------------------------------------------------------

def test_evaluate():
    assert S("x1*x2").evaluate([2, 3]) == 6
    assert Scalar.const(2, 5).evaluate([7, -1]) == 5


def test_evaluate_pole():
    with pytest.raises(PoleError):
        (Scalar.one(2) / S("x1")).evaluate([0, 1])


# -- seeded generation ----------------------------------------------------------

def test_random_polynomial_deterministic():
    a = random_polynomial(2, 0, 11)
    assert a.is_constant()
    assert random_polynomial(2, 0, 11) == a
    b = random_polynomial(2, 2, 5)
    assert random_polynomial(2, 2, 5) == b


def test_random_polynomial_seed_sensitivity():
    outs = {random_polynomial(2, 1, seed) for seed in range(8)}
    assert len(outs) > 1


def test_random_polynomial_degree_gate():
    with pytest.raises(ScalarError):
        random_polynomial(2, -1, 0)


# -- parser ----------------------------------------------------------------------

def test_parser_syntax():
    assert S("2*x1^2*x2 - 1/3") == \
        Scalar.const(2, 2) * S("x1") ** 2 * S("x2") - Scalar.const(2, Fraction(1, 3))
    assert S("-(x1 - 2)*(x1 + 2)") == S("4 - x1^2")
    assert S("1/2 * x1 / x2") == S("x1") / (Scalar.const(2, 2) * S("x2"))


def test_parser_rejects_unknown_variables():
    with pytest.raises(ParseError):
        parse_scalar("x3 + 1", 2)
    with pytest.raises(ParseError):
        parse_scalar("x0", 2)
    with pytest.raises(ParseError):
        parse_scalar("y + 1", 2)


def test_parser_rejects_malformed():
    for text in ("x1 +", "(x1", "x1 ^ x2", "1//2"):
        with pytest.raises(ParseError):
            parse_scalar(text, 2)


def test_parser_rejects_non_strings():
    for value in (0, 1.5, None, ["x1"]):
        with pytest.raises(ParseError):
            parse_scalar(value, 2)


def test_exponent_guard():
    limit = 2**16 - 1
    x1 = S("x1")
    assert (x1**limit).total_degree() == limit
    with pytest.raises(ScalarError):
        x1 ** (limit + 1)
    with pytest.raises(ScalarError):
        (x1**limit) * S("x2")
    with pytest.raises(ScalarError):
        Scalar.monomial(2, (limit, 1))
    with pytest.raises(ScalarError):
        Scalar.from_terms(2, {(0, limit + 1): 1})
    with pytest.raises(ParseError):
        S(f"x1^{limit + 1}")


def test_fused_sum_of_products_keeps_the_degree_guard():
    # two products of multi-term factors over constants: the fused path,
    # which must refuse a product past the cap as __mul__ does
    limit = 2**16 - 1
    high = Scalar.monomial(2, (limit - 1, 0), Fraction(1, 2)) + S("x2")
    low = S("x1/3 + 1")
    fine = scalar.sum_of_products(2, [(high, low), (low, low)])
    assert fine == high * low + low * low and fine.total_degree() == limit
    with pytest.raises(ScalarError):
        scalar.sum_of_products(2, [(low, low), (high, low * S("x2 + 1"))])
    with pytest.raises(ScalarError):
        high * (low * S("x2 + 1"))


def test_parser_caps_bound_each_intermediate_value():
    # at or under the caps: exponent 64, 4,096 terms, 4,096-bit coefficients,
    # 2^20 term pairs in one product
    assert S("x1^64").total_degree() == 64
    assert len(S("(1+x1)^63*(1+x2)^62").num) == 64 * 63
    assert S("(2^64)^63") == Scalar.const(2, 2**4032)
    for text in ("x1^65", "(1+x1+x2)^300", "3^30000000",
                 "(1+x1)^64*(1+x2)^64", "(2^64)^64", "((2^64)^32)^2 - 1",
                 "1" + "0" * 1300, "(" * 5000 + "1" + ")" * 5000,
                 "((1+x1)^63*(1+x2)^62)*((1+x1)^62*(1+x2)^63)"):
        with pytest.raises(ParseError):
            S(text)


def test_arithmetic_creates_no_fraction(monkeypatch):
    import courantcalc.scalar as scalar_module

    a = S("(3*x1^2 - 1/2*x2)/(2*x1*x2 + 4)")
    b = S("2/3*x1 - 5/7*x2^2")
    c = S("1/(x1 - x2)")

    def forbidden(*args):
        raise AssertionError("Fraction created on the arithmetic path")

    monkeypatch.setattr(scalar_module, "Fraction", forbidden)
    for u in (a, b, c):
        for v in (a, b, c):
            (u + v) * (u - v) / (u * v + Scalar.one(2))
            # a sum of products fused (u = v = b) and folded (the others)
            scalar.sum_of_products(2, [(u, v), (v, b), (b, u + v)])
        u.partial(1).partial(2)
        Scalar(2, u.num, u.den)


def test_products_with_monomials_take_no_heuristic_gcd():
    # b*x1/(1 + b*x1^2), a Christoffel symbol of the metric diag(1, 1 + b*x1^2):
    # against a monomial or a constant, each cross gcd has a single-term side
    gamma = S("3*x1/(1 + 3*x1^2)")
    heu_calls = []
    heu = scalar._p_heu_gcd

    def counting(a, b, n):
        heu_calls.append((a, b))
        return heu(a, b, n)

    with mock.patch.object(scalar, "_p_heu_gcd", counting):
        products = {
            "monomial": gamma * S("-2*x1^2*x2"),
            "constant": gamma * S("5/7"),
            "x1 cancels from the left": S("x2/(2*x1)") * gamma,
            "x1 cancels from the right": gamma * S("x2/(2*x1)"),
        }
    assert heu_calls == []

    def poly(terms):
        return {scalar._pack(2, m): c for m, c in terms.items()}

    cancelled = (poly({(0, 1): 3}), poly({(2, 0): 6, (0, 0): 2}))
    expected = {
        "monomial": (poly({(3, 1): -6}), poly({(2, 0): 3, (0, 0): 1})),
        "constant": (poly({(1, 0): 15}), poly({(2, 0): 21, (0, 0): 7})),
        "x1 cancels from the left": cancelled,
        "x1 cancels from the right": cancelled,
    }
    for name, value in products.items():
        assert (value.num, value.den) == expected[name], name
        assert Scalar(2, value.num, value.den) == value


def _gcd_substitutions(text_a, text_b, n=2):
    """_p_gcd of two parsed polynomials, and the field shift of every
    substitution that the heuristic makes on the way."""
    a, b = S(text_a, n).num, S(text_b, n).num
    shifts = []
    subs = scalar._p_subs

    def recording(poly, shift, top, xi):
        shifts.append(shift)
        return subs(poly, shift, top, xi)

    with mock.patch.object(scalar, "_p_subs", recording):
        g = scalar._p_gcd(a, b, n)
    return g, shifts


X1_FIELD = scalar._W  # the exponent field of x1 when n = 2; x2's starts at 0


def test_heuristic_gcd_substitutes_only_a_shared_variable():
    # x2 occurs in the numerator only, so x1 is put in for: the denominator
    # becomes an integer after one substitution, and the recursion ends there
    g, shifts = _gcd_substitutions("x1^2*x2 + 3*x1 + x2^2 + 5", "3*x1^2 + 1")
    assert g == {0: 1}
    assert shifts == [X1_FIELD, X1_FIELD]


def test_heuristic_gcd_without_a_shared_variable_is_the_integer_content():
    g, shifts = _gcd_substitutions("x2^2 + 1", "x1 + 2")
    assert (g, shifts) == ({0: 1}, [])
    g, shifts = _gcd_substitutions("6*x2^2 + 4", "4*x1 + 10")
    assert (g, shifts) == ({0: 2}, [])


def test_heuristic_gcd_finds_a_shared_variable_of_unequal_exponents():
    # x1 occurs only squared in a and only to the first power in b: the ORs
    # of the two sides' monomials have disjoint bits in x1's field, so an AND
    # of them would see no shared variable and miss the factor x1 + 2
    g, shifts = _gcd_substitutions("x1^2*x2 - 4*x2", "x1 + 2")
    assert g == S("x1 + 2").num
    assert shifts and set(shifts) == {X1_FIELD}
    assert scalar._p_gcd(S("x1 + 2").num, S("x1^2*x2 - 4*x2").num, 2) == g


# -- property tests ----------------------------------------------------------------

def scalars(n=2, degree=2):
    seeds = st.integers(min_value=0, max_value=10**6)
    return seeds.map(lambda s: random_polynomial(n, degree, s))


def nonzero_scalars(n=2, degree=2):
    seeds = st.integers(min_value=0, max_value=10**6)
    return seeds.map(lambda s: random_polynomial(n, degree, s, nonzero=True))


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == Scalar.zero(2)


@settings(max_examples=25, deadline=None)
@given(nonzero_scalars(), nonzero_scalars())
def test_multiplicative_inverses(a, b):
    q = a / b
    assert q * b == a
    assert (a / a) == Scalar.one(2)


@settings(max_examples=30, deadline=None)
@given(scalars(degree=3))
def test_partials_commute(a):
    assert a.partial(1).partial(2) == a.partial(2).partial(1)


@settings(max_examples=30, deadline=None)
@given(scalars(), scalars())
def test_leibniz_rule(a, b):
    for i in (1, 2):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


@settings(max_examples=25, deadline=None)
@given(nonzero_scalars(), nonzero_scalars())
def test_quotient_partials(a, b):
    q = a / b
    lhs = q.partial(1)
    rhs = (a.partial(1) * b - a * b.partial(1)) / (b * b)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(scalars(), nonzero_scalars())
def test_normal_form_idempotent(a, b):
    q = a / b
    again = Scalar(2, q.num, q.den)
    assert again == q
    assert hash(again) == hash(q)


def test_monomial_enumeration():
    monos = monomials_up_to(2, 2)
    assert monos == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(monomials_up_to(3, 3)) == 20
    assert monomials_up_to(0, 4) == [()]
