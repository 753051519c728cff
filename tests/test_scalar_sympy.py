"""Differential test of Scalar against sympy's rational function field.

sympy shares no code with courantcalc.scalar, so it serves as an oracle: the
same inputs are built in both, every operation is carried out in both, and
the sympy result is brought to the canonical form of the package (gcd
cancelled, denominator monic under graded lex order) and rendered in the
input syntax.  The rendering must equal ``str()`` of the Scalar, which pins
the canonical form and the printed output at once.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.fields import field
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from courantcalc import scalar
from courantcalc.scalar import Scalar, ScalarError, parse_scalar

K2, X1, X2 = field("x1,x2", QQ, grlex)

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def term_dicts(n, max_exp=2, max_size=3):
    monomials = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(monomials, coefficients, max_size=max_size)


def ours(n, terms):
    out = Scalar.zero(n)
    for mono, c in terms.items():
        out = out + Scalar.monomial(n, mono, c)
    return out


def theirs(n, terms):
    if n == 0:
        return sum(terms.values(), Fraction(0))
    out = K2.zero
    for (e1, e2), c in terms.items():
        out += QQ(c.numerator, c.denominator) * X1**e1 * X2**e2
    return out


def _render_poly(poly):
    if not poly:
        return "0"
    parts = []
    for monom, c in poly.terms():
        c = Fraction(int(c.numerator), int(c.denominator))
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(monom) if e]
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def normal_form(value):
    """The package's printed canonical form of a sympy field element."""
    if isinstance(value, Fraction):
        return str(value)
    lc = value.denom.LC
    num, den = value.numer.quo_ground(lc), value.denom.quo_ground(lc)
    if den == den.ring.one:
        return _render_poly(num)
    return f"({_render_poly(num)})/({_render_poly(den)})"


@st.composite
def pairs(draw, n, den_exp=1):
    """(Scalar, sympy value) for a random rational function in n variables."""
    num = draw(term_dicts(n))
    den = draw(term_dicts(n, max_exp=den_exp, max_size=3))
    assume(any(den.values()))
    return ours(n, num) / ours(n, den), theirs(n, num) / theirs(n, den)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((0, 2)).flatmap(
    lambda n: st.tuples(pairs(n), pairs(n))))
def test_field_operations_match_sympy(args):
    (a, sa), (b, sb) = args
    assert str(a) == normal_form(sa)
    assert str(a + b) == normal_form(sa + sb)
    assert str(a - b) == normal_form(sa - sb)
    assert str(a * b) == normal_form(sa * sb)
    assert str(-a) == normal_form(-sa)
    if not b.is_zero():
        assert str(a / b) == normal_form(sa / sb)


@settings(max_examples=60, deadline=None)
@given(pairs(2))
def test_partial_derivatives_match_sympy(pair):
    a, sa = pair
    assert str(a.partial(1)) == normal_form(sa.diff(X1))
    assert str(a.partial(2)) == normal_form(sa.diff(X2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((0, 2)).flatmap(pairs))
def test_printed_form_parses_back(pair):
    a, _ = pair
    assert parse_scalar(str(a), a.n) == a


@settings(max_examples=40, deadline=None)
@given(pairs(2, den_exp=3), pairs(2, den_exp=3))
def test_gcd_heavy_operations_match_sympy(a_pair, b_pair):
    # denominators of degree up to 6 in two variables: every sum, product
    # and quotient goes through the multivariate gcd
    (a, sa), (b, sb) = a_pair, b_pair
    assert str(a + b) == normal_form(sa + sb)
    assert str(a * b) == normal_form(sa * sb)
    assert str(a.partial(2)) == normal_form(sa.diff(X2))
    if not b.is_zero():
        assert str(a / b) == normal_form(sa / sb)


# --- the gcd on planted common factors ---------------------------------------

FIELDS = {n: field(",".join(f"x{i + 1}" for i in range(n)), QQ, grlex)[0]
          for n in (1, 2, 3)}
big = st.integers(-(2**40), 2**40).filter(bool)


def int_polys(n, max_size=3, max_exp=2):
    monomials = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(monomials, big, min_size=1, max_size=max_size)


@st.composite
def planted(draw, constant_factor):
    """(n, a, b), integer polynomials with a = g*p and b = g*q in sympy."""
    n = draw(st.sampled_from((1, 2, 3)))
    R = FIELDS[n].ring
    if constant_factor:
        g = R(draw(big))
    else:
        g = R(draw(int_polys(n)))
        assume(max(sum(m) for m in g.monoms()) > 0)
    p, q = R(draw(int_polys(n))), R(draw(int_polys(n)))
    return n, g * p, g * q


def _packed(n, poly):
    return {scalar._pack(n, m): int(c.numerator) for m, c in poly.terms()}


def _reduced_like_sympy(n, a, b):
    ours = Scalar(n, _packed(n, a), _packed(n, b))
    K = FIELDS[n]
    return str(ours), normal_form(K(a) / K(b))


def _gives_up(a, b, n):
    return None


def _run(check, heuristic):
    """Run check, with the heuristic gcd patched to give up unless heuristic,
    so that the subresultant PRS answers alone."""
    if heuristic:
        check()
    else:
        with mock.patch.object(scalar, "_p_heu_gcd", _gives_up):
            check()


HEURISTIC = pytest.mark.parametrize("heuristic", [True, False],
                                    ids=["heuristic", "prs"])


@HEURISTIC
@pytest.mark.parametrize("constant_factor", [True, False],
                         ids=["coprime", "common-factor"])
def test_gcd_of_planted_factors_matches_sympy(heuristic, constant_factor):
    @settings(max_examples=30, deadline=None)
    @given(planted(constant_factor))
    def check(case):
        n, a, b = case
        ours, theirs = _reduced_like_sympy(n, a, b)
        assert ours == theirs

    _run(check, heuristic)


# --- cross-cancelling sums, products and quotients on planted factors -------
#
# Random pairs almost never share a denominator factor, so these plant one:
# the sum then divides out only g = gcd of the denominators (and a factor of
# g shared with the new numerator), the product and quotient only the cross
# gcds of the parts.


def _over(n, num, den):
    """(Scalar, sympy value) of num/den for integer sympy polynomials."""
    return (Scalar(n, _packed(n, num), _packed(n, den)),
            FIELDS[n](num) / FIELDS[n](den))


@st.composite
def shared_factor(draw):
    """(n, g, p1, q1, p2, q2) with g nonconstant and q1, q2 nonzero."""
    n = draw(st.sampled_from((1, 2, 3)))
    R = FIELDS[n].ring
    g = R(draw(int_polys(n)))
    assume(max(sum(m) for m in g.monoms()) > 0)
    p1, q1, p2, q2 = (R(draw(int_polys(n))) for _ in range(4))
    return n, g, p1, q1, p2, q2


@HEURISTIC
def test_sums_over_a_shared_denominator_factor_match_sympy(heuristic):
    @settings(max_examples=25, deadline=None)
    @given(shared_factor())
    def check(case):
        # p1/(g*q1) +- p2/(g*q2): the denominators share g
        n, g, p1, q1, p2, q2 = case
        (x, sx), (y, sy) = _over(n, p1, g * q1), _over(n, p2, g * q2)
        assert str(x + y) == normal_form(sx + sy)
        assert str(x - y) == normal_form(sx - sy)
        # w = z - x lies over g*q1*q2, so x and w share g*q1 in their
        # denominators, and the numerator of x + w is p2*g: t = gcd(num, g*q1)
        # is nonconstant and must be divided out too
        z, sz = _over(n, p2, q1 * q2)
        w = z - x
        assert str(w) == normal_form(sz - sx)
        assert str(x + w) == normal_form(sz)
        assert str(w - (-x)) == normal_form(sz)

    _run(check, heuristic)


@HEURISTIC
def test_products_and_quotients_that_cross_cancel_match_sympy(heuristic):
    @settings(max_examples=25, deadline=None)
    @given(shared_factor())
    def check(case):
        # (g*a)/q times c/(g*t): g cancels across the two factors
        n, g, a, q, c, t = case
        (x, sx), (y, sy) = _over(n, g * a, q), _over(n, c, g * t)
        assert str(x * y) == normal_form(sx * sy)
        assert str(y * x) == normal_form(sy * sx)
        # the same through /: (g*a)/q over (g*t)/c
        y_inv, sy_inv = _over(n, g * t, c)
        assert str(x / y_inv) == normal_form(sx / sy_inv)
        assert str(y_inv / x) == normal_form(sy_inv / sx)
        assert x / y_inv == x * y

    _run(check, heuristic)


ZZ_RINGS = {n: ring(",".join(f"x{i + 1}" for i in range(n)), ZZ, grlex)[0]
            for n in (1, 2, 3)}


@st.composite
def monomial_and_poly(draw):
    """(n, m, p): a single integer term m and an integer polynomial p."""
    n = draw(st.sampled_from((1, 2, 3)))
    exponents = draw(st.tuples(*[st.integers(0, 3)] * n))
    m = {exponents: draw(big)}
    return n, m, draw(int_polys(n, max_size=4, max_exp=3))


@HEURISTIC
def test_monomial_gcd_matches_sympy(heuristic):
    @settings(max_examples=40, deadline=None)
    @given(monomial_and_poly())
    def check(case):
        n, m, p = case
        R = ZZ_RINGS[n]
        expected = _packed(n, R(m).gcd(R(p)))
        a, b = _packed(n, R(m)), _packed(n, R(p))
        assert scalar._p_gcd(a, b, n) == expected
        assert scalar._p_gcd(b, a, n) == expected

    _run(check, heuristic)


# a pair drawn by the [prs] sums test (hypothesis seed 31) on which a
# primitive PRS, taking the content of every pseudo-remainder, ran for about
# 20 s as its coefficients grew past a thousand bits
STALLED_A = {(2, 3, 2): -10623464670162, (1, 4, 1): -19906398306226,
             (4, 1, 0): 5876283889, (3, 2, 0): 2126200286,
             (0, 2, 3): 18695850354308, (2, 2, 0): -2160813517505621638,
             (2, 0, 2): -1996901788, (1, 2, 1): -14275916206,
             (0, 2, 2): -681800563314130944, (0, 0, 3): 13407769148,
             (2, 0, 0): 377132488327168,
             (0, 1, 0): -138678286151786646470656}
STALLED_B = {(2, 2, 2): 94708, (2, 2, 0): -7940900, (1, 0, 1): -708}


@pytest.mark.parametrize("planted", [
    {(0, 0, 0): 1},
    {(1, 0, 2): 2, (0, 1, 0): -3, (0, 0, 0): 5},  # 2*x1*x3^2 - 3*x2 + 5
], ids=["coprime", "common-factor"])
def test_prs_gcd_of_a_once_stalled_pair_matches_sympy(planted):
    R = ZZ_RINGS[3]
    g = R(planted)
    a, b = R(STALLED_A) * g, R(STALLED_B) * g
    expected = _packed(3, a.gcd(b))
    with mock.patch.object(scalar, "_p_heu_gcd", _gives_up):
        assert scalar._p_gcd(_packed(3, a), _packed(3, b), 3) == expected
        assert scalar._p_gcd(_packed(3, b), _packed(3, a), 3) == expected


# --- the quotient rule in partial ------------------------------------------
#
# partial divides out only gcd(N, gcd(den, den')), where N is the numerator
# left after taking out gcd(den, den'); these plant the factors that make
# that gcd nonconstant: squared factors, and factors of den free of x_i,
# which divide den' too and may divide N.


def int_polys_free_of(n, i, max_size=2):
    """Integer polynomials in which x_i (1-based) does not occur."""
    monomials = st.tuples(*[st.just(0) if k == i - 1 else st.integers(0, 1)
                            for k in range(n)])
    return st.dictionaries(monomials, st.integers(-5, 5).filter(bool),
                           min_size=1, max_size=max_size)


@st.composite
def quotient_rule_case(draw):
    """(n, i, num, den) with den = free^k * square^2 * plain, free without x_i.

    A factor of den free of x_i cancels in the derivative when the rest of
    num is free of x_i too, so num is drawn as free*p + q, and q and the
    other factors of den are each free of x_i in about half of the cases.
    """
    n = draw(st.sampled_from((1, 2, 3)))
    i = draw(st.integers(1, n))
    R = FIELDS[n].ring
    small = st.integers(-5, 5).filter(bool)
    monomials = st.tuples(*[st.integers(0, 1)] * n)

    def poly(min_size=1):
        return R(draw(st.dictionaries(monomials, small, min_size=min_size,
                                      max_size=2)))

    def free_poly():
        return R(draw(int_polys_free_of(n, i)))

    free = free_poly()
    num = free * poly(min_size=0) + (free_poly() if draw(st.booleans()) else poly())
    rest = free_poly if draw(st.booleans()) else poly
    den = free ** draw(st.integers(1, 2)) * rest() ** 2 * rest()
    return n, i, num, den


@HEURISTIC
def test_quotient_rule_matches_sympy(heuristic):
    @settings(max_examples=40, deadline=None)
    @given(quotient_rule_case())
    def check(case):
        n, i, num, den = case
        x, sx = _over(n, num, den)
        xi = FIELDS[n].gens[i - 1]
        assert str(x.partial(i)) == normal_form(sx.diff(xi))

    _run(check, heuristic)


def test_quotient_rule_cancels_a_factor_free_of_the_variable():
    # d/dx1 of (x1*x2 + 1)/x2^2 is x2/x2^2 = 1/x2: x2 does not involve x1,
    # divides den' = 0 and cancels against the numerator
    x = parse_scalar("(x1*x2 + 1)/x2^2", 2)
    assert str(x.partial(1)) == "(1)/(x2)"
    assert str(x.partial(2)) == "(-x1*x2 - 2)/(x2^3)"
    y = parse_scalar("x1/(x1^2 + 1)^2", 2)
    assert str(y.partial(1)) == normal_form((X1 / (X1**2 + 1) ** 2).diff(X1))
    assert y.partial(2).is_zero()


# --- fast paths: zero, one, constant and rational operands ------------------
#
# Sums and products with a zero or the constant 1 return an operand as it
# is, and a denominator equal to 1 is always the shared scalar._ONE; these
# check the results against sympy and Fraction, and that the type checks
# still come first.


def special_operands(n):
    """(label, Scalar, sympy or Fraction value) for the fast-path operands."""
    x1 = Scalar.variable(n, 1) if n else Scalar.const(0, 3)
    sx1 = X1 if n else Fraction(3)
    return [
        ("zero", Scalar.zero(n), Fraction(0)),
        ("zero-computed", x1 - x1, Fraction(0)),
        ("one", Scalar.one(n), Fraction(1)),
        ("one-computed", (x1 + Scalar.const(n, 2)) / (x1 + Scalar.const(n, 2)),
         Fraction(1)),
        ("one-parsed", parse_scalar("3/3", n), Fraction(1)),
        ("minus-one", Scalar.const(n, -1), Fraction(-1)),
        ("constant", Scalar.const(n, 7), Fraction(7)),
        ("rational", Scalar.const(n, Fraction(-5, 6)), Fraction(-5, 6)),
        ("rational-monomial", Scalar.monomial(n, (1,) * n, Fraction(2, 3)),
         Fraction(2, 3) * (sx1 * X2 if n else 1)),
    ]


def _sym(value):
    """A Fraction as a sympy field element over x1, x2."""
    if isinstance(value, Fraction):
        return K2(QQ(value.numerator, value.denominator))
    return value


def _assert_one_is_shared(den):
    if den == {0: 1}:
        assert den is scalar._ONE


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0, 2)).flatmap(pairs))
def test_fast_path_operands_match_sympy(pair):
    a, sa = pair
    n = a.n
    for label, s, ss in special_operands(n):
        if n:
            sa, ss = _sym(sa), _sym(ss)
        results = [
            (s + a, ss + sa), (a + s, sa + ss),
            (s - a, ss - sa), (a - s, sa - ss),
            (s * a, ss * sa), (a * s, sa * ss),
        ]
        if not s.is_zero():
            results.append((a / s, sa / ss))
        if not a.is_zero():
            results.append((s / a, ss / sa))
        if n:
            results += [(s.partial(1), ss.diff(X1)), (s.partial(2), ss.diff(X2))]
        for ours_value, expected in results:
            assert str(ours_value) == normal_form(expected), label
            _assert_one_is_shared(ours_value.den)
        # the operand itself comes back; the left one when both are special
        if s == Scalar.one(n):
            assert s * a is a and a * s is (s if a == s else a), label
        if s.is_zero():
            assert s + a is a and a + s is (s if a == s else a), label
            assert a - s is a, label


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((0, 2)).flatmap(
    lambda n: st.tuples(pairs(n), pairs(n))))
def test_denominator_one_is_always_shared(args):
    (a, _), (b, _) = args
    n = a.n
    values = [a, b, a + b, a - b, a * b, -a, a ** 2,
              Scalar.const(n, 4), Scalar.const(n, Fraction(8, 2)),
              Scalar.from_terms(n, {(0,) * n: Fraction(6, 3)}),
              parse_scalar("2/2 + 1", n)]
    if not b.is_zero():
        values += [a / b, b / b]
    if n:
        values += [a.partial(1), a.partial(2), b.partial(1),
                   Scalar.monomial(n, (1, 0), Fraction(4, 2)),
                   Scalar.variable(n, 2), parse_scalar("x1*x2/2 + x1*x2/2", n)]
    for value in values:
        _assert_one_is_shared(value.den)


def _grlex_leading(terms):
    return terms[max(terms, key=lambda e: (sum(e), e))]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), big, max_size=4),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), big, min_size=1,
                    max_size=4))))
def test_normalize_divides_out_the_joint_content(case):
    n, num, den = case
    sign = 1 if _grlex_leading(den) > 0 else -1
    k = sign * gcd(*num.values(), *den.values())
    got_num, got_den = scalar._normalize(
        {scalar._pack(n, e): c for e, c in num.items()},
        {scalar._pack(n, e): c for e, c in den.items()})
    assert got_num == {scalar._pack(n, e): c // k for e, c in num.items()}
    assert got_den == {scalar._pack(n, e): c // k for e, c in den.items()}
    assert Fraction(_grlex_leading(den), k) > 0
    _assert_one_is_shared(got_den)


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__"])
@pytest.mark.parametrize("left", ["zero", "one", "polynomial", "rational"])
def test_operand_checks_come_before_the_fast_paths(op, left):
    value = {"zero": Scalar.zero(2), "one": Scalar.one(2),
             "polynomial": parse_scalar("x1 + 1", 2),
             "rational": parse_scalar("x1/(x2 + 1)", 2)}[left]
    for bad in (0, 1, 1.0, Fraction(1), "x1", None):
        with pytest.raises(TypeError):
            getattr(value, op)(bad)
    for other in (Scalar.zero(3), Scalar.one(3), parse_scalar("x3", 3)):
        with pytest.raises(ScalarError):
            getattr(value, op)(other)


# --- the sum-of-products kernel -----------------------------------------------
#
# sum_of_products fuses a sum whose factors all have constant denominators
# and which holds at least two products of two multi-term factors, and folds
# the others product by product.  The factors mix the three kinds that
# decide the path: polynomials over 1, polynomials over 2, 3 or 4, which
# make the common denominator grow, and rational functions, which force the
# fold.


@st.composite
def factors(draw, n, kinds):
    """(Scalar, sympy or Fraction value), nonzero, of one of the kinds."""
    def terms(max_exp=2):
        size = draw(st.sampled_from((1, 2, 3)))
        return draw(st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * n),
                                    st.integers(-6, 6).filter(bool),
                                    min_size=min(size, 3 ** n), max_size=size))

    kind = draw(st.sampled_from(kinds))
    num = terms()
    if kind == "rational":
        den = terms(max_exp=1)
        return ours(n, num) / ours(n, den), theirs(n, num) / theirs(n, den)
    k = 1 if kind == "polynomial" else draw(st.sampled_from((2, 3, 4)))
    num = {m: Fraction(c, k) for m, c in num.items()}
    return ours(n, num), theirs(n, num)


def _fold(n, products):
    total = Scalar.zero(n)
    for a, b in products:
        total = total + a * b
    return total


def _assert_kernel_matches(n, products, expected):
    got = scalar.sum_of_products(n, products)
    folded = _fold(n, products)
    assert str(got) == normal_form(expected)
    assert (got.num, got.den) == (folded.num, folded.den)
    _assert_one_is_shared(got.den)


def _counting_fused_sums():
    """A patch of the fused path that records each call, and the record."""
    calls = []
    kernel = scalar._fused_sum

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    return mock.patch.object(scalar, "_fused_sum", counting), calls


# the kinds of factor that one drawn sum mixes, with its least number of
# products: a sum with a rational function is folded; one without, of two
# products or more, is fused when two of them multiply multi-term factors
KINDS = ((("polynomial", "over-k", "rational"), 0), (("polynomial", "over-k"), 2))


def product_lists(n):
    """(n, [((a, sympy a), (b, sympy b)), ...]) with up to 6 pairs."""
    return st.sampled_from(KINDS).flatmap(lambda kinds: st.tuples(
        st.just(n), st.lists(st.tuples(factors(n, kinds[0]), factors(n, kinds[0])),
                             min_size=kinds[1], max_size=6)))


def test_sum_of_products_matches_sympy_and_the_fold():
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from((0, 2)).flatmap(product_lists))
    def check(case):
        n, drawn = case
        products = [(a, b) for (a, _), (b, _) in drawn]
        expected = sum((sa * sb for (_, sa), (_, sb) in drawn),
                       K2.zero if n else Fraction(0))
        _assert_kernel_matches(n, products, expected)

    patch, fused = _counting_fused_sums()
    with patch:
        check()
    assert fused, "no drawn sum took the fused path"


def test_sum_of_products_fuses_over_a_growing_denominator():
    # every factor multi-term over a constant: the common denominator goes
    # 2, 6, 12, and what is summed so far is rescaled at each step
    texts = [("x1/2 + 1", "x2 - 3"), ("x1 + x2/3", "x1 - x2"),
             ("x1*x2/4 - 1", "x2 + 1/2"), ("x1 - 1", "x1 + 1")]
    values = [(X1 / 2 + 1, X2 - 3), (X1 + X2 / 3, X1 - X2),
              (X1 * X2 / 4 - 1, X2 + QQ(1, 2)), (X1 - 1, X1 + 1)]
    products = [(parse_scalar(a, 2), parse_scalar(b, 2)) for a, b in texts]
    patch, fused = _counting_fused_sums()
    with patch:
        _assert_kernel_matches(2, products, sum((a * b for a, b in values), K2.zero))
    assert len(fused) == 1


def test_sum_of_products_that_cancels_is_the_zero_scalar():
    a, b = parse_scalar("x1/2 + x2", 2), parse_scalar("x1 - 1/3", 2)
    got = scalar.sum_of_products(2, [(a, b), (-a, b), (b, b), (-b, b)])
    assert got.is_zero() and got.den is scalar._ONE
    assert got == _fold(2, [(a, b), (-a, b)])
