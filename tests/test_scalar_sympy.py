"""Differential test of Scalar against sympy's rational function field.

sympy shares no code with courantcalc.scalar, so it serves as an oracle: the
same inputs are built in both, every operation is carried out in both, and
the sympy result is brought to the canonical form of the package (gcd
cancelled, denominator monic under graded lex order) and rendered in the
input syntax.  The rendering must equal ``str()`` of the Scalar, which pins
the canonical form and the printed output at once.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.fields import field
from sympy.polys.orderings import grlex

from courantcalc import scalar
from courantcalc.scalar import Scalar, parse_scalar

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


@pytest.mark.parametrize("heuristic", [True, False], ids=["heuristic", "prs"])
@pytest.mark.parametrize("constant_factor", [True, False],
                         ids=["coprime", "common-factor"])
def test_gcd_of_planted_factors_matches_sympy(heuristic, constant_factor):
    # with the heuristic patched to give up, the primitive PRS answers alone
    @settings(max_examples=30, deadline=None)
    @given(planted(constant_factor))
    def check(case):
        n, a, b = case
        ours, theirs = _reduced_like_sympy(n, a, b)
        assert ours == theirs

    if heuristic:
        check()
    else:
        with mock.patch.object(scalar, "_p_heu_gcd", _gives_up):
            check()
