"""Exact coefficient ring: multivariate rational functions over Q.

A :class:`Scalar` is a quotient num/den of multivariate polynomials in
x1..xn with integer coefficients.  A polynomial is a dict that maps a packed
monomial to a nonzero int.  The monomial x1^e1 ... xn^en of total degree d
packs to the int ``d << (n*W) | e1 << ((n-1)*W) | ... | en`` with W = 16
bits per field, so integer order is graded lexicographic order, the leading
term of a polynomial is ``max(poly)`` and multiplying monomials is adding
ints.  Total degrees, and with them all exponents, stay at most 2^16 - 1; a
product or a constructor that would go past that raises ScalarError rather
than carry into the next field.

Canonical form: gcd(num, den) is constant over Q[x], the integer content of
num and den taken together is 1, and the graded-lex leading coefficient of
den is positive.  So equality of values is literal equality of
representations; a polynomial has a constant den, and a rational p/q is
{0: p} over {0: q}.  Fractions appear only at the boundary: the constructors
from rational data, ``constant_value``, ``evaluate``, the parser and
``str()``, which divides both parts by the leading coefficient of den and
so prints the denominator monic.  n = 0 is allowed and gives plain
rationals.  Everything is immutable and hashable.

The arithmetic keeps that form without taking the gcd of a whole result:
products, quotients and sums of operands in lowest terms divide out only
gcds of the operands' parts, which are already reduced (Henrici, "A
subroutine for computations with rational numbers", J. ACM 3, 1956; Knuth,
TAOCP vol. 2, 4.5.1), and a gcd with a single-term side is read off the
exponents and the integer content, without the general algorithm.  The
quotient rule in ``partial`` cancels the same way, against gcd(den, den').
The general gcd is the heuristic GCDHEU, which at each level puts an
integer for a variable that both arguments share, and stops at the joint
integer content when they share none (a common divisor involves only shared
variables); the subresultant PRS answers when the heuristic gives up.

The denominator 1 is the one shared dict ``_ONE``: every constructor and
operation returns it in place of an equal dict, so a polynomial over 1 is
told by ``den is _ONE``, and any numerator over it is canonical as it
stands.  A sum with the zero scalar and a product with the constant 1
return the other operand itself.

``sum_of_products`` takes a sum of products in one pass when every factor
has a constant denominator and at least two products multiply two
multi-term factors: the term products run into one dict over a common
integer denominator, rescaled only when a product's denominator does not
divide it, and the sum is normalised once (Johnson, "Sparse polynomial
arithmetic", SIGSAM Bull. 8, 1974), not once per partial sum.  Any other
sum is folded product by product, keeping the fast paths of ``*``.
``signed_sum`` runs the same loop on signed products and lone values
whenever the denominators are constant; over a point it adds integers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm
from operator import or_

__all__ = [
    "Scalar",
    "ScalarError",
    "ParseError",
    "PoleError",
    "parse_scalar",
    "random_polynomial",
    "monomials_up_to",
    "sum_of_products",
    "signed_sum",
]


class ScalarError(ArithmeticError):
    """Raised on invalid scalar arithmetic (division by the zero scalar)."""


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a pole."""


class ParseError(ValueError):
    """Raised on malformed scalar text or unknown variables."""


# ---------------------------------------------------------------------------
# polynomial layer: dict {packed monomial: nonzero int}
# ---------------------------------------------------------------------------

_W = 16
_MASK = (1 << _W) - 1
_MAX_DEGREE = _MASK
_ONE = {0: 1}  # the constant polynomial 1; polynomials are never mutated


def _pack(n, exponents):
    exponents = tuple(exponents)
    if len(exponents) != n:
        raise ScalarError("exponent tuple length mismatch")
    m = 0
    for e in exponents:
        if e < 0:
            raise ScalarError(f"negative exponent {e}")
        m = (m << _W) | e
    degree = sum(exponents)
    if degree > _MAX_DEGREE:
        raise ScalarError(f"total degree {degree} exceeds {_MAX_DEGREE}")
    return (degree << (n * _W)) | m


def _unpack(n, m):
    return tuple((m >> ((n - 1 - i) * _W)) & _MASK for i in range(n))


def _p_is_const(a):
    return not a or (len(a) == 1 and 0 in a)


def _p_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _p_sub(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _p_neg(a):
    return {m: -c for m, c in a.items()}


def _p_scale(a, k):
    if k == 1:
        return a
    return {m: c * k for m, c in a.items()}


def _p_mul(a, b, top):
    """Product; top = n*W is the shift of the degree field."""
    if not a or not b:
        return {}
    if (max(a) + max(b)) >> top > _MAX_DEGREE:
        raise ScalarError(f"total degree exceeds {_MAX_DEGREE}")
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        [(ma, ca)] = a.items()
        return {ma + mb: ca * cb for mb, cb in b.items()}
    rows = iter(a.items())
    ma, ca = next(rows)
    out = {ma + mb: ca * cb for mb, cb in b.items()}
    get = out.get
    for ma, ca in rows:
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return out


def _p_partial(a, shift, top):
    """Derivative in the variable whose exponent field starts at shift."""
    step = (1 << shift) + (1 << top)
    out = {}
    for m, c in a.items():
        e = (m >> shift) & _MASK
        if e:
            out[m - step] = c * e
    return out


def _p_eval(a, n, point):
    total = Fraction(0)
    for m, c in a.items():
        v = c
        for e, x in zip(_unpack(n, m), point):
            if e:
                v *= x**e
        total += v
    return total


def _normalize(num, den):
    """Divide num and den by their joint integer content; make lc(den) > 0.

    A denominator equal to 1 comes back as the shared ``_ONE``.  The content
    is taken over den first, usually a single term, and over num only when
    that is not already 1.
    """
    if den is _ONE:
        return num, den
    k = gcd(*den.values())
    if k != 1:
        k = gcd(k, *num.values())
    if den[max(den)] < 0:
        k = -k
    if k != 1:
        num = {m: c // k for m, c in num.items()}
        den = {m: c // k for m, c in den.items()}
    if den == _ONE:
        return num, _ONE
    return num, den


# --- exact division and gcd over Z[x] ------------------------------------


def _mono_divides(m, d, n):
    return all((m >> s) & _MASK >= (d >> s) & _MASK
               for s in range(0, n * _W, _W))


def _p_exact_div(a, b, n):
    """Return a/b assuming b divides a in Z[x]; raise ScalarError otherwise."""
    if not b:
        raise ScalarError("division by zero polynomial")
    lead_b = max(b)
    cb = b[lead_b]
    if len(b) == 1:
        quot = {}
        for m, c in a.items():
            q, r = divmod(c, cb)
            if r or (lead_b and not _mono_divides(m, lead_b, n)):
                raise ScalarError("inexact polynomial division")
            quot[m - lead_b] = q
        return quot
    rem = dict(a)
    quot = {}
    while rem:
        lead_r = max(rem)
        q, r = divmod(rem[lead_r], cb)
        if r or not _mono_divides(lead_r, lead_b, n):
            raise ScalarError("inexact polynomial division")
        m = lead_r - lead_b
        quot[m] = q
        for mb, c in b.items():
            k = m + mb
            s = rem.get(k, 0) - q * c
            if s:
                rem[k] = s
            else:
                del rem[k]
    return quot


def _p_positive(a):
    """a or -a, whichever has a positive leading coefficient."""
    return _p_neg(a) if a and a[max(a)] < 0 else a


def _fields(a):
    """The OR of a's monomials: an exponent field is nonzero in it exactly
    when its variable occurs in a (fields do not carry into each other)."""
    return reduce(or_, a, 0)


def _main_shift(a, b, n):
    """Field shift of the highest-indexed variable occurring in a or b, read
    off the OR of their monomials."""
    used = _fields(a) | _fields(b)
    return next(shift for shift in range(0, n * _W, _W)
                if used >> shift & _MASK)


def _to_univar(a, shift, top):
    """View a as univariate in one variable: {degree: coefficient-poly}."""
    out = {}
    for m, c in a.items():
        e = (m >> shift) & _MASK
        coeff = out.get(e)
        if coeff is None:
            coeff = out[e] = {}
        coeff[m - (e << shift) - (e << top)] = c
    return out


def _from_univar(u, shift, top):
    out = {}
    for e, coeff in u.items():
        step = (e << shift) + (e << top)
        for m, c in coeff.items():
            out[m + step] = c
    return out


def _p_content(coeffs, n):
    g = {}
    for c in coeffs:
        g = _p_gcd(g, c, n)
        if g == _ONE:
            break
    return g


def _p_subs(a, shift, top, xi):
    """a with the integer xi put for the variable whose field starts at shift."""
    out = {}
    get = out.get
    for m, c in a.items():
        e = (m >> shift) & _MASK
        if e:
            m -= (e << shift) + (e << top)
            c *= xi**e
        out[m] = get(m, 0) + c
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return out


def _heu_lift(g, xi, shift, top, max_degree):
    """The polynomial whose coefficients in the variable at shift are the
    symmetric xi-adic digits of g; None past max_degree digits."""
    out = {}
    half = xi // 2
    e = 0
    while g:
        if e > max_degree:
            return None
        step = (e << shift) + (e << top)
        rest = {}
        for m, c in g.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m + step] = d
            q = (c - d) // xi
            if q:
                rest[m] = q
        g = rest
        e += 1
    return out


def _p_divides(d, a, n):
    try:
        _p_exact_div(a, d, n)
    except ScalarError:
        return False
    return True


_HEU_TRIES = 6


def _p_heu_gcd(a, b, n):
    """Heuristic gcd (GCDHEU) of nonzero a, b in Z[x1..xn]; None if it gives up.

    Char, Geddes and Gonnet, "GCDHEU: heuristic polynomial GCD algorithm
    based on integer GCD computation", J. Symbolic Comput. 7 (1989); Liao
    and Fateman, "Evaluation of the heuristic polynomial GCD", ISSAC 1995.

    Take out the joint integer content k, so a and b have joint content 1.
    Put an integer xi >= 2*min(|a|, |b|) + 29 (|.| the largest coefficient
    size) for the highest-indexed variable x that occurs in both a and b,
    read off the OR of each side's monomials, find gamma = gcd(a(xi), b(xi))
    by recursion down to ``math.gcd`` (each level is exact or gives up), and
    let h be the primitive part of the polynomial in x whose coefficients
    are the symmetric xi-adic digits of gamma.  h is accepted only when it
    divides a and b exactly; k*h is then the gcd.  Proof: write a = h*A, b =
    h*B, q = gcd(A, B).  gamma = c*h(xi) up to sign, with c the integer
    content of the digits, each of size <= xi/2, so gcd(A(xi), B(xi)) = c
    and q(xi) divides the integer c: q(xi) is a constant of size <= xi/2.
    Say |a| <= |b|.  As polynomials in the other variables over Z[x], q
    divides a, so the coefficient q0 in Z[x] of the leading monomial of q
    divides that of a, whose coefficients are coefficients of a and whose
    roots are below 1 + |a| < xi in size (Cauchy).  If q involves another
    variable, q0(xi) = 0 because q(xi) is constant: impossible.  If q is in
    Z[x] with positive degree, |q(xi)| >= xi - 1 - |a| > xi/2: impossible.
    So q is an integer, and it is 1 because A and B have the joint content
    of a and b.  The proof holds for any variable x that occurs in a or b;
    a shared one is taken because a common divisor involves only shared
    variables.  So when a and b share none, the gcd is the integer k at
    once, and a side whose variables all occur in the other becomes an
    integer within as many levels as it has variables.  When an evaluation
    vanishes or h fails, xi grows and the heuristic tries again, up to six
    times, and then gives up; ``_p_gcd`` falls back to the subresultant PRS.
    """
    k = gcd(*a.values(), *b.values())
    if _p_is_const(a) or _p_is_const(b):
        return {0: k}
    top = n * _W
    used_a, used_b = _fields(a), _fields(b)
    shift = next((shift for shift in range(0, top, _W)
                  if used_a >> shift & _MASK and used_b >> shift & _MASK), None)
    if shift is None:  # no shared variable: a common divisor is an integer
        return {0: k}
    if k != 1:
        a = {m: c // k for m, c in a.items()}
        b = {m: c // k for m, c in b.items()}
    max_degree = min(max((m >> shift) & _MASK for m in a),
                     max((m >> shift) & _MASK for m in b))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(_HEU_TRIES):
        fa, fb = _p_subs(a, shift, top, xi), _p_subs(b, shift, top, xi)
        if fa and fb:
            gamma = _p_heu_gcd(fa, fb, n)
            if gamma is None:
                return None
            h = _heu_lift(gamma, xi, shift, top, max_degree)
            if h is not None:
                h, _ = _normalize(h, h)  # primitive, positive lc
                if h == _ONE or (_p_divides(h, a, n) and _p_divides(h, b, n)):
                    return _p_scale(h, k)
        # the growth of Liao and Fateman, about 2.73 * xi^(5/4)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _mono_gcd(m, others, n):
    """The monomial gcd of m and every monomial in others: fieldwise minima."""
    out = degree = 0
    for shift in range(0, n * _W, _W):
        e = (m >> shift) & _MASK
        for mb in others:
            if not e:
                break
            f = (mb >> shift) & _MASK
            if f < e:
                e = f
        out |= e << shift
        degree += e
    return out | degree << (n * _W)


def _p_pow(a, e, top):
    out = _ONE
    for _ in range(e):
        out = _p_mul(out, a, top)
    return out


def _u_prem(a, b, top):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of univariate
    {degree: coefficient-poly} a and b, deg a >= deg b."""
    db = max(b)
    lead_b = b[db]
    pad = max(a) - db + 1
    rem = a
    while rem and max(rem) >= db:
        dr = max(rem)
        lead_r = rem[dr]
        rem = {d: _p_mul(c, lead_b, top) for d, c in rem.items()}
        for d, c in b.items():
            k = d + dr - db
            s = _p_sub(rem.get(k, {}), _p_mul(c, lead_r, top))
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
        pad -= 1
    if pad and rem:
        lead_b = _p_pow(lead_b, pad, top)
        rem = {d: _p_mul(c, lead_b, top) for d, c in rem.items()}
    return rem


def _p_gcd(a, b, n):
    """gcd in Z[x1..xn] with positive leading coefficient ({} if both 0).

    When one side is a single term c*x^e, the gcd is the integer gcd of c
    and the other side's content times the monomial gcd of x^e and the other
    side's terms.  Otherwise the heuristic of ``_p_heu_gcd`` answers almost
    every call; the subresultant PRS below runs only when it gives up.
    """
    if not a:
        return _p_positive(b)
    if not b:
        return _p_positive(a)
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        [m] = a
        return {_mono_gcd(m, b, n): gcd(*a.values(), *b.values())}
    g = _p_heu_gcd(a, b, n)
    if g is not None:
        return g
    top = n * _W
    shift = _main_shift(a, b, n)
    ua, ub = _to_univar(a, shift, top), _to_univar(b, shift, top)
    cont_a = _p_content(ua.values(), n)
    cont_b = _p_content(ub.values(), n)
    ua = {d: _p_exact_div(c, cont_a, n) for d, c in ua.items()}
    ub = {d: _p_exact_div(c, cont_b, n) for d, c in ub.items()}
    cont = _p_gcd(cont_a, cont_b, n)
    # subresultant PRS in the main variable (Collins 1967; Brown and Traub
    # 1971): each pseudo-remainder divides exactly by g*h^delta, so the
    # coefficients stay the size of subresultants with no content taken
    if max(ua) < max(ub):
        ua, ub = ub, ua
    g = h = _ONE
    while True:
        delta = max(ua) - max(ub)
        rem = _u_prem(ua, ub, top)
        if not rem:
            break
        if max(rem) == 0:  # the primitive parts are coprime
            return cont
        div = _p_mul(g, _p_pow(h, delta, top), top)
        ua, ub = ub, {d: _p_exact_div(c, div, n) for d, c in rem.items()}
        g = ua[max(ua)]
        if delta:
            h = _p_exact_div(_p_pow(g, delta, top), _p_pow(h, delta - 1, top), n)
    c = _p_content(ub.values(), n)
    ub = {d: _p_exact_div(cc, c, n) for d, cc in ub.items()}
    return _p_positive(_p_mul(cont, _from_univar(ub, shift, top), top))


def _reduce(num, den, n):
    """Canonical (num, den) of the quotient num/den, den nonzero."""
    if not num:
        return {}, _ONE
    if not _p_is_const(den):
        g = _p_gcd(num, den, n)
        if not _p_is_const(g):
            num = _p_exact_div(num, g, n)
            den = _p_exact_div(den, g, n)
    return _normalize(num, den)


# --- field operations on parts in lowest terms (Henrici; Knuth 4.5.1) -------


def _cross_mul(a, b, c, d, n):
    """Canonical (num, den) of (a/b)*(c/d), nonzero a/b and c/d in lowest terms.

    Only gcd(a, d) and gcd(c, b) are divided out; what is left is coprime.
    """
    if not (_p_is_const(a) or _p_is_const(d)):
        g = _p_gcd(a, d, n)
        if not _p_is_const(g):
            a, d = _p_exact_div(a, g, n), _p_exact_div(d, g, n)
    if not (_p_is_const(c) or _p_is_const(b)):
        g = _p_gcd(c, b, n)
        if not _p_is_const(g):
            c, b = _p_exact_div(c, g, n), _p_exact_div(b, g, n)
    top = n * _W
    return _normalize(_p_mul(a, c, top), _p_mul(b, d, top))


def _cross_sum(a, b, c, d, n, combine):
    """Canonical (num, den) of a/b + c/d (combine=_p_add) or a/b - c/d
    (_p_sub), a/b and c/d canonical with b != d.

    The result is nonzero: canonical forms are unique and -c/d is canonical,
    so a/b = -(+-c/d) would force b == d.  With g = gcd(b, d), num =
    a*(d/g) +- c*(b/g) over (b/g)*d is already coprime except for t =
    gcd(num, g), the only factor divided out.
    """
    top = n * _W
    g = _p_gcd(b, d, n)
    if _p_is_const(g):
        num = combine(_p_mul(a, d, top), _p_mul(c, b, top))
    else:
        b = _p_exact_div(b, g, n)
        num = combine(_p_mul(a, _p_exact_div(d, g, n), top), _p_mul(c, b, top))
        if not _p_is_const(num):
            t = _p_gcd(num, g, n)
            if not _p_is_const(t):
                num, d = _p_exact_div(num, t, n), _p_exact_div(d, t, n)
    return _normalize(num, _p_mul(b, d, top))


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """Canonical multivariate rational function over Q in x1..xn.

    Invariants: num and den have int coefficients, den is nonzero with a
    positive graded-lex leading coefficient, gcd(num, den) is constant, the
    coefficients of num and den together have gcd 1, and the zero scalar is
    0/1.  Two Scalars are equal iff their (num, den, n) data coincide.
    """

    __slots__ = ("n", "num", "den", "_hash", "_partials")

    def __init__(self, n, num, den=_ONE, _canonical=False):
        self.n = n
        # any num over the shared 1 is canonical
        if den is not _ONE:
            if not den:
                raise ScalarError("zero denominator")
            if not _canonical:
                num, den = _reduce(num, den, n)
        self.num = num
        self.den = den
        self._hash = None
        self._partials = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(n, q):
        q = Fraction(q)
        if not q:
            return _zero_cache(n)
        return Scalar(n, {0: q.numerator}, _const_den(q.denominator),
                      _canonical=True)

    @staticmethod
    def zero(n):
        return _zero_cache(n)

    @staticmethod
    def one(n):
        return _one_cache(n)

    @staticmethod
    def variable(n, i):
        """The coordinate function x_i, 1-based, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ScalarError(f"variable index {i} out of range 1..{n}")
        return Scalar(n, {(1 << (n * _W)) | (1 << ((n - i) * _W)): 1},
                      _canonical=True)

    @staticmethod
    def monomial(n, exponents, coeff=1):
        m = _pack(n, exponents)
        c = Fraction(coeff)
        if not c:
            return _zero_cache(n)
        return Scalar(n, {m: c.numerator}, _const_den(c.denominator),
                      _canonical=True)

    @staticmethod
    def from_terms(n, terms):
        """The polynomial with terms {exponent tuple: rational coefficient}."""
        coeffs = {_pack(n, m): Fraction(c) for m, c in terms.items() if c}
        if not coeffs:
            return _zero_cache(n)
        d = lcm(*(c.denominator for c in coeffs.values()))
        num = {m: c.numerator * (d // c.denominator) for m, c in coeffs.items()}
        return Scalar(n, num, {0: d})

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return _p_is_const(self.num) and _p_is_const(self.den)

    def is_polynomial(self):
        return _p_is_const(self.den)

    def constant_value(self):
        if not self.is_constant():
            raise ScalarError("not a constant")
        return Fraction(self.num.get(0, 0), self.den[0])

    def total_degree(self):
        """Total degree of the numerator (-1 for the zero scalar)."""
        if not self.num:
            return -1
        return max(self.num) >> (self.n * _W)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar")
        if other.n != self.n:
            raise ScalarError("mixed variable counts")
        return other

    def __add__(self, other):
        n = self.n
        if other.__class__ is not Scalar or other.n != n:
            self._check(other)
        if not self.num:
            return other
        if not other.num:
            return self
        return _sum(n, self.num, self.den, other.num, other.den, _p_add)

    def __sub__(self, other):
        n = self.n
        if other.__class__ is not Scalar or other.n != n:
            self._check(other)
        if not other.num:
            return self
        if not self.num:
            return -other
        return _sum(n, self.num, self.den, other.num, other.den, _p_sub)

    def __neg__(self):
        if not self.num:
            return self
        return Scalar(self.n, _p_neg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        n = self.n
        if other.__class__ is not Scalar or other.n != n:
            self._check(other)
        a, b = self.num, other.num
        if not a or not b:
            return _zero_cache(n)
        da, db = self.den, other.den
        # a product with the constant 1 is the other factor itself
        if da is _ONE and a == _ONE:
            return other
        if db is _ONE and b == _ONE:
            return self
        if da is _ONE and db is _ONE:
            return Scalar(n, _p_mul(a, b, n * _W), _ONE, _canonical=True)
        if _p_is_const(da) and _p_is_const(db):
            return Scalar(n, *_normalize(_p_mul(a, b, n * _W), {0: da[0] * db[0]}),
                          _canonical=True)
        return Scalar(n, *_cross_mul(a, da, b, db, n), _canonical=True)

    def scale(self, f):
        """f * self, so that scalars scale like sections and bundle elements."""
        return f * self

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise ScalarError("division by the zero scalar")
        if self.is_zero():
            return self
        # (a/b)/(c/d) = (a/b)*(d/c)
        return Scalar(self.n, *_cross_mul(self.num, self.den, other.den,
                                          other.num, self.n), _canonical=True)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ScalarError("exponent must be a nonnegative integer")
        out = _one_cache(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- calculus ------------------------------------------------------------

    def partial(self, i):
        """Exact partial derivative with respect to x_i (1-based), kept on
        this scalar for as long as it lives."""
        memo = self._partials
        if memo is None:
            memo = self._partials = {}
        d = memo.get(i)
        if d is None:
            d = memo[i] = self._partial(i)
        return d

    def _partial(self, i):
        n = self.n
        if not 1 <= i <= n:
            raise ScalarError(f"variable index {i} out of range 1..{n}")
        shift, top = (n - i) * _W, n * _W
        dn = _p_partial(self.num, shift, top)
        den = self.den
        if _p_is_const(den):
            if not dn:
                return _zero_cache(n)
            return Scalar(n, *_normalize(dn, den), _canonical=True)
        # quotient rule with cross-cancellation: for g = gcd(den, den'),
        # c = den/g and d = den'/g, (num' den - num den')/den^2 = N/(den c)
        # with N = num' c - num d.  A factor of den that involves x_i divides
        # c once and not N, so only t = gcd(N, g), made of the factors that
        # do not involve x_i, can cancel.
        dd = _p_partial(den, shift, top)
        g = _p_gcd(den, dd, n)
        c = _p_exact_div(den, g, n)
        num = _p_sub(_p_mul(dn, c, top), _p_mul(self.num, _p_exact_div(dd, g, n), top))
        if not num:
            return _zero_cache(n)
        if not _p_is_const(g):
            t = _p_gcd(num, g, n)
            if not _p_is_const(t):
                num, den = _p_exact_div(num, t, n), _p_exact_div(den, t, n)
        return Scalar(n, *_normalize(num, _p_mul(den, c, top)), _canonical=True)

    def evaluate(self, point):
        """Exact value at a rational point (sequence of length n)."""
        point = [Fraction(x) for x in point]
        if len(point) != self.n:
            raise ScalarError("point length mismatch")
        dv = _p_eval(self.den, self.n, point)
        if dv == 0:
            raise PoleError(f"pole at {tuple(point)}")
        return _p_eval(self.num, self.n, point) / dv

    # -- housekeeping ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self.num.items()), frozenset(self.den.items())))
            self._hash = h
        return h

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        den = self.den
        lc = den[max(den)]
        num = _p_format(self.num, self.n, lc)
        if _p_is_const(den):
            return num
        return f"({num})/({_p_format(den, self.n, lc)})"


def _sum(n, a, da, b, db, combine):
    """a/da + b/db (combine=_p_add) or a/da - b/db (_p_sub), both nonzero
    and canonical."""
    if da is db or da == db:
        num = combine(a, b)
        if not num:
            return _zero_cache(n)
        if da is _ONE:
            return Scalar(n, num, _ONE, _canonical=True)
        if _p_is_const(da):
            return Scalar(n, *_normalize(num, da), _canonical=True)
        return Scalar(n, num, da)
    if _p_is_const(da) and _p_is_const(db):
        ca, cb = da[0], db[0]
        g = gcd(ca, cb)
        num = combine(_p_scale(a, cb // g), _p_scale(b, ca // g))
        return Scalar(n, *_normalize(num, {0: ca // g * cb}), _canonical=True)
    return Scalar(n, *_cross_sum(a, da, b, db, n, combine), _canonical=True)


def sum_of_products(n, pairs):
    """sum a*b over the pairs (a, b) of nonzero Scalars in n variables.

    Fused, as one polynomial over a common denominator, when every factor
    has a constant denominator and at least two products multiply two
    multi-term factors; otherwise the products are summed in order.
    """
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else _zero_cache(n)
    wide = 0
    for a, b in pairs:
        if len(a.num) > 1 and len(b.num) > 1:
            wide += 1
    if wide > 1 and all(_p_is_const(a.den) and _p_is_const(b.den) for a, b in pairs):
        return _fused_sum(n, [(1, a, b) for a, b in pairs])
    rest = iter(pairs)
    a, b = next(rest)
    total = a * b
    for a, b in rest:
        total = total + a * b
    return total


def signed_sum(n, terms):
    """sum sign*a*b over the terms (sign, a, b) of nonzero Scalars in n
    variables, sign +-1, a alone where b is None: fused when there are two
    terms or more and every den is constant, as over a point; else folded."""
    if len(terms) > 1:
        for _, a, b in terms if n else ():  # over a point every den is constant
            if not _p_is_const(a.den) or b is not None and not _p_is_const(b.den):
                break
        else:
            return _fused_sum(n, terms)
    total = _zero_cache(n)
    for sign, a, b in terms:
        if b is not None:
            a = a * b
        total = total + a if sign > 0 else total - a
    return total


def _fused_sum(n, terms):
    """sum sign*a*b (a where b is None), every den constant: the products of
    the numerators run into one dict over the common denominator D,
    normalised once; over a point, into one integer fraction N/D, reduced
    by one gcd."""
    D = 1
    if not n:
        N = 0
        for sign, a, b in terms:
            c, d = sign * a.num[0], a.den[0]
            if b is not None:
                c, d = c * b.num[0], d * b.den[0]
            g = gcd(D, d)
            N, D = N * (d // g) + c * (D // g), D // g * d
        g = gcd(N, D)
        return (Scalar(0, {0: N // g}, _const_den(D // g), _canonical=True)
                if N else _zero_cache(0))
    top = n * _W
    acc = {}
    for sign, a, b in terms:
        x, d = a.num, a.den[0]
        if b is not None:
            y = b.num
            if (max(x) + max(y)) >> top > _MAX_DEGREE:
                raise ScalarError(f"total degree exceeds {_MAX_DEGREE}")
            d *= b.den[0]
        if D % d:
            k = d // gcd(D, d)
            D *= k
            acc = {m: c * k for m, c in acc.items()}
        s = sign * (D // d)
        get = acc.get
        if b is None:
            for m, c in x.items():
                acc[m] = get(m, 0) + c * s
            continue
        if len(x) > len(y):
            x, y = y, x
        for mx, cx in x.items():
            cx *= s
            for my, cy in y.items():
                m = mx + my
                acc[m] = get(m, 0) + cx * cy
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    if not acc:
        return _zero_cache(n)
    return Scalar(n, *_normalize(acc, _const_den(D)), _canonical=True)


def _const_den(d):
    """The denominator polynomial of the positive integer d."""
    return _ONE if d == 1 else {0: d}


_ZERO_CACHE = {}
_ONE_CACHE = {}


def _zero_cache(n):
    s = _ZERO_CACHE.get(n)
    if s is None:
        s = Scalar(n, {}, _canonical=True)
        _ZERO_CACHE[n] = s
    return s


def _one_cache(n):
    s = _ONE_CACHE.get(n)
    if s is None:
        s = Scalar(n, _ONE, _canonical=True)
        _ONE_CACHE[n] = s
    return s


def _p_format(a, n, lc):
    """Text of a/lc, terms in descending graded lex order."""
    if not a:
        return "0"
    parts = []
    for m in sorted(a, reverse=True):
        c = a[m] if lc == 1 else Fraction(a[m], lc)
        factors = []
        for i, e in enumerate(_unpack(n, m)):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        if not factors:
            parts.append(str(c))
            continue
        body = "*".join(factors)
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# parsing:  variables x1..xn, rational literals p/q, operators + - * / ^
# ---------------------------------------------------------------------------

# Caps that keep a short input from running away: an exponent literal, and
# the size of every value the parser builds, including each step of a power.
_MAX_EXPONENT = 64
_MAX_TERMS = 4096  # terms of num and den together
_MAX_COEFF_BITS = 4096
# term pairs one product may multiply: two values under the term cap could
# otherwise ask for 16 million, with as many terms in the result
_MAX_WORK = 1 << 20


def parse_scalar(text, n):
    """Parse the input-file syntax, e.g. "2*x1^2*x2 - 1/3", into a Scalar."""
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar string, got {text!r}")
    tokens = _tokenize(text)
    parser = _Parser(tokens, n)
    try:
        value = parser.expr()
    except ScalarError as exc:
        raise ParseError(f"{exc} in {text!r}") from exc
    except RecursionError:
        raise ParseError(f"expression nested too deeply in {text!r}") from None
    if parser.peek() is not None:
        raise ParseError(f"unexpected token {parser.peek()!r} in {text!r}")
    return value


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            digits = text[i:j].lstrip("0") or "0"
            # 10^1234 > 2^4096: longer literals are over the coefficient cap
            if len(digits) > 1234:
                raise ParseError(f"integer literal of {len(digits)} digits "
                                 f"is wider than {_MAX_COEFF_BITS} bits")
            tokens.append(("int", int(digits)))
            i = j
        elif ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"bad variable name at {text[i:]!r}")
            tokens.append(("var", int(text[i + 1 : j])))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        if self.peek() == "-":
            self.take()
            value = -self.term()
        else:
            value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = _combine(op, value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero in input")
            value = _combine(op, value, rhs)
        return value

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not (isinstance(tok, tuple) and tok[0] == "int"):
                raise ParseError("exponent must be a nonnegative integer")
            k = tok[1]
            if k > _MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds the cap of {_MAX_EXPONENT}")
            out = Scalar.one(self.n)
            for _ in range(k):
                out = _combine("*", out, base)
            return out
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return value
        if isinstance(tok, tuple):
            kind, payload = tok
            if kind == "int":
                return _capped(Scalar.const(self.n, payload))
            if kind == "var":
                if not 1 <= payload <= self.n:
                    raise ParseError(f"unknown variable x{payload} (n = {self.n})")
                return Scalar.variable(self.n, payload)
        raise ParseError(f"unexpected token {tok!r}")


_OPS = {"+": Scalar.__add__, "-": Scalar.__sub__, "*": Scalar.__mul__,
        "/": Scalar.__truediv__}


def _combine(op, a, b):
    """a op b, or ParseError when the work or the result is over a cap."""
    if op in "*/" or not (a.is_polynomial() and b.is_polynomial()):
        work = (len(a.num) + len(a.den)) * (len(b.num) + len(b.den))
        if work > _MAX_WORK:
            raise ParseError(f"a product of {work} term pairs is over the "
                             f"cap of {_MAX_WORK}")
    return _capped(_OPS[op](a, b))


def _capped(value):
    """value, or ParseError when it is over the term or coefficient cap."""
    terms = len(value.num) + len(value.den)
    if terms > _MAX_TERMS:
        raise ParseError(f"intermediate value has {terms} terms, "
                         f"over the cap of {_MAX_TERMS}")
    bits = max(abs(c).bit_length()
               for c in (*value.num.values(), *value.den.values()))
    if bits > _MAX_COEFF_BITS:
        raise ParseError(f"intermediate value has a {bits}-bit coefficient, "
                         f"over the cap of {_MAX_COEFF_BITS} bits")
    return value


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def monomials_up_to(n, d):
    """All exponent tuples of total degree <= d, graded lex order."""
    out = [(0,) * n]
    for total in range(1, d + 1):
        level = []
        for combo in combinations_with_replacement(range(n), total):
            exp = [0] * n
            for i in combo:
                exp[i] += 1
            level.append(tuple(exp))
        out.extend(sorted(level, reverse=True))
    return out


def random_polynomial(n, degree, seed, nonzero=False):
    """Seeded polynomial with small rational coefficients; denominator 1.

    Reproducible: a fixed (n, degree, seed) always yields the same Scalar.
    """
    if degree < 0:
        raise ScalarError("degree cap must be >= 0")
    rng = random.Random(f"poly:{n}:{degree}:{seed}")
    while True:
        terms = {}
        for m in monomials_up_to(n, degree):
            p = rng.randint(-4, 4)
            q = rng.choice((1, 1, 2, 3))
            if p:
                terms[m] = Fraction(p, q)
        if terms or not nonzero:
            return Scalar.from_terms(n, terms)
