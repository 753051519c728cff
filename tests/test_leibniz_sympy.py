"""Differential test of the bracket and Dorfman apply against sympy.

Both operations extend frame data to arbitrary sections by the Leibniz
rules.  Here sympy recomputes them from the structure matrices alone, term
by term over frame indices:

    [g_i e_i, h_j e_j] = g_i h_j [e_i, e_j] + g_i rho(e_i)(h_j) e_j
                         - h_j rho(e_j)(g_i) e_i + h_j <e_i, e_j> D g_i

with D f = G^-1 A^T grad f, and

    nabla_{g_i e_i} (h_j b_j) = g_i h_j nabla_{e_i} b_j + g_i rho(e_i)(h_j) b_j
                                + h_j <e_i, b_j> d_B g_i

with d_B f = alpha grad f.  The structure data enter sympy through their
printed form only, and the results are compared as printed canonical forms.

Besides random sections, each case runs one pair of sections whose every
component has several terms, so that some component sum takes the fused
path of ``scalar.sum_of_products``; a counter patched into that path
checks that it does.
"""

import random
from fractions import Fraction

import pytest
from sympy import Matrix, parse_expr, symbols
from test_scalar_sympy import K2, X1, X2, normal_form

from courantcalc import scalar
from courantcalc.algebroid import build_port_hamiltonian, build_standard
from courantcalc.dorfman import build_standard_connection
from courantcalc.scalar import parse_scalar

SYMBOLS = dict(zip(("x1", "x2"), symbols("x1 x2")))
GENS = (X1, X2)


def expr(text):
    return parse_expr(str(text).replace("^", "**"), local_dict=SYMBOLS)


def field(x):
    """A Scalar, or any text in its syntax, as an element of sympy's field."""
    return K2.from_expr(expr(x))


def matrix(rows):
    return [[field(x) for x in row] for row in rows]


def random_texts(rng, n, count):
    """Polynomials in x1..xn as text, about a third of them zero."""
    out = []
    for _ in range(count):
        terms = []
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) or Fraction(1)
            mono = "".join(f"*x{l + 1}^{rng.randint(0, 2)}" for l in range(n))
            terms.append(f"{c}{mono}")
        out.append(" + ".join(terms) or "0")
    return out


MULTI_TERM = {1: ("x1^2 + x1", "2*x1^3 - x1 + 1", "x1^2 - 3", "1/2*x1^2 + x1"),
              2: ("x1*x2 + x1^2", "x2^2 - 2*x1 + 1", "x1 + x2", "1/3*x1*x2 - x2")}


def multi_term_texts(n, count, shift):
    """count polynomials in x1..xn of two or three terms each, as text."""
    texts = MULTI_TERM[n]
    return [texts[(k + shift) % len(texts)] for k in range(count)]


@pytest.fixture
def fused(monkeypatch):
    """The argument lists of every sum that takes the fused path."""
    calls = []
    kernel = scalar._fused_sum
    monkeypatch.setattr(scalar, "_fused_sum",
                        lambda *args: calls.append(args) or kernel(*args))
    return calls


def anchor_derivative(anchor, i, f):
    """rho(e_i)(f) from the n x r anchor matrix."""
    return sum((row[i] * f.diff(GENS[l]) for l, row in enumerate(anchor)), K2.zero)


def gradient_image(matrix_rows, f):
    """The vector M grad f, for a matrix with one column per base coordinate."""
    return [sum((m * f.diff(GENS[l]) for l, m in enumerate(row)), K2.zero)
            for row in matrix_rows]


def oracle_bracket(alg, g, h):
    r = alg.rank
    anchor = matrix(alg.anchor_matrix)
    pairing = matrix(alg.pairing_matrix)
    coeffs = [matrix(row) for row in alg.bracket_coeffs]
    g_inv = Matrix([[expr(x) for x in row] for row in alg.pairing_matrix]).inv()
    a_t = Matrix(alg.n, r, lambda l, j: expr(alg.anchor_matrix[l][j])).T
    dual = [[K2.from_expr(x) for x in row] for row in (g_inv * a_t).tolist()]
    out = [K2.zero] * r
    for i in range(r):
        for j in range(r):
            for k in range(r):
                out[k] += g[i] * h[j] * coeffs[i][j][k]
            out[j] += g[i] * anchor_derivative(anchor, i, h[j])
            out[i] -= h[j] * anchor_derivative(anchor, j, g[i])
            for k, dk in enumerate(gradient_image(dual, g[i])):
                out[k] += h[j] * pairing[i][j] * dk
    return out


def oracle_apply(conn, g, h):
    alg, bundle = conn.alg, conn.bundle
    anchor = matrix(alg.anchor_matrix)
    pairing = matrix(bundle.pairing_matrix)
    alpha = matrix(bundle.alpha_matrix)
    gamma = [matrix(row) for row in conn.gamma]
    out = [K2.zero] * bundle.rank
    for i in range(alg.rank):
        d_b = gradient_image(alpha, g[i])
        for j in range(bundle.rank):
            for q in range(bundle.rank):
                out[q] += g[i] * h[j] * gamma[i][j][q] + h[j] * pairing[j][i] * d_b[q]
            out[j] += g[i] * anchor_derivative(anchor, i, h[j])
    return out


@pytest.mark.parametrize("build", [
    lambda: build_port_hamiltonian(1, 1),
    lambda: build_port_hamiltonian(1, 1, [[[parse_scalar("x1^2 - 2", 1)]]]),
    lambda: build_standard(2),
], ids=["port_hamiltonian11", "port_hamiltonian11-christoffel", "standard2"])
def test_bracket_matches_sympy_leibniz_formula(build, fused):
    alg = build()
    rng = random.Random(f"bracket-oracle:{alg.n}:{alg.rank}")
    cases = [(random_texts(rng, alg.n, alg.rank), random_texts(rng, alg.n, alg.rank))
             for _ in range(12)]
    cases.append((multi_term_texts(alg.n, alg.rank, 0),
                  multi_term_texts(alg.n, alg.rank, 1)))
    for gs, hs in cases:
        got = alg.bracket(alg.element_from_strings(gs), alg.element_from_strings(hs))
        want = oracle_bracket(alg, [field(x) for x in gs], [field(x) for x in hs])
        assert [str(c) for c in got.components] == [normal_form(w) for w in want]
    assert fused


def test_apply_of_a_levi_civita_lift_matches_sympy_leibniz_formula(fused):
    # Christoffel symbols of the rational metric g = [[1, x2], [x2, 2 + x1^2]]:
    # christoffel[i][j][k] = Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    x = list(SYMBOLS.values())
    metric = Matrix([[1, x[1]], [x[1], 2 + x[0] ** 2]])
    inv = metric.inv()
    christoffel = [[[sum(inv[k, l] * (metric[j, l].diff(x[i]) + metric[i, l].diff(x[j])
                                      - metric[i, j].diff(x[l])) for l in range(2)) / 2
                     for k in range(2)] for j in range(2)] for i in range(2)]
    alg = build_standard(2)
    conn = build_standard_connection(alg, [[[
        parse_scalar(str(c.factor()).replace("**", "^"), 2) for c in cell]
        for cell in row] for row in christoffel])
    assert not all(c.is_polynomial() for row in conn.gamma for cell in row for c in cell)
    rng = random.Random("apply-oracle")
    cases = [(random_texts(rng, alg.n, alg.rank),
              random_texts(rng, alg.n, conn.bundle.rank)) for _ in range(12)]
    cases.append((multi_term_texts(alg.n, alg.rank, 0),
                  multi_term_texts(alg.n, conn.bundle.rank, 1)))
    for gs, hs in cases:
        got = conn.apply(alg.element_from_strings(gs),
                         conn.bundle.element_from_strings(hs))
        want = oracle_apply(conn, [field(x) for x in gs], [field(x) for x in hs])
        assert [str(c) for c in got.components] == [normal_form(w) for w in want]
    assert fused
