"""Expected answers computed apart from courantcalc.

Nothing here imports courantcalc.  Point-case algebroids are read from their
JSON documents with `fractions.Fraction`; the Riemann tensor of a metric is
computed with sympy, which is imported only by the functions that need it.
Where an answer rests on a theorem rather than on a computation, the
function says which theorem.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

# --- point-case algebroids ---------------------------------------------------


class PointAlgebroid:
    """Structure constants and pairing of an algebroid over a point (n = 0)."""

    def __init__(self, doc):
        if int(doc["n"]) != 0:
            raise ValueError("not a point-case algebroid")
        r = int(doc["rank"])
        self.rank = r
        self.g = [[Fraction(x) for x in row] for row in doc["pairing"]]
        self.c = [[[Fraction(0)] * r for _ in range(r)] for _ in range(r)]
        for key, comps in doc.get("bracket", {}).items():
            i, j = (int(t) - 1 for t in key.split(","))
            self.c[i][j] = [Fraction(x) for x in comps]

    def bracket(self, a, b):
        r = self.rank
        return [sum((a[i] * b[j] * self.c[i][j][k]
                     for i in range(r) for j in range(r)), Fraction(0))
                for k in range(r)]

    def pairing(self, a, b):
        r = self.rank
        return sum((a[i] * self.g[i][j] * b[j]
                    for i in range(r) for j in range(r)), Fraction(0))

    def unit(self, i):
        return [Fraction(int(k == i)) for k in range(self.rank)]


def point_axiom_failures(doc):
    """Expected verify-algebroid verdict of a point-case algebroid.

    Over a point the anchor and the dual differential vanish, so the Courant
    axioms reduce to three conditions on the frame: the Jacobi identity of
    the structure constants, invariance of the pairing, and a skew bracket
    (its symmetric part must equal the dual differential, which is zero).
    The Leibniz and anchor identities hold trivially.  Returns a dict from
    the name of each check that must fail to its (witness, residual), where
    the witness is the first failing frame tuple in lexicographic order.
    """
    alg = PointAlgebroid(doc)
    r = alg.rank
    e = [alg.unit(i) for i in range(r)]
    failures = {}

    def label(idx):
        return " , ".join(f"e{i + 1}" for i in idx)

    for a, b, c in product(range(r), repeat=3):
        bc = alg.bracket(e[b], e[c])
        jac = [x - y - z for x, y, z in zip(
            alg.bracket(e[a], bc),
            alg.bracket(alg.bracket(e[a], e[b]), e[c]),
            alg.bracket(e[b], alg.bracket(e[a], e[c])))]
        if any(jac) and "jacobi-leibniz" not in failures:
            failures["jacobi-leibniz"] = (label((a, b, c)), None)
        res = (alg.pairing(alg.bracket(e[a], e[b]), e[c])
               + alg.pairing(e[b], alg.bracket(e[a], e[c])))
        if res and "pairing-compatibility" not in failures:
            failures["pairing-compatibility"] = (label((a, b, c)), str(res))
    for a, b in product(range(r), repeat=2):
        sym = [x + y for x, y in zip(alg.bracket(e[a], e[b]),
                                     alg.bracket(e[b], e[a]))]
        if any(sym) and "symmetric-part-is-dual-differential" not in failures:
            failures["symmetric-part-is-dual-differential"] = (
                label((a, b)), None)
    return failures


def _fraction_rank(rows):
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _sort_sign(seq):
    """Sign of the permutation sorting seq, or 0 when seq repeats an entry."""
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def chevalley_eilenberg_table(doc):
    """Rows {p, dim, rank_d, betti} of the Chevalley-Eilenberg complex.

    Over a point the standard complex of a quadratic Lie algebra is the
    Chevalley-Eilenberg complex of alternating forms, with
    (dw)(x0..xp) = sum_{i<j} (-1)^(i+j) w([xi,xj], x0..^i..^j..xp).
    Ranks are taken over Fraction.
    """
    alg = PointAlgebroid(doc)
    r = alg.rank

    def matrix(p):
        rows = list(combinations(range(r), p + 1))
        cols = list(combinations(range(r), p))
        out = []
        for args in rows:
            row = []
            for col in cols:
                total = Fraction(0)
                for i, j in combinations(range(p + 1), 2):
                    rest = [args[t] for t in range(p + 1) if t not in (i, j)]
                    for k, coeff in enumerate(alg.c[args[i]][args[j]]):
                        if coeff and sorted([k] + rest) == list(col):
                            total += (-1) ** (i + j) * coeff * _sort_sign([k] + rest)
                row.append(total)
            out.append(row)
        return out

    ranks = [_fraction_rank(matrix(p)) if p < r else 0 for p in range(r + 1)]
    table = []
    for p in range(r + 1):
        dim = len(list(combinations(range(r), p)))
        betti = dim - ranks[p] - (ranks[p - 1] if p else 0)
        table.append({"p": p, "dim": dim, "rank_d": ranks[p], "betti": betti})
    return table


def standard_pairing(n):
    """Pairing matrix of T + T* in the frame (d/dx1..d/dxn, dx1..dxn)."""
    return [[Fraction(int(abs(i - j) == n)) for j in range(2 * n)]
            for i in range(2 * n)]


def is_isotropic(pairing, rows):
    """Whether constant frame rows pair to zero among themselves."""
    vecs = [[Fraction(x) for x in row] for row in rows]
    size = len(pairing)
    return all(sum(a[i] * pairing[i][j] * b[j]
                   for i in range(size) for j in range(size)) == 0
               for a in vecs for b in vecs)


# --- Riemann tensor of a metric, with sympy ------------------------------------


def _sympy_expr(text, symbols):
    import sympy

    return sympy.sympify(text.replace("^", "**"), locals=symbols)


def riemann_mismatches(metric_diagonal, program_components):
    """Compare the program's curvature with the Riemann tensor of a metric.

    metric_diagonal holds the diagonal entries of g as scalar text in x1..xn.
    program_components maps "l,k,i,j" (1-based) to the program's value of
    the d/dx_l component of R(d/dx_i, d/dx_j) d/dx_k.  Christoffel symbols
    and R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    are computed here from the metric alone.  Returns the keys that differ,
    and the keys of nonzero Riemann components the program did not give.
    """
    import sympy

    n = len(metric_diagonal)
    xs = sympy.symbols(" ".join(f"x{i + 1}" for i in range(n)))
    if n == 1:
        xs = (xs,)
    symbols = {f"x{i + 1}": xs[i] for i in range(n)}
    g = sympy.diag(*[_sympy_expr(t, symbols) for t in metric_diagonal])
    ginv = g.inv()
    gam = [[[sympy.cancel(sum(ginv[l, m] * (sympy.diff(g[m, j], xs[i])
                                            + sympy.diff(g[m, i], xs[j])
                                            - sympy.diff(g[i, j], xs[m]))
                              for m in range(n)) / 2)
              for j in range(n)] for i in range(n)] for l in range(n)]
    bad = []
    for l, k, i, j in product(range(n), repeat=4):
        want = (sympy.diff(gam[l][j][k], xs[i]) - sympy.diff(gam[l][i][k], xs[j])
                + sum(gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k]
                      for m in range(n)))
        key = f"{l + 1},{k + 1},{i + 1},{j + 1}"
        got = program_components.get(key)
        if got is None:
            if sympy.cancel(want) != 0:
                bad.append(key)
            continue
        if sympy.cancel(_sympy_expr(got, symbols) - want) != 0:
            bad.append(key)
    return bad
