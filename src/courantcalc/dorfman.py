"""Predual bundles and Dorfman connections, with curvature and Bianchi data.

A predual of an algebroid pairs a rank-s bundle B against the sections
through an s x r pairing matrix and carries a derivation map taking a
function f to a section d_B f of B; the compatibility `alpha^T P = anchor`
is enforced at construction, which makes the pairing of d_B f against a
section equal the anchor derivative of f.  B and its tensor bundles are
framed modules of ``algebroid``, as the algebroid itself is: their elements
are its :class:`~courantcalc.algebroid.Section` over their own frames.

A connection is stored through its frame coefficients and extended to all
arguments by its two Leibniz axioms; the third axiom (d_B-equivariance) is
what construction has to arrange and what verification checks.

Memos follow the policy of ``algebroid``.  A predual keeps its pairings and
derivation images, and a connection and its induced module connection keep
``apply``, for their lifetime, keyed by value: lifetime memos hold the
argument pairs that callers meet again, the battery pairs.  A check keeps
what it builds for one tuple in per-check memos, ``_memo``, and drops them
when it returns: its function-scaled sections and elements, the derivatives
taken with one of them or a ``d_B`` image as an argument (by the
unmemoised kernel ``_apply``), and the curvature values it compares more
than once.  The curvature operators R0 and R1 themselves apply through the
lifetime memo, whatever their arguments: their inner derivatives are the
pairs that the curvature meets again.

Bundle-valued cochains are not a second DAG: they are nodes of the cochain
DAG of ``cochain`` whose values lie in a module with a connection, and the
covariant differential is that DAG's differential taken along the
connection instead of the anchor.  The value modules are the tensor bundles
T^{p,q}(B), p copies of B tensored with q of its dual B*, and a Dorfman
connection on B induces one on each by the derivation rule: rho(sigma) on
every component, nabla on each upper slot and minus its transpose on each
lower slot.  B is T^{1,0}; on B* = T^{0,1} the rule gives the dual
connection, on End(B) = T^{1,1} the commutator with nabla.  The curvature R
is an End(B)-valued cochain of degree 2 (its components are the operators
R0 and R1, which are not tensorial in the section slots), and the Bianchi
identity is d_nabla~ R = 0 along the connection induced on End(B).
``product_b``, ``covariant_differential``, ``interior_e_b``,
``interior_f_b``, ``nabla_e``, ``lie_f_nabla``, ``evaluateB`` and
``equal_b`` forward to ``cochain`` for the benchmark's traced layer; new
code calls ``cochain``, with the connection as ``along``.
"""

from __future__ import annotations

import random
from itertools import product

from . import linalg
from .algebroid import (
    _MIXED,
    CourantAlgebroid,
    FramedModule,
    Section,
    _derivative,
    _json_int,
    _keyed_array,
    _leibniz,
    _memo,
    _pair,
    _require_fields,
    _scalar_rows,
    _sparse_rows,
    _sparse_struct,
)
from .battery import Battery, probes
from .cochain import (
    Cochain,
    EvalContext,
    _Leaf,
    _node,
    differential,
    equal_combinations,
    evaluate,
    interior_e,
    interior_f,
    lie_e,
    lie_f,
    mul,
)
from .report import PreconditionError, Report, run_check
from .scalar import Scalar

__all__ = [
    "PredualBundle",
    "DorfmanConnection",
    "ConstructionError",
    "build_connection",
    "verify_connection",
    "affine_combine",
    "difference_check",
    "adapted_frame_defect",
    "LinearConnection",
    "induced_linear_connection",
    "compatibility_check",
    "TensorBundle",
    "TensorConnection",
    "b_leaf",
    "tensor",
    "product_b",
    "covariant_differential",
    "interior_e_b",
    "interior_f_b",
    "nabla_e",
    "lie_f_nabla",
    "evaluateB",
    "equal_b",
    "curvature_R0",
    "curvature_R1",
    "curvature",
    "curvature_symbol_checks",
    "curvature_laws",
    "bianchi_check",
    "bott_connection",
    "build_standard_connection",
    "build_port_hamiltonian_connections",
    "predual_from_json",
    "connection_from_json",
    "dirac_from_json",
    "christoffel_from_json",
    "predual_diagnose",
]


class ConstructionError(RuntimeError):
    """A builder that promises validity produced an invalid object."""


class _FramedBundle(FramedModule):
    """Rank-s bundle over an algebroid, with its tensor bundles (see
    :meth:`TensorBundle.of`)."""

    def __init__(self, alg, rank):
        self.alg = alg
        self.tensors = {}
        super().__init__(alg.n, rank)


class PredualBundle(_FramedBundle):
    """Rank-s bundle paired against an algebroid.

    pairing_matrix[i][j] pairs frame section j of the algebroid with bundle
    frame element i; alpha_matrix is s x n and d_B f has components
    alpha . grad(f).  Construction verifies alpha^T P = anchor exactly.
    """

    def __init__(self, alg, rank, pairing_matrix, alpha_matrix):
        if rank < 1:
            raise PreconditionError(f"rank must be >= 1, got {rank}")
        if len(pairing_matrix) != rank or any(len(r) != alg.rank for r in pairing_matrix):
            raise PreconditionError("pairing matrix must be rank x algebroid-rank")
        if len(alpha_matrix) != rank or any(len(r) != alg.n for r in alpha_matrix):
            raise PreconditionError("alpha matrix must be rank x n")
        self.pairing_matrix = [list(r) for r in pairing_matrix]
        self.alpha_matrix = [list(r) for r in alpha_matrix]
        lhs = linalg.mat_mul(linalg.mat_transpose(self.alpha_matrix), self.pairing_matrix)
        if not linalg.mat_eq(lhs, alg.anchor_matrix):
            raise PreconditionError(
                "alpha^T . pairing must equal the anchor matrix; "
                f"got {linalg.mat_str(lhs)} vs {linalg.mat_str(alg.anchor_matrix)}")
        super().__init__(alg, rank)
        # for each algebroid frame index i, the nonzero <e_i, b_j> as (j, value)
        self._pairing = _sparse_rows(
            [[self.pairing_matrix[j][i] for j in range(rank)] for i in range(alg.rank)])
        self._pairing_cache = {}
        self._dB_cache = {}

    def d_B(self, f):
        """Bundle element with components alpha . grad(f)."""
        cached = self._dB_cache.get(f)
        if cached is None:
            cached = Section(self, (_derivative(row, f) for row in self.alpha_matrix))
            self._dB_cache[f] = cached
        return cached

    def b_pairing(self, sigma, b):
        """Pairing of an algebroid section against a bundle element, kept
        for the bundle's lifetime, keyed by the argument pair."""
        if sigma.module is not self.alg or b.module is not self:
            raise PreconditionError(_MIXED)
        key = (sigma, b)
        cached = self._pairing_cache.get(key)
        if cached is None:
            cached = self._pairing_cache[key] = _pair(sigma, self._pairing, b)
        return cached

    def test_elements(self, degree=2, extras=3, seed=0):
        """Frame, monomial-scaled frame and seeded random bundle elements."""
        rng = random.Random(f"b-battery:{seed}:{self.n}:{self.rank}")
        return [b for part in probes(self, degree, extras, rng) for _, b in part]

    def __repr__(self):
        return f"PredualBundle(rank={self.rank}, over {self.alg!r})"


def predual_diagnose(bundle):
    """Rank bookkeeping for the pairing: kernels on both sides and the case.

    Returns a dict with the pairing rank, the rank of the kernel inside the
    bundle, the rank of the kernel inside the algebroid, and which splitting
    case applies ("bundle-extends-algebroid", "algebroid-extends-bundle",
    "isomorphic", or "degenerate-both").
    """
    p_rank = linalg.rank(bundle.pairing_matrix)
    k_rank = bundle.rank - p_rank
    f_rank = bundle.alg.rank - p_rank
    if k_rank == 0 and f_rank == 0:
        case = "isomorphic"
    elif f_rank == 0:
        case = "bundle-extends-algebroid"
    elif k_rank == 0:
        case = "algebroid-extends-bundle"
    else:
        case = "degenerate-both"
    return {"pairing_rank": p_rank, "kernel_in_bundle": k_rank,
            "kernel_in_algebroid": f_rank, "case": case}


class DorfmanConnection:
    """Connection data: gamma[i][j][q] is the coefficient of bundle frame q
    in the derivative of bundle frame j along algebroid frame i.  Arbitrary
    arguments are handled by the two Leibniz axioms."""

    def __init__(self, bundle, gamma):
        alg = bundle.alg
        if len(gamma) != alg.rank or any(len(row) != bundle.rank for row in gamma) \
                or any(len(cell) != bundle.rank for row in gamma for cell in row):
            raise PreconditionError("gamma must be algebroid-rank x rank x rank")
        self.bundle = bundle
        self.alg = alg
        self.gamma = [[list(cell) for cell in row] for row in gamma]
        self._struct = _sparse_struct(self.gamma)
        self._apply_cache = {}

    def apply(self, sigma, b):
        """Covariant derivative of the bundle element b along sigma, kept
        for the connection's lifetime, keyed by the argument pair."""
        key = (sigma, b)
        cached = self._apply_cache.get(key)
        if cached is None:
            cached = self._apply_cache[key] = self._apply(sigma, b)
        return cached

    def _apply(self, sigma, b):
        """The covariant derivative computed afresh, kept nowhere: for an
        argument pair that is not met again."""
        if sigma.module is not self.alg or b.module is not self.bundle:
            raise PreconditionError("arguments belong to a different algebroid "
                                    "or bundle")
        return Section(self.bundle, _leibniz(
            sigma.components, b.components, self.alg._anchor_row(sigma),
            self._struct, self.bundle._pairing, self.bundle.d_B))

    def __repr__(self):
        return f"DorfmanConnection(over {self.bundle!r})"


# ---------------------------------------------------------------------------
# construction and verification
# ---------------------------------------------------------------------------


def build_connection(bundle, battery):
    """Produce a connection on the predual bundle.

    The frame values start from the derivation term d_B of the pairing
    coefficients.  The obstruction to the third axiom is, for algebroid
    frame index k, N_k[l][q] = sum_t P[t][k] [alpha_q, alpha_t]^l, the
    bracket of the vector fields alpha_q = sum_j alpha[q][j] d_j weighted by
    the pairing; it is cancelled by a correction C_k with alpha^T C_k = N_k,
    solved exactly over the fraction field with deterministic pivoting and
    free block set to zero.  A zero N_k (constant alpha, a point) has the
    zero correction.  The result is verified once, by verify_connection on
    the battery, as a self-test.

    Returns (connection, report), the report being that of the self-test.
    Raises PreconditionError when some system is inconsistent and
    ConstructionError if the result fails verification (it cannot happen
    when the predual compatibility holds).
    """
    s, n, r = bundle.rank, bundle.alg.n, bundle.alg.rank
    A, P = bundle.alpha_matrix, bundle.pairing_matrix
    at = linalg.mat_transpose(A)
    brackets = [[_field_bracket(A[q], A[t]) for t in range(s)] for q in range(s)]
    zero = Scalar.zero(n)
    gamma = []
    for k in range(r):
        weights = [(t, P[t][k]) for t in range(s) if not P[t][k].is_zero()]
        nk = [[sum((p * brackets[q][t][l] for t, p in weights
                    if not brackets[q][t][l].is_zero()), zero)
               for q in range(s)] for l in range(n)]
        rows = [list(bundle.d_B(P[j][k]).components) for j in range(s)]
        if not linalg.mat_is_zero(nk):
            ck = linalg.solve_matrix(at, nk)
            if ck is None:
                raise PreconditionError(
                    f"no connection correction exists for frame index {k}: "
                    "the linear system alpha^T C = N is inconsistent")
            rows = [[x + c for x, c in zip(row, crow)] for row, crow in zip(rows, ck)]
        gamma.append(rows)
    conn = DorfmanConnection(bundle, gamma)
    report = verify_connection(conn, battery)
    _self_test(report, "constructed connection")
    return conn, report


def _field_bracket(u, v):
    """[u, v]^l = u(v^l) - v(u^l), the bracket of the vector fields with
    coefficient rows u and v."""
    return [_derivative(u, b) - _derivative(v, a) for a, b in zip(u, v)]


def _self_test(report, what):
    """Raise ConstructionError naming the first failed check of report."""
    if not report.passed:
        bad = report.failed_checks()[0]
        raise ConstructionError(f"{what} failed {bad.name} at {bad.witness} "
                                f"(residual {bad.residual})")


def _b_elements(bundle, battery):
    """The bundle's test elements at the battery's degree, extras and seed."""
    return bundle.test_elements(degree=battery.degree, extras=battery.extras,
                                seed=battery.seed)


def _strided(xs, k):
    """Every (len(xs) // k)-th element of xs from the first: about k of them."""
    return xs[:: max(1, len(xs) // k)]


def verify_connection(conn, battery):
    """Exact check of the three connection axioms on battery data.

    Battery pairs go through the connection's memo; what is built for one
    tuple goes through memos of this call's own (see the module docstring).
    """
    bundle, alg = conn.bundle, conn.alg
    b_elements = _b_elements(bundle, battery)
    secs = battery.frame + battery.scaled[: 2 * alg.rank] + battery.randoms
    funs = battery.functions
    sample = list(product(secs, funs[:6] + funs[-2:],
                          _strided(b_elements, 8)))
    report = Report(f"connection axioms of {conn!r}")
    # battery pairs recur from check to check, so their derivatives go
    # through the connection's memo; one with an argument built for one
    # tuple (a scaled section or element, a d_B image) is computed afresh
    # by the kernel, ap1, and kept for this call only: the same value pair
    # recurs (f = 1 keeps the argument, x1.(x2.e1) = x2.(x1.e1))
    ap, ap1 = conn.apply, _memo(conn._apply)
    # f.sigma recurs for every b, f.b for every sigma, and nabla_sigma b.f in
    # both Leibniz checks
    sc = _memo(Section.scale)

    def section_scaling(sigma, f, b):
        return (ap1(sc(sigma, f), b),
                sc(ap(sigma, b), f) + bundle.d_B(f).scale(bundle.b_pairing(sigma, b)))

    def bundle_leibniz(sigma, f, b):
        return (ap1(sigma, sc(b, f)),
                sc(ap(sigma, b), f) + b.scale(alg.anchor_apply(sigma, f)))

    def at(sigma, f, b):
        return f"{battery.label(sigma)}, f={f}, b={b}"

    run_check(report, "scaling-in-the-section-slot", sample, section_scaling, at)
    run_check(report, "leibniz-in-the-bundle-slot", sample, bundle_leibniz, at)
    run_check(report, "derivation-image-equivariance", product(secs, funs),
              lambda sigma, f: (ap1(sigma, bundle.d_B(f)),
                                bundle.d_B(alg.anchor_apply(sigma, f))),
              lambda sigma, f: f"{battery.label(sigma)}, f={f}")
    return report


def affine_combine(conn0, conn1, g):
    """The affine combination (1 - g) conn0 + g conn1 on a shared predual."""
    if conn0.bundle is not conn1.bundle:
        raise PreconditionError("connections live on different preduals")
    if g.is_zero():
        return conn0
    one = Scalar.one(conn0.alg.n)
    gamma = [[[(one - g) * a + g * b for a, b in zip(ra, rb)]
              for ra, rb in zip(rowa, rowb)]
             for rowa, rowb in zip(conn0.gamma, conn1.gamma)]
    return DorfmanConnection(conn0.bundle, gamma)


def difference_check(conn0, conn1, battery):
    """The difference of two connections is bilinear over the scalar ring
    and kills every d_B image.  Battery pairs go through the connections'
    memos, what is built for one tuple through memos of this call's own."""
    bundle, alg = conn0.bundle, conn0.alg
    if conn1.bundle is not bundle:
        raise PreconditionError("connections live on different preduals")
    b_elements = _b_elements(bundle, battery)
    secs = battery.frame + battery.scaled[: alg.rank] + battery.randoms
    sample = list(product(secs, battery.functions[:5],
                          _strided(b_elements, 6)))
    report = Report("difference of connections")
    fresh0, fresh1 = _memo(conn0._apply), _memo(conn1._apply)
    sc = _memo(Section.scale)
    # the difference at a battery pair recurs for every f in both checks
    diff = _memo(lambda sigma, b: conn0.apply(sigma, b) - conn1.apply(sigma, b))

    def diff1(sigma, b):
        return fresh0(sigma, b) - fresh1(sigma, b)

    def at(sigma, f, *_):
        return f"{battery.label(sigma)}, f={f}"

    run_check(report, "linear-over-functions-in-the-section-slot", sample,
              lambda sigma, f, b: (diff1(sc(sigma, f), b), sc(diff(sigma, b), f)),
              at)
    run_check(report, "linear-over-functions-in-the-bundle-slot", sample,
              lambda sigma, f, b: (diff1(sigma, sc(b, f)), sc(diff(sigma, b), f)),
              at)
    # the difference kills d_B f: both connections agree on it
    run_check(report, "kills-derivation-images", product(secs, battery.functions),
              lambda sigma, f: (fresh0(sigma, bundle.d_B(f)),
                                fresh1(sigma, bundle.d_B(f))), at)
    return report


# ---------------------------------------------------------------------------
# induced linear connection on the algebroid
# ---------------------------------------------------------------------------


def adapted_frame_defect(bundle):
    """Why the predual's frame is not adapted to the algebroid's, or None.

    The frames are adapted when bundle frame element i pairs as algebroid
    frame element i for i < min(r, s) and pairs to zero for i >= r: the
    bundle frame starts with a copy of the algebroid frame when s >= r, and
    the algebroid frame with a copy of the bundle frame when s <= r.
    """
    alg = bundle.alg
    zero = Scalar.zero(alg.n)
    for i in range(bundle.rank):
        for j in range(alg.rank):
            want = alg.pairing_matrix[i][j] if i < alg.rank else zero
            if bundle.pairing_matrix[i][j] != want:
                return ("adapted-frame check failed at "
                        f"({i}, {j}): {bundle.pairing_matrix[i][j]} != {want}")
    return None


class LinearConnection:
    """Classical module connection induced on the algebroid sections, over
    an adapted frame (see :func:`adapted_frame_defect`): a bundle element
    acts as the section of its first r components, padded with zeros below
    rank r."""

    def __init__(self, conn):
        defect = adapted_frame_defect(conn.bundle)
        if defect is not None:
            raise PreconditionError(defect)
        self.conn = conn
        self._apply_cache = {}
        self._zeros = (Scalar.zero(conn.alg.n),) * conn.alg.rank

    def _to_section(self, b):
        alg = self.conn.alg
        return Section(alg, (b.components + self._zeros)[: alg.rank])

    def apply(self, b, e):
        """Derivative of the section e along the bundle element b, kept for
        the instance's lifetime, keyed by the argument pair."""
        key = (b, e)
        cached = self._apply_cache.get(key)
        if cached is None:
            cached = self._apply_cache[key] = self._apply(b, e)
        return cached

    def _apply(self, b, e):
        """The derivative computed afresh, kept nowhere."""
        conn = self.conn
        return self._to_section(conn.apply(e, b)) - conn.alg.bracket(e, self._to_section(b))

    def anchor_apply(self, b, f):
        return self.conn.alg.anchor_apply(self._to_section(b), f)


def induced_linear_connection(conn, battery):
    """The module connection induced over the adapted frame, self-tested."""
    lin = LinearConnection(conn)
    _self_test(verify_linear_connection(lin, battery), "induced connection")
    return lin


def verify_linear_connection(lin, battery):
    """The module-connection laws of lin on battery data.  Battery pairs go
    through lin's memo, what is built for one tuple through memos of this
    call's own."""
    conn = lin.conn
    bundle, alg = conn.bundle, conn.alg
    b_elements = _b_elements(bundle, battery)
    secs = battery.frame + battery.scaled[: alg.rank] + battery.randoms
    sample = list(product(_strided(b_elements, 8),
                          battery.functions[:5], secs))
    report = Report("module-connection laws")
    ap, ap1 = lin.apply, _memo(lin._apply)
    # nabla_b e.f recurs in both checks
    sc = _memo(Section.scale)

    def at(b, f, e):
        return f"b={b}, f={f}, {battery.label(e)}"

    run_check(report, "tensorial-in-the-bundle-slot", sample,
              lambda b, f, e: (ap1(sc(b, f), e), sc(ap(b, e), f)),
              at)
    run_check(report, "leibniz-in-the-section-slot", sample,
              lambda b, f, e: (ap1(b, sc(e, f)),
                               sc(ap(b, e), f) + e.scale(lin.anchor_apply(b, f))),
              at)
    return report


def compatibility_check(conn, lin, battery):
    """Pairing compatibility tying the bracket, the connection and its
    induced module connection."""
    bundle, alg = conn.bundle, conn.alg
    b_elements = _b_elements(bundle, battery)
    secs = battery.frame + battery.scaled[: alg.rank] + battery.randoms[:2]
    report = Report("bracket-connection compatibility")

    def sides(e, ep, b):
        return (alg.anchor_apply(e, bundle.b_pairing(ep, b))
                + alg.pairing(lin.apply(b, e), ep),
                bundle.b_pairing(alg.bracket(e, ep), b)
                + bundle.b_pairing(ep, conn.apply(e, b)))

    run_check(report, "pairing-compatibility-with-connection",
              product(secs, secs, _strided(b_elements, 6)),
              sides,
              lambda e, ep, b: f"{battery.label(e)}, {battery.label(ep)}, b={b}")
    return report


# ---------------------------------------------------------------------------
# the tensor bundles T^{p,q}(B) with their induced connections
# ---------------------------------------------------------------------------


class TensorBundle(_FramedBundle):
    """T^{p,q}(B), the tensor product of p copies of B and q of its dual B*,
    over the product of B's frame (upper slots) and its dual frame (lower
    slots), the last slot varying fastest.  So (0, 1) is B* and (1, 1) is
    End(B), its component (i, j) the i-th component of the image of e_j."""

    def __init__(self, base, p, q):
        self.base, self.p, self.q = base, p, q
        super().__init__(base.alg, base.rank ** (p + q))

    @classmethod
    def of(cls, base, p, q):
        """The one T^{p,q} of base, cached on base; (1, 0) is base itself."""
        if (p, q) == (1, 0):
            return base
        if (p, q) not in base.tensors:
            base.tensors[(p, q)] = cls(base, p, q)
        return base.tensors[(p, q)]

    def contract(self, t, b):
        """t with its last lower slot contracted against b in B: a Scalar at
        (0, 1), an element of B at (1, 1), of T^{p,q-1} in general."""
        if not self.q:
            raise PreconditionError(f"T^{self.p},0 has no lower slot to contract")
        if t.module is not self or b.module is not self.base:
            raise PreconditionError(_MIXED)
        zero, s = Scalar.zero(self.n), self.base.rank
        out = [sum((c * h for c, h in zip(t.components[k:k + s], b.components)
                    if not (c.is_zero() or h.is_zero())), zero)
               for k in range(0, self.rank, s)]
        if self.p + self.q == 1:
            return out[0]
        return Section(TensorBundle.of(self.base, self.p, self.q - 1), out)

    def show(self, components):
        """Rows of the matrix whose column index is the last slot, from
        two slots on; End(B) prints its matrix this way."""
        if self.p + self.q < 2:
            return super().show(components)
        s = self.base.rank
        return linalg.mat_str(components[k:k + s] for k in range(0, self.rank, s))


class TensorConnection:
    """The connection induced on T^{p,q}(B) by a connection on B, extended as
    a derivation: rho(sigma) on every component, plus A_sigma on each upper
    slot and minus its transpose on each lower slot, where
    nabla_sigma e_j = sum_m A_sigma[j][m] e_m (Kobayashi-Nomizu I, ch. III).
    On B* this is the dual connection, on End(B) the commutator with nabla."""

    def __init__(self, conn, p, q):
        self.conn, self.alg, self.p, self.q = conn, conn.alg, p, q
        self.bundle = TensorBundle.of(conn.bundle, p, q)

    def apply(self, sigma, t):
        frame = self.conn.bundle.frame
        a = [self.conn.apply(sigma, e).components for e in frame]
        # the matrix each slot acts by, row j the image of its j-th frame element
        mats = [a] * self.p + [[[-x for x in col] for col in zip(*a)]] * self.q
        out = [self.alg.anchor_apply(sigma, c) for c in t.components]
        for k, c in enumerate(t.components):
            if c.is_zero():
                continue
            for slot, mat in enumerate(mats):
                stride = len(frame) ** (len(mats) - 1 - slot)
                j = k // stride % len(frame)
                for m, coef in enumerate(mat[j]):
                    if not coef.is_zero():
                        i = k + (m - j) * stride
                        out[i] = out[i] + coef * c
        return Section(self.bundle, out)


# ---------------------------------------------------------------------------
# bundle-valued cochains and the covariant differential
# ---------------------------------------------------------------------------


def b_leaf(bundle, b):
    """The degree-0 cochain with the constant value b."""
    return _node(_Leaf, bundle.alg, bundle.alg, b, bundle.zero())


def tensor(omega, bundle, b):
    """The scalar cochain omega times the constant bundle element b."""
    return product_b(omega, b_leaf(bundle, b))


def product_b(omega, child):
    """The scalar cochain omega times the bundle-valued cochain child."""
    return mul(omega, child)


def covariant_differential(conn, child):
    return differential(child, conn)


def interior_e_b(section, child):
    return interior_e(section, child)


def interior_f_b(function, child):
    return interior_f(function, child)


def nabla_e(conn, section, child):
    """Covariant derivative along a section: the anticommutator of the
    interior product with the covariant differential."""
    return lie_e(section, child, conn)


def lie_f_nabla(conn, function, child):
    """Commutator of the function contraction with the covariant
    differential."""
    return lie_f(function, child, conn)


def evaluateB(node, k, sections, functions=(), ctx=None):
    """Component k of a bundle-valued cochain, as ``cochain.evaluate``."""
    return evaluate(node, k, sections, functions, ctx)


def equal_b(lhs, rhs, battery, reduced=True, ctx=None):
    """Equality of signed sums of bundle-valued cochains on the battery, as
    ``cochain.equal_combinations``; returns its ``EqualityResult``."""
    return equal_combinations(lhs, rhs, battery, reduced, ctx)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_R0(conn, sigma, tau, b):
    """Three-term curvature operator; not tensorial in the section slots."""
    return (conn.apply(sigma, conn.apply(tau, b))
            - conn.apply(tau, conn.apply(sigma, b))
            - conn.apply(conn.alg.bracket(sigma, tau), b))


def curvature_R1(conn, f, b):
    """Derivative along the pairing-dual differential of f."""
    return conn.apply(conn.alg.d_E(f), b)


class _Curvature(Cochain):
    """The curvature as a degree-2 End(B)-valued cochain, End(B) being
    T^{1,1}(B): component 0 at (sigma, tau) is R0 and component 1 at f is
    R1, column by column.  Linearity over functions in the bundle slot is a
    consequence of the connection axioms, so the frame columns determine
    each operator."""

    __slots__ = ("conn",)

    def __init__(self, conn):
        super().__init__(conn.alg, TensorBundle.of(conn.bundle, 1, 1).zero(), 2, 2)
        self.conn = conn

    def _eval(self, k, es, fs, ctx):
        conn = self.conn
        if k == 0:
            sigma, tau = ctx.sections[es[0]], ctx.sections[es[1]]
            cols = (curvature_R0(conn, sigma, tau, b) for b in conn.bundle.frame)
        else:
            f = ctx.functions[fs[0]]
            cols = (curvature_R1(conn, f, b) for b in conn.bundle.frame)
        rows = zip(*(col.components for col in cols))
        return Section(self.zero.module, (c for row in rows for c in row))


def curvature(conn):
    """The curvature of conn as an End(B)-valued cochain of degree 2."""
    return _node(_Curvature, conn.alg, conn)


def curvature_symbol_checks(conn, lin, battery):
    """Scaling defects of the curvature in both section slots.

    The second-slot defect must contract to the induced module connection
    against the derivation image; the first-slot defect carries two extra
    terms (dual differential of the pairing and a rescaled derivative).
    Each curvature value is computed once, in a memo of this call's own:
    R0(e1, e2, b) serves every f in both checks.
    """
    bundle, alg = conn.bundle, conn.alg
    b_elements = _b_elements(bundle, battery)
    frame = battery.frame
    probes = battery.scaled[: 2] + battery.randoms[:1]
    pairs = [(a, b) for a in frame for b in frame]
    pairs += [(p, frame[i % len(frame)]) for i, p in enumerate(probes)]
    pairs += [(frame[(i + 1) % len(frame)], p) for i, p in enumerate(probes)]
    if battery.randoms:
        pairs.append((battery.randoms[0], battery.randoms[-1]))
    funs = [f for f in battery.functions if not f.is_constant()][:3] \
        or battery.functions[:2]
    sample = [(e1, e2, f, b) for e1, e2 in pairs for f in funs
              for b in _strided(b_elements, 4)]
    report = Report("curvature slot symbols")
    r0, ap1, sc = _memo(curvature_R0), _memo(conn._apply), _memo(Section.scale)

    def second_slot(e1, e2, f, b):
        return (r0(conn, e1, sc(e2, f), b),
                sc(r0(conn, e1, e2, b), f)
                + bundle.d_B(f).scale(-alg.pairing(lin.apply(b, e1), e2)))

    def first_slot(e1, e2, f, b):
        # R0(f e1, e2) - f R0(e1, e2) equals
        # <e1, nabla_b e2> d_B f - <D<e1, e2>, b> d_B f - nabla_{<e1, e2> D f} b,
        # with the minus terms of each side moved to the other
        pair12 = alg.pairing(e1, e2)
        d_f = bundle.d_B(f)
        return (r0(conn, sc(e1, f), e2, b)
                + d_f.scale(bundle.b_pairing(alg.d_E(pair12), b))
                + ap1(sc(alg.d_E(f), pair12), b),
                sc(r0(conn, e1, e2, b), f)
                + d_f.scale(alg.pairing(e1, lin.apply(b, e2))))

    def at(e1, e2, f, b):
        return f"{battery.label(e1)}, {battery.label(e2)}, f={f}, b={b}"

    run_check(report, "second-slot-symbol", sample, second_slot, at)
    run_check(report, "first-slot-symbol", sample, first_slot, at)
    return report


def curvature_laws(conn, battery):
    """The curvature laws of conn: its action on derivation images, the
    square of its covariant differential, and the laws tying the curvature
    to the induced module connection, whose adapted frame is checked first."""
    lin = LinearConnection(conn)
    bundle = conn.bundle
    zero = bundle.zero()
    b_elements = _b_elements(bundle, battery)
    report = Report("curvature laws")
    functions = battery.functions
    # one context for the checks below: a square's value at a pair serves
    # every function it is met with
    ctx = EvalContext()
    run_check(report, "curvature-kills-derivation-images",
              ((s1, s2, f) for s1, s2 in battery.section_tuples(2, reduced=True)
               for f in functions[:5]),
              lambda s1, s2, f: (curvature_R0(conn, s1, s2, bundle.d_B(f)), zero),
              lambda s1, s2, f: f"{battery.label(s1)}, {battery.label(s2)}, f={f}")
    run_check(report, "function-curvature-kills-derivation-images",
              product(functions, functions[:5]),
              lambda f, g: (curvature_R1(conn, f, bundle.d_B(g)), zero),
              lambda f, g: f"f={f}, g={g}")

    def square(b):
        """The covariant differential applied twice to the constant b."""
        return differential(differential(b_leaf(bundle, b), conn), conn)

    run_check(report, "contracted-square-is-derivative-along-dual-differential",
              ((b, square(b), f) for b in _strided(b_elements, 6)
               for f in functions[:6]),
              lambda b, dd, f: (evaluate(interior_f(f, dd), 0, (), (), ctx),
                                curvature_R1(conn, f, b)),
              lambda b, dd, f: f"b={b}, f={f}")

    pairs = list(battery.section_tuples(2, reduced=True))[:20]
    # f.b recurs for every pair; the squares' values are memoised in ctx
    sc = _memo(Section.scale)
    run_check(report, "squared-differential-linear-over-functions",
              product(_strided(b_elements, 4), functions[:4], pairs),
              lambda b, f, pair: (evaluate(square(sc(b, f)), 0, pair, (), ctx),
                                  evaluate(square(b), 0, pair, (), ctx).scale(f)),
              lambda b, f, pair: f"b={b}, f={f}, {battery.describe(pair)}")

    report.extend(curvature_symbol_checks(conn, lin, battery))
    report.extend(verify_linear_connection(lin, battery))
    report.extend(compatibility_check(conn, lin, battery))
    return report


def bianchi_check(conn, battery):
    """The Bianchi identity d_nabla~ R = 0, component by component.

    R is :func:`curvature` and nabla~ the connection induced on End(B),
    T^{1,1}(B); the degree-3 component evaluates at three sections, the
    function component at a section and a function.  The dual check pairs
    the curvature of the connection induced on B*, T^{0,1}(B), the square of
    its covariant differential on the dual frame, against the curvature of
    conn.  Values are kept in memos of this call's own: the cochain values
    in one evaluation context, and R0 at (pair, b) once for every dual frame
    index.
    """
    report = Report("Bianchi identity")
    ctx = EvalContext()
    bianchi = differential(curvature(conn), TensorConnection(conn, 1, 1))

    zero = bianchi.zero

    run_check(report, "degree-3-component", battery.section_tuples(3, reduced=True),
              lambda *secs: (evaluate(bianchi, 0, secs, (), ctx), zero),
              lambda *secs: " , ".join(battery.describe(secs)))
    run_check(report, "function-component",
              ((sigma, f) for (sigma,) in battery.section_tuples(1)
               for f in battery.functions),
              lambda sigma, f: (evaluate(bianchi, 1, (sigma,), (f,), ctx), zero),
              lambda sigma, f: f"{battery.label(sigma)}, f={f}")

    dual = TensorConnection(conn, 0, 1)
    squares = [differential(differential(b_leaf(dual.bundle, beta), dual), dual)
               for beta in dual.bundle.frame]
    sample = _strided(_b_elements(conn.bundle, battery), 4)
    r0 = _memo(curvature_R0)

    def duality(pair, i, b):
        # a square's value at a pair serves every b, through ctx's memo, and
        # R0 at (pair, b) every i
        return (dual.bundle.contract(evaluate(squares[i], 0, pair, (), ctx), b),
                -r0(conn, *pair, b).components[i])

    def at(pair, i, b):
        return f"{', '.join(battery.describe(pair))}, beta={i}, b={b}"

    run_check(report, "dual-curvature-duality",
              product(battery.section_tuples(2, reduced=True), range(len(squares)),
                      sample),
              duality, at)
    return report


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------


def _self_predual(alg):
    """The algebroid as a predual of itself (pairing matrix, forced alpha).

    Cached per algebroid so connections built independently share a predual.
    """
    cached = alg.metadata.get("self_predual")
    if cached is None:
        cached = PredualBundle(alg, alg.rank, alg.pairing_matrix, alg._dual_anchor)
        alg.metadata["self_predual"] = cached
    return cached


def build_standard_connection(alg, christoffel=None):
    """Connection on the standard algebroid paired with itself, induced by a
    linear connection on the tangent frame together with its dual.

    christoffel[i][j][k] is the coefficient of tangent frame k in the
    derivative of tangent frame j along tangent direction i (any values
    work; flatness is not required).
    """
    n = alg.n
    if alg.rank != 2 * n:
        raise PreconditionError("expected a standard algebroid (rank = 2n)")
    zero = Scalar.zero(n)
    ch = christoffel
    if ch is None:
        ch = [[[zero] * n for _ in range(n)] for _ in range(n)]
    if len(ch) != n or any(len(row) != n for row in ch) or any(
            len(cell) != n for row in ch for cell in row):
        raise PreconditionError("christoffel data must be n x n x n")
    bundle = _self_predual(alg)
    r = alg.rank
    gamma = [[[zero] * r for _ in range(r)] for _ in range(r)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # tangent block: the linear connection itself
                gamma[i][j][k] = ch[i][j][k]
                # cotangent frame differentiated along a cotangent direction
                # through the dual connection, contracted against the frame
                gamma[n + i][j][n + k] = -ch[k][j][i]
    return DorfmanConnection(bundle, gamma)


def build_port_hamiltonian_connections(alg):
    """The two projection connections of a port-Hamiltonian algebroid.

    Returns (conn, conn_prime) on the cotangent+port and cotangent+co-port
    preduals: each is the bracket of the algebroid projected on the
    sub-frame, which the bracket keeps invariant.
    """
    v = alg.metadata.get("port_hamiltonian")
    if v is None:
        raise PreconditionError("algebroid does not carry port-Hamiltonian data")
    n = alg.n
    cotangent = list(range(n, 2 * n))
    ports = list(range(2 * n, 2 * n + v))
    co_ports = list(range(2 * n + v, 2 * n + 2 * v))
    return _projection(alg, cotangent + ports), _projection(alg, cotangent + co_ports)


def _projection(alg, sub):
    """The bracket of alg projected on the sub-frame of the frame indices
    sub: the predual whose frame element j is frame section sub[j], paired
    and differentiated as in alg, with the connection coefficients
    gamma[i][j] the sub components of the frame bracket [e_i, e_sub[j]]."""
    bundle = PredualBundle(alg, len(sub),
                           [[alg.pairing_matrix[i][j] for i in range(alg.rank)]
                            for j in sub],
                           [alg._dual_anchor[j] for j in sub])
    gamma = [[[alg.bracket_coeffs[i][j][q] for q in sub] for j in sub]
             for i in range(alg.rank)]
    return DorfmanConnection(bundle, gamma)


def bott_connection(alg, l_sections, battery_degree=2, extras=3, seed=0):
    """Quotient connection of an involutive Lagrangian subbundle L.

    Verifies isotropy, rank and bracket-closure of the given spanning
    sections l_j (with witnesses).  The pairing identifies E/L with L*: the
    class of e is <e, .> on L.  So the quotient predual is L* over the frame
    eps_j dual to the l_j, with the identity pairing and d_B f = (rho(l_j) f)_j,
    and the connection, bracketing and projecting, is the coadjoint one:
    nabla_{l_i} eps_j = -sum_k c_ik^j eps_k where [l_i, l_k] = sum_m c_ik^m l_m.

    Returns (bundle, connection, report).
    """
    r = alg.rank
    half = r // 2
    if 2 * half != r:
        raise PreconditionError(
            f"rank {r} is odd, so the algebroid has no Lagrangian subbundle")
    if len(l_sections) != half:
        raise PreconditionError(
            f"need rank/2 = {half} spanning sections, got {len(l_sections)}")
    for i, li in enumerate(l_sections):
        for j, lj in enumerate(l_sections):
            p = alg.pairing(li, lj)
            if not p.is_zero():
                raise PreconditionError(
                    f"not isotropic: pairing of sections {i + 1} and {j + 1} "
                    f"is {p}")
    comp_matrix = [list(l.components) for l in l_sections]
    if linalg.rank(comp_matrix) != half:
        raise PreconditionError("spanning sections are dependent over the "
                                "fraction field")
    # bracket closure, recording structure functions over the subframe
    span_t = linalg.mat_transpose(comp_matrix)
    struct = [[None] * half for _ in range(half)]
    for i in range(half):
        for j in range(half):
            br = alg.bracket(l_sections[i], l_sections[j])
            sol = linalg.solve(span_t, list(br.components))
            if sol is None:
                raise PreconditionError(
                    f"not involutive: bracket of sections {i + 1} and {j + 1} "
                    f"leaves the span, value {br}")
            struct[i][j] = sol
    # restricted structure on the subbundle (isotropic: zero pairing block)
    n = alg.n
    zero, one = Scalar.zero(n), Scalar.one(n)
    anchor_rows = [list(alg._anchor_row(l)) for l in l_sections]
    sub = CourantAlgebroid(n, half, [[zero] * half for _ in range(half)],
                           [[row[l] for row in anchor_rows] for l in range(n)],
                           struct, _allow_degenerate=True)
    eye = [[one if i == j else zero for j in range(half)] for i in range(half)]
    bundle = PredualBundle(sub, half, eye, anchor_rows)
    gamma = [[[-struct[i][k][j] for k in range(half)] for j in range(half)]
             for i in range(half)]
    conn = DorfmanConnection(bundle, gamma)

    battery = Battery(sub, degree=battery_degree, extras=extras, seed=seed)
    report = Report("quotient connection of the subbundle")
    report.extend(verify_connection(conn, battery))
    sample = _strided(_b_elements(bundle, battery), 6)
    run_check(report, "curvature-vanishes",
              ((s1, s2, b) for s1, s2 in battery.section_tuples(2) for b in sample),
              lambda s1, s2, b: (curvature_R0(conn, s1, s2, b), bundle.zero()),
              lambda s1, s2, b: f"{battery.label(s1)}, {battery.label(s2)}, b={b}")
    secs = battery.frame + battery.scaled[:half] + battery.randoms[:2]

    def duality(l, lp, xi):
        return (sub.anchor_apply(l, bundle.b_pairing(lp, xi)),
                bundle.b_pairing(lp, conn.apply(l, xi))
                + bundle.b_pairing(sub.bracket(l, lp), xi))

    run_check(report, "duality-with-the-bracket", product(secs, secs, sample),
              duality,
              lambda l, lp, xi: f"{battery.label(l)}, {battery.label(lp)}, xi={xi}")
    return bundle, conn, report


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def predual_from_json(alg, doc):
    """{ "rank": s, "pairing_P": [[scalar-string]], "alpha_A": [[scalar-string]] }

    A document that does not fit the schema raises ParseError; well-formed
    data of the wrong shape raises PreconditionError.
    """
    _require_fields(doc, "predual", ("rank", "pairing_P", "alpha_A"))
    s = _json_int(doc, "rank")
    n = alg.n
    return PredualBundle(alg, s, _scalar_rows(doc["pairing_P"], "pairing_P", n),
                         _scalar_rows(doc["alpha_A"], "alpha_A", n))


def connection_from_json(bundle, doc):
    """{ "gamma": { "i,j": [scalar-string x s] } } with 1-based indices."""
    _require_fields(doc, "connection", ())
    return DorfmanConnection(bundle, _keyed_array(
        doc, "gamma", "gamma", bundle.alg.rank, bundle.rank, bundle.alg.n))


def connection_to_json(conn):
    gamma = {}
    for i, row in enumerate(conn.gamma):
        for j, cell in enumerate(row):
            if any(not x.is_zero() for x in cell):
                gamma[f"{i + 1},{j + 1}"] = [str(x) for x in cell]
    return {"gamma": gamma}


def dirac_from_json(alg, doc):
    """{ "frame": [[scalar-string x r] x r/2] } spanning sections."""
    _require_fields(doc, "dirac", ("frame",))
    return [alg.element(row) for row in _scalar_rows(doc["frame"], "frame", alg.n)]


def christoffel_from_json(doc, n):
    """{ "gamma": { "i,j": [scalar-string x n] } }, 1-based, zero default."""
    _require_fields(doc, "christoffel", ())
    return _keyed_array(doc, "gamma", "christoffel", n, n, n)
