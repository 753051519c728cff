"""Frame-based Courant algebroids on a coordinate patch.

A :class:`CourantAlgebroid` is given by structure data over the scalar ring
in n base variables: a symmetric pairing matrix on the rank-r frame, an
anchor matrix, and bracket structure functions.  The bracket and the map
taking a function to its pairing-dual differential are extended to arbitrary
sections by the Leibniz rules, and :func:`verify_axioms` checks the defining
identities exactly on a battery of test sections and functions.

Memos: an algebroid keeps its brackets, pairings, anchor rows, anchor
derivatives and dual differentials for its lifetime, keyed by value, as the
bundles and connections of ``dorfman`` keep theirs.  Lifetime memos hold
the argument pairs that callers meet again: battery pairs, the bracket
insertions of a cochain differential.  A value that a check builds for one
tuple (a function-scaled section, ``d_E f``, an inner bracket) goes into a
per-check memo, ``_memo(fn)``, which the check drops when it returns; a
pairing is one scalar, so the pairing memos keep every pair.
``verify_axioms`` keeps its scaled sections in ``_memo(Section.scale)``, but
brackets its per-tuple arguments through the unmemoised kernel
``_bracket`` and keeps them nowhere: a memo of them would cost more memory
than the time it saves.  Partial derivatives are kept on the scalar.

All indices in the Python API are 0-based; the JSON file format uses
1-based indices ("i,j" keys) and the x1..xn text syntax.
"""

from __future__ import annotations

from . import linalg
from .report import PreconditionError, Report, run_check
from .scalar import ParseError, Scalar, parse_scalar, sum_of_products

__all__ = [
    "Section",
    "FramedModule",
    "CourantAlgebroid",
    "verify_axioms",
    "build_standard",
    "build_quadratic_lie_algebra",
    "build_from_structure_data",
    "build_port_hamiltonian",
    "algebroid_from_json",
    "algebroid_to_json",
]


class Section:
    """Element of a framed module, as its component vector over the module's
    frame: a section of an algebroid E, of a predual B or of a tensor bundle
    T^{p,q}(B).  Arithmetic needs both operands in the same module."""

    __slots__ = ("module", "components", "_hash")

    def __init__(self, module, components):
        components = tuple(components)
        if len(components) != module.rank:
            raise PreconditionError(
                f"section has {len(components)} components, rank is {module.rank}")
        self.module = module
        self.components = components
        self._hash = None

    def __add__(self, other):
        if other.module is not self.module:
            raise PreconditionError(_MIXED)
        # a zero component passes the other one through unchanged
        return Section(self.module, tuple(
            (a + b if a.num else b) if b.num else a
            for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        if other.module is not self.module:
            raise PreconditionError(_MIXED)
        return Section(self.module, tuple(
            a - b if b.num else a for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return Section(self.module, tuple(-a for a in self.components))

    def scale(self, f):
        if f.is_zero():
            return self.module.zero()
        return Section(self.module, tuple(f * a if a.num else a for a in self.components))

    def is_zero(self):
        return all(a.is_zero() for a in self.components)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Section):
            return NotImplemented
        return self.module is other.module and self.components == other.components

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.module), self.components))
            self._hash = h
        return h

    def __str__(self):
        return self.module.show(self.components)

    def __repr__(self):
        return f"Section{self}"


_MIXED = "sections belong to different modules"


class FramedModule:
    """Free module of rank ``rank`` over the scalars in n base variables,
    with its frame and zero as :class:`Section` elements."""

    def __init__(self, n, rank):
        self.n = n
        self.rank = rank
        one, zero = Scalar.one(n), Scalar.zero(n)
        self.frame = tuple(
            Section(self, tuple(one if k == i else zero for k in range(rank)))
            for i in range(rank))
        self._zero = Section(self, (zero,) * rank)

    def zero(self):
        return self._zero

    def element(self, components):
        return Section(self, components)

    def element_from_strings(self, strings):
        return Section(self, tuple(parse_scalar(s, self.n) for s in strings))

    def show(self, components):
        return "(" + ", ".join(str(c) for c in components) + ")"


class CourantAlgebroid(FramedModule):
    """Courant algebroid structure data on a trivialized patch.

    Fields: base dimension ``n``, frame rank ``rank``, an r x r symmetric
    ``pairing_matrix`` with constant nonzero determinant, an n x r
    ``anchor_matrix`` (column j holds the coefficients of the anchor image of
    frame section j), and ``bracket_coeffs[i][j]`` giving the frame bracket
    of sections i and j as an r-vector of scalars.
    """

    def __init__(self, n, rank, pairing_matrix, anchor_matrix, bracket_coeffs,
                 _allow_degenerate=False):
        if rank < 1:
            raise PreconditionError(f"rank must be >= 1, got {rank}")
        super().__init__(n, rank)
        if len(pairing_matrix) != rank or any(len(row) != rank for row in pairing_matrix):
            raise PreconditionError("pairing matrix must be rank x rank")
        if len(anchor_matrix) != n or any(len(row) != rank for row in anchor_matrix):
            raise PreconditionError("anchor matrix must be n x rank")
        if len(bracket_coeffs) != rank or any(
                len(row) != rank for row in bracket_coeffs) or any(
                len(cell) != rank for row in bracket_coeffs for cell in row):
            raise PreconditionError("bracket coefficients must be rank x rank x rank")
        for i in range(rank):
            for j in range(rank):
                if pairing_matrix[i][j] != pairing_matrix[j][i]:
                    raise PreconditionError(
                        f"pairing matrix not symmetric at ({i}, {j})")
        self.pairing_matrix = [list(row) for row in pairing_matrix]
        self.anchor_matrix = [list(row) for row in anchor_matrix]
        self.bracket_coeffs = [[list(cell) for cell in row] for row in bracket_coeffs]
        self.degenerate = False
        d = linalg.det(self.pairing_matrix)
        if _allow_degenerate and d.is_zero():
            self.degenerate = True
            self._dual_anchor = None
        else:
            if d.is_zero() or not d.is_constant():
                raise PreconditionError(
                    f"pairing determinant must be a nonzero constant, got {d}")
            # pairing_inv . anchor^T (rank x n), the matrix of df -> d_E f
            self._dual_anchor = linalg.mat_mul(
                linalg.inverse(self.pairing_matrix),
                linalg.mat_transpose(self.anchor_matrix)) if n else [[]] * rank
        self._struct = _sparse_struct(self.bracket_coeffs)
        self._anchor = _sparse_rows(
            [[self.anchor_matrix[l][j] for l in range(n)] for j in range(rank)])
        self._pairing = _sparse_rows(self.pairing_matrix)
        self._bracket_cache = {}
        self._pairing_cache = {}
        self._anchor_rows = {}
        self._anchor_cache = {}
        self._dE_cache = {}
        self.metadata = {}

    def pairing(self, sigma, tau):
        """The symmetric pairing of two sections."""
        if sigma.module is not self or tau.module is not self:
            raise PreconditionError(_MIXED)
        key = (sigma, tau)
        cached = self._pairing_cache.get(key)
        if cached is not None:
            return cached
        total = self._pairing_cache[key] = _pair(sigma, self._pairing, tau)
        return total

    def _anchor_row(self, sigma):
        """Coefficients of the anchor image of sigma as a vector field."""
        row = self._anchor_rows.get(sigma)
        if row is None:
            row = [Scalar.zero(self.n)] * self.n
            for j, gj in enumerate(sigma.components):
                if gj.num:
                    for l, a in self._anchor[j]:
                        row[l] = row[l] + gj * a
            row = tuple(row)
            self._anchor_rows[sigma] = row
        return row

    def anchor_apply(self, sigma, f):
        """Derivative of f along the anchor image of sigma."""
        if sigma.module is not self:
            raise PreconditionError(_MIXED)
        key = (sigma, f)
        cached = self._anchor_cache.get(key)
        if cached is None:
            cached = self._anchor_cache[key] = _derivative(self._anchor_row(sigma), f)
        return cached

    def d_E(self, f):
        """Section dual to df: the unique one pairing to anchor_apply(., f)."""
        if self.degenerate:
            raise PreconditionError("no pairing-dual differential: pairing is degenerate")
        cached = self._dE_cache.get(f)
        if cached is None:
            cached = Section(self, (_derivative(row, f) for row in self._dual_anchor))
            self._dE_cache[f] = cached
        return cached

    def bracket(self, sigma, tau):
        """Non-skew bracket, extended from the frame by the Leibniz rules.

        It is the Dorfman connection of the algebroid on its self-predual
        plus the term -rho(tau)(g) of the left Leibniz rule
        [f s, t] = f [s, t] - rho(t)(f) s + <s, t> D f.  The value is kept
        for the algebroid's lifetime, keyed by the argument pair.
        """
        key = (sigma, tau)
        cached = self._bracket_cache.get(key)
        if cached is None:
            cached = self._bracket_cache[key] = self._bracket(sigma, tau)
        return cached

    def _bracket(self, sigma, tau):
        """The bracket computed afresh, kept nowhere: for an argument pair
        that is not met again."""
        if sigma.module is not self or tau.module is not self:
            raise PreconditionError(_MIXED)
        g = sigma.components
        out = _leibniz(g, tau.components, self._anchor_row(sigma), self._struct,
                       self._pairing, None if self.degenerate else self.d_E)
        rho_tau = self._anchor_row(tau)
        for k, gk in enumerate(g):
            if gk.num:
                out[k] = out[k] - _derivative(rho_tau, gk)
        return Section(self, tuple(out))

    def __repr__(self):
        return f"CourantAlgebroid(n={self.n}, rank={self.rank})"


# ---------------------------------------------------------------------------
# the Leibniz kernel shared by the bracket and every Dorfman connection
# ---------------------------------------------------------------------------


def _sparse_rows(rows):
    """For each row, the tuple of its nonzero entries as (column, value)."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c.num) for row in rows)


def _sparse_struct(coeffs):
    """For each i, the nonzero coeffs[i][j][q] as (j, ((q, c), ...)) pairs."""
    return tuple(tuple((j, cells) for j, cells in enumerate(_sparse_rows(row)) if cells)
                 for row in coeffs)


def _pair(sigma, rows, b):
    """sum_ij g_i rows[i][j] h_j for sigma = (g_i) and b = (h_j), where
    ``rows[i]`` lists (j, value) for the nonzero entries of row i."""
    h = b.components
    total = Scalar.zero(sigma.module.n)
    for i, gi in enumerate(sigma.components):
        if gi.num:
            for j, p in rows[i]:
                if h[j].num:
                    total = total + gi * p * h[j]
    return total


def _derivative(row, f):
    """sum_l row[l] * df/dx_l: f differentiated along a vector field."""
    pairs = []
    for l, a in enumerate(row):
        if a.num:
            d = f.partial(l + 1)
            if d.num:
                pairs.append((a, d))
    return sum_of_products(f.n, pairs)


def _leibniz(g, h, rho, struct, pairing, d):
    """Components of Delta_sigma b, the frame values extended by Leibniz:

        sum_ij g_i h_j C_ij^q + rho(sigma)(h_q) + sum_i <e_i, b> (D g_i)_q

    for sigma = g_i e_i, b = h_j b_j and rho the anchor row of sigma.
    ``struct[i]`` lists (j, ((q, C_ij^q), ...)) for the nonzero C_ij^q, and
    ``pairing[i]`` lists (j, <e_i, b_j>) for the nonzero pairings.  ``d``
    is D (d_E or d_B, returning an element with ``components``), or None
    when there is no D term.

    Each component is one sum of products, the structure terms, the anchor
    derivatives and the D-terms together, taken by ``sum_of_products``.
    """
    gs = [(i, gi) for i, gi in enumerate(g) if gi.num]
    hs = {j: hj for j, hj in enumerate(h) if hj.num}
    n = len(rho)
    terms = {}  # component q: the (a, b) whose products a*b sum to it
    for i, gi in gs:
        for j, cells in struct[i]:
            hj = hs.get(j)
            if hj is not None:
                coeff = gi * hj
                for q, c in cells:
                    terms.setdefault(q, []).append((coeff, c))
    for q, hq in hs.items():
        for l, a in enumerate(rho, 1):
            if a.num:
                dq = hq.partial(l)
                if dq.num:
                    terms.setdefault(q, []).append((a, dq))
    if d is not None:
        for i, gi in gs:
            if gi.is_constant():
                continue
            pairs = [(hs[j], p) for j, p in pairing[i] if j in hs]
            if pairs and (coeff := sum_of_products(n, pairs)).num:
                for q, c in enumerate(d(gi).components):
                    if c.num:
                        terms.setdefault(q, []).append((coeff, c))
    out = [Scalar.zero(n)] * len(h)
    for q, pairs in terms.items():
        out[q] = sum_of_products(n, pairs)
    return out


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def _memo(fn):
    """fn memoised on its argument tuple for as long as the returned function
    lives: a check keeps one while it runs and drops it when it returns."""
    values = {}

    def memo(*args):
        value = values.get(args)
        if value is None:
            value = values[args] = fn(*args)
        return value

    return memo


def verify_axioms(alg, battery):
    """Exact check of the defining axioms and derived identities.

    Failures are reported, not raised; the report carries the first
    counterexample tuple and its residual for every failed identity.
    """
    report = Report(f"axioms of {alg!r}")

    def with_functions(arity):
        return (secs + (f,) for secs in battery.section_tuples(arity)
                for f in battery.functions)

    def at(*secs):
        return " , ".join(battery.describe(secs))

    def at_f(*args):
        return " , ".join(battery.describe(args[:-1]) + (f" ; f={args[-1]}",))

    # battery pairs recur from check to check, so their brackets go through
    # the algebroid's memo; a bracket with an argument built for one tuple
    # (an inner bracket, a scaled section, a dual differential) is computed
    # afresh, br1, and kept nowhere
    br, br1, pr, rho = alg.bracket, alg._bracket, alg.pairing, alg.anchor_apply
    # f.b recurs for every a, and [a, b].f in both Leibniz checks
    sc = _memo(Section.scale)

    # each identity as its two sides (lhs, rhs), the terms with a plus sign
    # on the left
    def jacobi(a, b, c):
        return br1(a, br(b, c)), br1(br(a, b), c) + br1(b, br(a, c))

    def compatibility(a, b, c):
        return pr(br(a, b), c) + pr(b, br(a, c)), rho(a, pr(b, c))

    def symmetric_part(a, b):
        return br(a, b) + br(b, a), alg.d_E(pr(a, b))

    def anchor_morphism(a, b, f):
        return rho(br(a, b), f) + rho(b, rho(a, f)), rho(a, rho(b, f))

    def right_leibniz(a, b, f):
        return br1(a, sc(b, f)), sc(br(a, b), f) + b.scale(rho(a, f))

    def left_leibniz(a, b, f):
        return (br1(sc(a, f), b) + a.scale(rho(b, f)),
                sc(br(a, b), f) + alg.d_E(f).scale(pr(a, b)))

    def bracket_dual_right(a, f):
        # one-form identities probed on exact arguments: bracketing a dual
        # differential from the right returns the dual differential of the
        # anchor derivative
        return br1(a, alg.d_E(f)), alg.d_E(rho(a, f))

    def bracket_dual_left(a, f):
        # and from the left it vanishes
        return br1(alg.d_E(f), a), alg.zero()

    run_check(report, "jacobi-leibniz", battery.section_tuples(3), jacobi, at)
    run_check(report, "pairing-compatibility", battery.section_tuples(3),
              compatibility, at)
    run_check(report, "symmetric-part-is-dual-differential",
              battery.section_tuples(2), symmetric_part, at)
    run_check(report, "anchor-homomorphism", with_functions(2), anchor_morphism, at_f)
    run_check(report, "right-leibniz", with_functions(2), right_leibniz, at_f)
    run_check(report, "left-leibniz", with_functions(2), left_leibniz, at_f)
    run_check(report, "bracket-with-dual-differential-right", with_functions(1),
              bracket_dual_right, at_f)
    run_check(report, "bracket-with-dual-differential-left", with_functions(1),
              bracket_dual_left, at_f)

    # anchor composed with its pairing-dual vanishes, as a matrix identity
    prod = linalg.mat_mul(alg.anchor_matrix, alg._dual_anchor)
    ok = linalg.mat_is_zero(prod)
    report.add("anchor-isotropy-matrix-identity", ok, 1,
               None if ok else "anchor . pairing_inv . anchor^T",
               None if ok else linalg.mat_str(prod))

    # defining property of the dual differential on battery data
    run_check(report, "dual-differential-defining-property", with_functions(1),
              lambda sec, f: (pr(alg.d_E(f), sec), rho(sec, f)),
              lambda sec, f: " , ".join(battery.describe((sec,)) + (f"f={f}",)))
    return report


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_standard(n):
    """Standard structure on the sum of the tangent and cotangent frames.

    Frame order: d/dx1..d/dxn, dx1..dxn.  The pairing couples the two
    blocks, the anchor projects on the first, and coordinate-frame brackets
    vanish.
    """
    if n < 1:
        raise PreconditionError("base dimension must be >= 1")
    r = 2 * n
    zero, one = Scalar.zero(n), Scalar.one(n)
    pairing = [[one if abs(i - j) == n else zero for j in range(r)] for i in range(r)]
    anchor = [[one if j == l else zero for j in range(r)] for l in range(n)]
    c = [[[zero] * r for _ in range(r)] for _ in range(r)]
    return CourantAlgebroid(n, r, pairing, anchor, c)


def build_quadratic_lie_algebra(c, pairing):
    """Courant algebroid over a point from structure constants and a form.

    ``c[i][j][k]`` are rational structure constants, antisymmetric in (i, j);
    ``pairing`` is a rational symmetric matrix.  Construction only enforces
    antisymmetry and shapes; run :func:`verify_axioms` for the Jacobi
    identity and the invariance of the form.
    """
    r = len(c)
    coeffs = [[[Scalar.const(0, v) for v in cell] for cell in row] for row in c]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if coeffs[i][j][k] != -coeffs[j][i][k]:
                    raise PreconditionError(
                        f"structure constants not antisymmetric at ({i}, {j}, {k})")
    g = [[Scalar.const(0, v) for v in row] for row in pairing]
    return CourantAlgebroid(0, r, g, [], coeffs)


def build_from_structure_data(n, rank, pairing, anchor, bracket):
    """Generic loader: construct without verifying; caller runs verify_axioms."""
    return CourantAlgebroid(n, rank, pairing, anchor, bracket)


def build_port_hamiltonian(n, v, christoffel=None):
    """Structure on tangent + cotangent + port + co-port frames.

    ``christoffel[i][a][b]`` gives the coefficient of port frame b in the
    covariant derivative of port frame a along d/dx(i+1); the induced linear
    connection on the port bundle must be flat (checked exactly; for n = 1
    this is automatic).  Frame order: d/dx1..d/dxn, dx1..dxn, ports, co-ports.
    """
    if n < 1 or v < 1:
        raise PreconditionError("need base dimension >= 1 and port rank >= 1")
    zero, one = Scalar.zero(n), Scalar.one(n)
    theta = christoffel
    if theta is None:
        theta = [[[zero] * v for _ in range(v)] for _ in range(n)]
    if len(theta) != n or any(len(row) != v for row in theta) or any(
            len(cell) != v for row in theta for cell in row):
        raise PreconditionError("christoffel data must be n x v x v")
    # flatness of the port connection: classical curvature must vanish
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(v):
                for b in range(v):
                    res = theta[j][a][b].partial(i + 1) - theta[i][a][b].partial(j + 1)
                    for cidx in range(v):
                        res = res + theta[j][a][cidx] * theta[i][cidx][b]
                        res = res - theta[i][a][cidx] * theta[j][cidx][b]
                    if not res.is_zero():
                        raise PreconditionError(
                            "port connection is not flat: curvature residual "
                            f"{res} on (dx{i + 1}, dx{j + 1}, port {a + 1}, port {b + 1})")
    r = 2 * n + 2 * v
    tan, cot, out, inn = 0, n, 2 * n, 2 * n + v

    pairing = [[zero] * r for _ in range(r)]
    for l in range(n):
        pairing[tan + l][cot + l] = one
        pairing[cot + l][tan + l] = one
    for a in range(v):
        pairing[out + a][inn + a] = one
        pairing[inn + a][out + a] = one
    anchor = [[one if j == tan + l else zero for j in range(r)] for l in range(n)]

    c = [[[zero] * r for _ in range(r)] for _ in range(r)]

    def add(i, j, k, val):
        c[i][j][k] = c[i][j][k] + val

    for l in range(n):
        for a in range(v):
            for b in range(v):
                t = theta[l][a][b]
                if t.is_zero():
                    continue
                # covariant derivative of ports along coordinate directions
                add(tan + l, out + a, out + b, t)
                add(out + a, tan + l, out + b, -t)
                # dual connection on co-ports
                add(tan + l, inn + b, inn + a, -t)
                add(inn + b, tan + l, inn + a, t)
                # cross terms landing in the cotangent block
                add(out + a, inn + b, cot + l, t)
                add(inn + b, out + a, cot + l, -t)
    alg = CourantAlgebroid(n, r, pairing, anchor, c)
    alg.metadata["port_hamiltonian"] = v
    return alg


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


def algebroid_to_json(alg):
    """Dump structure data to the algebroid.json schema (1-based indices)."""
    doc = {
        "n": alg.n,
        "rank": alg.rank,
        "pairing": [[str(x) for x in row] for row in alg.pairing_matrix],
        "anchor": [[str(x) for x in row] for row in alg.anchor_matrix],
        "bracket": {},
    }
    for i in range(alg.rank):
        for j in range(alg.rank):
            cell = alg.bracket_coeffs[i][j]
            if any(not x.is_zero() for x in cell):
                doc["bracket"][f"{i + 1},{j + 1}"] = [str(x) for x in cell]
    return doc


def algebroid_from_json(doc):
    """Build from the algebroid.json document.

    Schema: { "n": int, "rank": int, "pairing": [[scalar-string]],
    "anchor": [[scalar-string]], "bracket": { "i,j": [scalar-string x r] } }
    with 1-based frame indices; omitted bracket keys mean zero.  A document
    that does not fit the schema raises ParseError; well-formed data of the
    wrong shape, or failing a structural condition, raises PreconditionError.
    """
    _require_fields(doc, "algebroid", ("n", "rank", "pairing"))
    n = _json_int(doc, "n")
    r = _json_int(doc, "rank")
    pairing = _scalar_rows(doc["pairing"], "pairing", n)
    anchor = _scalar_rows(doc.get("anchor", []), "anchor", n)
    bracket = _keyed_array(doc, "bracket", "bracket", r, r, n)
    return build_from_structure_data(n, r, pairing, anchor, bracket)


def _keyed_array(doc, field, kind, rows, size, n):
    """The rows x size x size array of { field: { "i,j": [scalar-string x
    size] } }, 1-based keys, zero where no key is given.

    Entry [i][j] (0-based, 0 <= i < rows and 0 <= j < size) is the list of
    the key "i+1,j+1"; an omitted field gives the zero array.  Messages name
    the entries as kind.
    """
    zero = Scalar.zero(n)
    array = [[[zero] * size for _ in range(size)] for _ in range(rows)]
    entries = doc.get(field, {})
    if not isinstance(entries, dict):
        raise ParseError(f'"{field}" must be an object of "i,j" keys')
    for key, comps in entries.items():
        if not isinstance(comps, list):
            raise ParseError(f"{kind} entry {key!r} must be a list of scalar strings")
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s) - 1, int(j_s) - 1
        except ValueError as exc:
            raise PreconditionError(f"bad {kind} key {key!r}") from exc
        if not (0 <= i < rows and 0 <= j < size) or len(comps) != size:
            raise PreconditionError(f"{kind} entry {key!r} out of shape")
        array[i][j] = [parse_scalar(x, n) for x in comps]
    return array


def _require_fields(doc, kind, fields):
    """Raise ParseError unless doc is a JSON object with the given fields."""
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    for name in fields:
        if name not in doc:
            raise ParseError(f"{kind} document lacks {name!r}")


def _json_int(doc, name):
    """The JSON integer doc[name]; ParseError for any other value, so a
    float such as 2.9 is not truncated and true is not read as 1."""
    value = doc[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f'"{name}" must be a JSON integer, not {value!r}')
    return value


def _scalar_rows(rows, name, n):
    """A JSON matrix of scalar strings, parsed."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError(f'"{name}" must be a list of lists of scalar strings')
    return [[parse_scalar(s, n) for s in row] for row in rows]
