"""Graded cochain algebra of an algebroid, as an evaluable expression DAG.

A cochain of degree p is a tuple of components; component k takes p - 2k
section arguments and k function arguments (function slots stand for the
differentials of their entries) and returns a value.  The values form a
module over the scalars: the scalars themselves, or the sections of a
framed module of ``dorfman`` (a predual B or one of its tensor bundles
T^{p,q}(B), B* and End(B) among them); a node carries the zero of its
module.  Nodes of the DAG are never evaluated at construction:
:func:`evaluate` recurses through the component formulas for products
(signed shuffle sums of a scalar cochain times a cochain), the degree +1
differential, interior products and Lie derivatives.  Equality of cochains
is battery-relative: exact agreement of all components on every battery
tuple.  It is a verdict of the check runner of ``report``, whose sides at
a component tuple are the sums of the terms of each sign, so only a witness
forms their difference; each relation of :func:`cartan_suite` is one such
run over the tuples of all its instances.

One DAG serves every kind of value because the differential is taken along
a connection, the ``along`` argument of :func:`differential`, :func:`lie_e`
and :func:`lie_f`: ``along.apply(sigma, v)`` differentiates a value v along
a section.  None, the default, is the anchor, the connection on the trivial
line bundle of scalar cochains: the differential then takes
``alg.anchor_apply(sigma, f)``.  For bundle-valued cochains ``along`` is a
Dorfman connection or the one it induces on T^{p,q}(B) by the derivation
rule, and the Lie derivative along a section becomes the covariant
derivative nabla_e.

Nodes are hash-consed: each constructor looks its node up by structure
(the node class, the child nodes, the section, function or leaf value by
value, and the connection d is taken along, None for the anchor) in a table
of the algebroid, and returns the node already built if there is one.  So
an equal subexpression built twice is one node, and shares one memo entry
when it is evaluated; ``differential(w)`` and ``differential(w, None)`` are
one node.  The table holds its nodes weakly: a node lives as long as a
caller or a parent node refers to it, not as long as its algebroid.

Every evaluation runs in an :class:`EvalContext`.  The context interns each
section and function argument to a small int, so the DAG works on id
tuples, and it memoises node values, brackets and dual differentials on
those ids.  Functions taking a ``ctx`` accept such a context to share its
tables across calls, or None for a fresh one.  The product and differential
loops take the argument tuples of their terms through plans built once per
arity and cached: getters of each section shuffle, function split, dropped
slot and bracket insertion.

Every component is R-multilinear in its section slots (the description of
the complex by Keller and Waldmann, arXiv:0807.0584): leaves pair linearly,
products and the differential are built from R-bilinear operations, and a
connection is R-linear in the section it differentiates along.  So a
component with the zero section in some slot is zero, and the differential
skips, before evaluating its child, each term that this shows to vanish: a
bracket insertion of a zero bracket, a function-slot term whose dual
differential is zero, and a derivative along a section where the connection
is zero (a zero section, or one with no anchor image for the anchor).  The
context flags zero and anchor-free section ids, so each skip is one set
lookup.  Zero sections are not folded into zero cochains at construction:
the battery counts tuples of every cochain that is not structurally zero.

The Lie derivative along a section, L_e = i_e d + d i_e, is evaluated in
one pass.  The derivatives along the arguments and the insertions of their
brackets in i_e d w meet the same terms of d i_e w with the opposite sign,
so only the terms that survive are formed: the function slots with D f
before and after e, the derivative along e, and the insertions of [e, a_j]
(see :class:`_LieE`).  The cancellation is a sign count, not an axiom, so
the value is the same for any structure data, along the anchor or along any
connection.  The Lie derivative along a function keeps its two nodes,
i_f d - d i_f: its one-pass form is i_{D f}, the other side of the Cartan
relation that checks it, and that check would then compare one computation
with itself.

Degree bookkeeping clamps at zero: an interior product applied below degree
0 is the zero cochain.  The ``order`` field is an upper bound for the
differential-operator order of the components in their section slots
(products take the max, the differential adds one, interior products and Lie
derivatives keep the bound of their differential expansion).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import itemgetter
from weakref import WeakValueDictionary

from .report import Report, run_check, verdict
from .scalar import Scalar

__all__ = [
    "Cochain",
    "DegreeCapError",
    "scalar_leaf",
    "section_leaf",
    "zero_cochain",
    "mul",
    "differential",
    "interior_e",
    "interior_f",
    "lie_e",
    "lie_f",
    "EvalContext",
    "evaluate",
    "equal",
    "equal_combinations",
    "vanishes",
    "EqualityResult",
    "check_symmetry_condition",
    "symbol_E",
    "symbol_Omega",
    "measure_order_E",
    "cartan_suite",
    "generator_cochains",
    "random_cochain",
]

PRODUCT_DEGREE_CAP = 6
DEGREE_CAP = 8


class DegreeCapError(ValueError):
    pass


class Cochain:
    """Base node: owning algebroid, zero of the value module, degree, order
    bound."""

    __slots__ = ("alg", "zero", "degree", "order", "__weakref__")

    def __init__(self, alg, zero, degree, order):
        self.alg = alg
        self.zero = zero
        self.degree = degree
        self.order = order

    def components(self):
        """Valid component indices k."""
        return range(self.degree // 2 + 1) if self.degree >= 0 else range(0)

    def _eval(self, k, es, fs, ctx):
        raise NotImplementedError


class _Zero(Cochain):
    __slots__ = ()

    def __init__(self, alg, zero, degree):
        super().__init__(alg, zero, degree, 1)

    def _eval(self, k, es, fs, ctx):
        return self.zero


class _Leaf(Cochain):
    """Degree-0 constant: a scalar, or an element of a predual bundle."""

    __slots__ = ("value",)

    def __init__(self, alg, value, zero):
        super().__init__(alg, zero, 0, 1)
        self.value = value

    def _eval(self, k, es, fs, ctx):
        return self.value


class _ScalarLeaf(_Leaf):
    __slots__ = ()

    def __init__(self, alg, value):
        super().__init__(alg, value, Scalar.zero(alg.n))


class _SectionLeaf(Cochain):
    __slots__ = ("section",)

    def __init__(self, alg, section):
        super().__init__(alg, Scalar.zero(alg.n), 1, 1)
        self.section = section

    def _eval(self, k, es, fs, ctx):
        return self.alg.pairing(self.section, ctx.sections[es[0]])


class _Product(Cochain):
    """A scalar cochain times a cochain: signed shuffle sum of the factors."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.alg, right.zero, left.degree + right.degree,
                         max(left.order, right.order))
        self.left = left
        self.right = right

    def _eval(self, k, es, fs, ctx):
        left, right = self.left, self.right
        memo = ctx.memo
        total = self.zero
        for r, t, shuffles, fsplits in _product_plan(
                left.degree, right.degree, k, len(es), len(fs)):
            # function slots are shared out unsigned, the same way for every
            # section shuffle
            fsplits = [(lf(fs), rf(fs)) for lf, rf in fsplits]
            for left_get, right_get, sign in shuffles:
                les = left_get(es)
                res = right_get(es)
                for lfs, rfs in fsplits:
                    # the memo probe of _eval, inlined in this hot loop
                    key = (left, r, les, lfs)
                    v1 = memo.get(key)
                    if v1 is None:
                        v1 = memo[key] = left._eval(r, les, lfs, ctx)
                    if v1.is_zero():
                        continue
                    key = (right, t, res, rfs)
                    v2 = memo.get(key)
                    if v2 is None:
                        v2 = memo[key] = right._eval(t, res, rfs, ctx)
                    if v2.is_zero():
                        continue
                    term = v2.scale(v1)
                    total = total + term if sign > 0 else total - term
        return total


class _Differential(Cochain):
    """Degree +1 differential along a connection (see the module docstring)."""

    __slots__ = ("along", "child")

    def __init__(self, along, child):
        super().__init__(child.alg, child.zero, child.degree + 1, child.order + 1)
        self.along = along
        self.child = child

    def _eval(self, k, es, fs, ctx):
        alg = self.alg
        child = self.child
        p = child.degree
        memo = ctx.memo
        zero_ids = ctx.zero_ids
        total = self.zero
        # function slots feed back through the dual differential; the child
        # is R-multilinear in its section slots, so a zero d_E(f) there makes
        # the term zero
        if k >= 1 and p - 2 * (k - 1) >= 0:
            drops = _drop_plan(k)
            for mu in range(k):
                de = ctx.d_E(alg, fs[mu])
                if de in zero_ids:
                    continue
                total = total + _eval(child, k - 1, (de,) + es, drops[mu](fs), ctx)
        if p - 2 * k >= 0:
            # derivative along each argument of the contracted component; a
            # connection is R-linear in the section it differentiates along,
            # so it vanishes along a zero section, and the anchor along one
            # with no anchor image: those terms are skipped before the child
            # is evaluated.  The memo probe of _eval is inlined in this loop
            # and the next
            sections = ctx.sections
            along = self.along
            if along is None:
                apply, inert = alg.anchor_apply, ctx.anchor_free_ids
            else:
                apply, inert = along.apply, zero_ids
            drops = _drop_plan(len(es))
            for i, e in enumerate(es):
                if e in inert:
                    continue
                args = drops[i](es)
                key = (child, k, args, fs)
                v = memo.get(key)
                if v is None:
                    v = memo[key] = child._eval(k, args, fs, ctx)
                if not v.is_zero():
                    dv = apply(sections[e], v)
                    total = total + dv if i % 2 == 0 else total - dv
            # bracket insertion at the place of the later argument; a zero
            # bracket in a slot of the R-multilinear child makes the term zero
            brackets = ctx._brackets
            for pair, insert, sign in _insertion_plan(len(es)):
                ij = pair(es)
                br = brackets.get(ij)
                if br is None:
                    br = ctx.bracket(*ij)
                if br in zero_ids:
                    continue
                args = insert(es + (br,))
                key = (child, k, args, fs)
                v = memo.get(key)
                if v is None:
                    v = memo[key] = child._eval(k, args, fs, ctx)
                total = total + v if sign > 0 else total - v
        return total


class _InteriorE(Cochain):
    __slots__ = ("section", "child")

    def __init__(self, section, child):
        super().__init__(child.alg, child.zero, child.degree - 1, child.order)
        self.section = section
        self.child = child

    def _eval(self, k, es, fs, ctx):
        return _eval(self.child, k, (ctx.node_section_id(self),) + es, fs, ctx)


class _InteriorF(Cochain):
    __slots__ = ("function", "child")

    def __init__(self, function, child):
        super().__init__(child.alg, child.zero, child.degree - 2, child.order)
        self.function = function
        self.child = child

    def _eval(self, k, es, fs, ctx):
        return _eval(self.child, k + 1, es, (ctx.function_id(self.function),) + fs,
                     ctx)


class _LieE(Cochain):
    """Degree-0 derivation: anticommutator of the interior product with the
    differential along a connection, L_e = i_e d + d i_e.

    It is evaluated in one pass over the terms that survive the sum.  In
    i_e d w the derivative along an argument a_i and the insertion of a
    bracket [a_i, a_j] (i, j >= 1) fall on the same argument tuples as the
    matching terms of d i_e w, with the opposite sign: e takes slot 0, so
    the index of a_i, and with it the sign (-1)^i, shifts by one.  They
    cancel for any structure data, with no axiom used.  Component k on
    (a_1..a_m; f) is then

        sum_mu w_{k-1}(D f_mu, e, a; f minus f_mu) + w_{k-1}(e, D f_mu, a; ...)
        + nabla_e w_k(a; f) - sum_j w_k(a_1, .., [e, a_j], .., a_m; f)

    with the bracket in slot j; the two function-slot terms put D f before
    and after e, so they do not cancel.  The skips of the differential hold
    here too: an inert e, a zero value, a zero bracket or a zero D f.
    """

    __slots__ = ("along", "section", "child")

    def __init__(self, along, section, child):
        super().__init__(child.alg, child.zero, child.degree, child.order + 1)
        self.along = along
        self.section = section
        self.child = child

    def _eval(self, k, es, fs, ctx):
        alg = self.alg
        child = self.child
        zero_ids = ctx.zero_ids
        e = ctx.node_section_id(self)
        total = self.zero
        drops = _drop_plan(k)
        for mu in range(k):
            de = ctx.d_E(alg, fs[mu])
            if de in zero_ids:
                continue
            rest = drops[mu](fs)
            total = (total + _eval(child, k - 1, (de, e) + es, rest, ctx)
                     + _eval(child, k - 1, (e, de) + es, rest, ctx))
        along = self.along
        if along is None:
            apply, inert = alg.anchor_apply, ctx.anchor_free_ids
        else:
            apply, inert = along.apply, zero_ids
        if e not in inert:
            v = _eval(child, k, es, fs, ctx)
            if not v.is_zero():
                total = total + apply(ctx.sections[e], v)
        for j, a in enumerate(es):
            br = ctx.bracket(e, a)
            if br not in zero_ids:
                total = total - _eval(child, k, es[:j] + (br,) + es[j + 1:], fs, ctx)
        return total


class _LieF(Cochain):
    """Degree -1 derivation: commutator of the function contraction with the
    differential along a connection."""

    __slots__ = ("function", "child", "_a", "_b")

    def __init__(self, along, function, child):
        super().__init__(child.alg, child.zero, child.degree - 1, child.order + 1)
        self.function = function
        self.child = child
        self._a = interior_f(function, differential(child, along))
        self._b = differential(interior_f(function, child), along)

    def _eval(self, k, es, fs, ctx):
        return _eval(self._a, k, es, fs, ctx) - _eval(self._b, k, es, fs, ctx)


# ---------------------------------------------------------------------------
# factories (degree underflow gives the zero cochain)
# ---------------------------------------------------------------------------


def _node(cls, alg, *args):
    """The node cls(*args) of alg, hash-consed in alg's node table.

    The key is the class and the arguments: child nodes and connections by
    identity, sections, functions and values by value.  The table holds its
    nodes weakly, so it keeps no node alive (see the module docstring).
    """
    table = alg.metadata.get("cochain_nodes")
    if table is None:
        table = alg.metadata["cochain_nodes"] = WeakValueDictionary()
    key = (cls, *args)
    node = table.get(key)
    if node is None:
        node = table[key] = cls(*args)
    return node


def _zero_like(node, degree):
    return _node(_Zero, node.alg, node.alg, node.zero, degree)


def scalar_leaf(alg, f):
    return _node(_ScalarLeaf, alg, alg, f)


def section_leaf(alg, section):
    return _node(_SectionLeaf, alg, alg, section)


def zero_cochain(alg, degree):
    return _node(_Zero, alg, alg, Scalar.zero(alg.n), degree)


def mul(left, right):
    """The product of a scalar cochain with a scalar or bundle-valued one."""
    if left.alg is not right.alg:
        raise ValueError("cochains over different algebroids")
    if isinstance(left, _Zero) or isinstance(right, _Zero):
        return _zero_like(right, left.degree + right.degree)
    if left.degree + right.degree > PRODUCT_DEGREE_CAP:
        raise DegreeCapError(
            f"product degree {left.degree + right.degree} exceeds cap {PRODUCT_DEGREE_CAP}")
    return _node(_Product, left.alg, left, right)


def differential(child, along=None):
    """The differential of child along a connection (None: the anchor)."""
    if isinstance(child, _Zero):
        return _zero_like(child, child.degree + 1)
    if child.degree + 1 > DEGREE_CAP:
        raise DegreeCapError(f"degree {child.degree + 1} exceeds cap {DEGREE_CAP}")
    return _node(_Differential, child.alg, along, child)


def interior_e(section, child):
    if child.degree - 1 < 0 or isinstance(child, _Zero):
        return _zero_like(child, child.degree - 1)
    return _node(_InteriorE, child.alg, section, child)


def interior_f(function, child):
    if child.degree - 2 < 0 or isinstance(child, _Zero):
        return _zero_like(child, child.degree - 2)
    return _node(_InteriorF, child.alg, function, child)


def lie_e(section, child, along=None):
    """The Lie derivative along a section, with d taken along a connection
    (None: the anchor)."""
    if isinstance(child, _Zero):
        return _zero_like(child, child.degree)
    # L_e is i_e d + d i_e, so it is defined where d of child is
    if child.degree + 1 > DEGREE_CAP:
        raise DegreeCapError(f"degree {child.degree + 1} exceeds cap {DEGREE_CAP}")
    return _node(_LieE, child.alg, along, section, child)


def lie_f(function, child, along=None):
    """The Lie derivative along a function, with d taken along a connection
    (None: the anchor)."""
    if child.degree - 1 < 0 or isinstance(child, _Zero):
        return _zero_like(child, child.degree - 1)
    return _node(_LieF, child.alg, along, function, child)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class EvalContext:
    """Memo and argument tables shared by every evaluation run through it.

    Each distinct section and function argument is interned, by value, to a
    small int the first time it enters an evaluation; DAG nodes pass tuples
    of these ids, so memo keys hash in C.  Alongside the memo of node values
    the context keeps the bracket of two section ids and the dual
    differential of a function id, both as ids.  A context may serve
    cochains of several algebroids and bundle-valued cochains alike; it
    holds every value it has computed until it is dropped.

    ``zero_ids`` holds the ids of zero sections and ``anchor_free_ids``
    those of sections with a zero anchor image, both marked as the sections
    are interned.  The differential skips the terms these flags show to
    vanish: along the anchor, a derivative along an anchor-free section;
    along a connection, one along a zero section.

    A battery's component tuples are mapped to id tuples once per context,
    by :meth:`component_tuples`: the battery keeps each section stream as
    index tuples, and the context interns each section of a stream once,
    not once per tuple it is met in.  So too the section of an interior
    product or Lie derivative node: once per node, by ``node_section_id``.
    """

    __slots__ = ("memo", "sections", "functions", "_section_ids",
                 "_function_ids", "_node_sections", "_brackets", "_d_e",
                 "zero_ids", "anchor_free_ids", "_components")

    def __init__(self):
        self.memo = {}
        self.sections = []
        self.functions = []
        self._section_ids = {}
        self._function_ids = {}
        self._node_sections = {}
        self._brackets = {}
        self._d_e = {}
        self.zero_ids = set()
        self.anchor_free_ids = set()
        self._components = {}

    def section_id(self, section):
        i = self._section_ids.get(section)
        if i is None:
            i = self._section_ids[section] = len(self.sections)
            self.sections.append(section)
            if section.is_zero():
                self.zero_ids.add(i)
            if not any(c.num for c in section.module._anchor_row(section)):
                self.anchor_free_ids.add(i)
        return i

    def node_section_id(self, node):
        """Id of the section a DAG node carries, interned once per node: the
        table is keyed by the node itself, which hashes by identity and which
        the table keeps alive."""
        i = self._node_sections.get(node)
        if i is None:
            i = self._node_sections[node] = self.section_id(node.section)
        return i

    def function_id(self, function):
        i = self._function_ids.get(function)
        if i is None:
            i = self._function_ids[function] = len(self.functions)
            self.functions.append(function)
        return i

    def bracket(self, i, j):
        """Id of the bracket of the sections with ids i and j."""
        key = (i, j)
        b = self._brackets.get(key)
        if b is None:
            sigma = self.sections[i]
            b = self._brackets[key] = self.section_id(
                sigma.module.bracket(sigma, self.sections[j]))
        return b

    def d_E(self, alg, f):
        """Id of the dual differential, in alg, of the function with id f."""
        key = (alg, f)
        s = self._d_e.get(key)
        if s is None:
            s = self._d_e[key] = self.section_id(alg.d_E(self.functions[f]))
        return s

    def ids(self, sections, functions):
        """The argument tuples as id tuples."""
        return (tuple(map(self.section_id, sections)),
                tuple(map(self.function_id, functions)))

    def component_tuples(self, battery, sec_arity, fun_arity, reduced):
        """The battery's argument tuples of a component with sec_arity
        sections and fun_arity functions, as a list of (index tuple,
        functions, section ids, function ids), built once per context.

        Without function slots the section stream is the one of ``reduced``;
        with them, the reduced stream runs against every function tuple.
        """
        reduced = reduced or fun_arity > 0
        key = (battery, sec_arity, fun_arity, reduced)
        out = self._components.get(key)
        if out is None:
            stream = battery.index_tuples(sec_arity, reduced)
            # each section of the stream is interned once, in stream order
            ids = dict.fromkeys(i for t in stream for i in t)
            for i in ids:
                ids[i] = self.section_id(battery.sections[i])
            funs = [(f, tuple(map(self.function_id, f)))
                    for f in battery.function_tuples(fun_arity)]
            out = self._components[key] = []
            for t in stream:
                es = tuple(map(ids.__getitem__, t))
                out += [(t, f, es, fs) for f, fs in funs]
        return out


@cache
def _shuffles(total, left):
    """Index splits of range(total) into a sorted left/right pair, with sign."""
    out = []
    for combo in combinations(range(total), left):
        rest = tuple(i for i in range(total) if i not in combo)
        inversions = sum(c - pos for pos, c in enumerate(combo))
        out.append((combo, rest, -1 if inversions % 2 else 1))
    return tuple(out)


# Argument plans: the index patterns of the product and differential loops,
# built once per arity as C-level getters, so a hot loop applies a getter to
# its id tuple instead of slicing and concatenating it on every call.


def _getter(idx):
    """A getter of the tuple (t[i] for i in idx) from a tuple t.

    Consecutive indices read a slice, and so do zero or one index:
    ``itemgetter(i)`` would return a bare element, and ``itemgetter()``
    raises.
    """
    idx = tuple(idx)
    start = idx[0] if idx else 0
    if idx == tuple(range(start, start + len(idx))):
        return itemgetter(slice(start, start + len(idx)))
    return itemgetter(*idx)


@cache
def _drop_plan(m):
    """Entry i maps an m-tuple t to t[:i] + t[i + 1:]."""
    return tuple(_getter([a for a in range(m) if a != i]) for i in range(m))


@cache
def _insertion_plan(m):
    """(pair, insert, sign) for each bracket insertion i < j of the
    differential, in its loop order: pair maps an m-tuple t to (t[i], t[j]),
    insert maps t + (b,) to t[:i] + t[i + 1:j] + (b,) + t[j + 1:], and sign
    is the sign of the term."""
    return tuple(
        (itemgetter(i, j),
         _getter([a for a in range(j) if a != i] + [m] + list(range(j + 1, m))),
         -1 if i % 2 == 0 else 1)
        for i in range(m) for j in range(i + 1, m))


@cache
def _product_plan(p, q, k, n_sections, n_functions):
    """The terms of component k of a product of degrees p and q on
    n_sections sections and n_functions functions: for each split of k into
    left and right function slots r + t, the section shuffles as
    (left getter, right getter, sign) and the function splits as (left
    getter, right getter), both in the order of :func:`_shuffles`."""
    plan = []
    for r in range(k + 1):
        t = k - r
        a = p - 2 * r
        if a < 0 or q - 2 * t < 0:
            continue
        shuffles = tuple((_getter(li), _getter(ri), sign)
                         for li, ri, sign in _shuffles(n_sections, a))
        fsplits = tuple((_getter(li), _getter(ri))
                        for li, ri, _ in _shuffles(n_functions, r))
        plan.append((r, t, shuffles, fsplits))
    return tuple(plan)


def _eval(node, k, es, fs, ctx):
    """Memoised component k of a scalar or bundle-valued node on id tuples."""
    # nodes are interned by structure per algebroid, so equal subexpressions
    # are one node and share this entry; the entry keeps its node alive
    key = (node, k, es, fs)
    memo = ctx.memo
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = node._eval(k, es, fs, ctx)
    return hit


def evaluate(node, k, sections, functions=(), ctx=None):
    """Component k of the cochain on the given argument tuples.

    Raises ValueError unless the arguments fit component k.  ctx is an
    :class:`EvalContext`; pass one to share its memo and tables across
    calls, or None for a fresh one.
    """
    sections = tuple(sections)
    functions = tuple(functions)
    if node.degree >= 0:
        if not 0 <= k <= node.degree // 2:
            raise ValueError(f"component {k} out of range for degree {node.degree}")
        if len(sections) != node.degree - 2 * k or len(functions) != k:
            raise ValueError(
                f"component {k} of a degree-{node.degree} cochain takes "
                f"{node.degree - 2 * k} sections and {k} functions")
    if ctx is None:
        ctx = EvalContext()
    return _eval(node, k, *ctx.ids(sections, functions), ctx)


# ---------------------------------------------------------------------------
# battery-relative equality
# ---------------------------------------------------------------------------


class EqualityResult:
    __slots__ = ("equal", "checked", "witness", "residual")

    def __init__(self, equal, checked, witness=None, residual=None):
        self.equal = equal
        self.checked = checked
        self.witness = witness
        self.residual = residual

    def __bool__(self):
        return self.equal

    def __repr__(self):
        if self.equal:
            return f"EqualityResult(equal, {self.checked} tuples)"
        return f"EqualityResult(differ at {self.witness}, residual {self.residual})"


def equal_combinations(lhs, rhs, battery, reduced=False, ctx=None):
    """Exact equality of two signed sums of cochains on the battery.

    lhs and rhs are lists of (coefficient, cochain) with rational
    coefficients; all non-zero cochains must share one degree and one value
    module.  The sums are compared by a :func:`report.verdict` over the
    component tuples of the battery, their difference being the residual at
    a witness.  ctx is an :class:`EvalContext` (None for a fresh one);
    sharing one across calls shares its memo of node values and its argument
    tables.
    """
    nodes = [w for _, w in (*lhs, *rhs) if not isinstance(w, _Zero)]
    odd = next((w for w in nodes if w.degree != nodes[0].degree), None)
    if odd is not None:
        return EqualityResult(False, 0, witness="degree mismatch",
                              residual=f"{odd.degree} != {nodes[0].degree}")
    if ctx is None:
        ctx = EvalContext()
    return EqualityResult(*verdict(*_combination_check(
        [("", lhs, rhs)], battery, reduced, ctx)))


def _combination_check(instances, battery, reduced, ctx):
    """Tuple stream, sides and witness of sum(lhs) = sum(rhs) for each
    instance (prefix, lhs, rhs) in turn, on its component tuples; a witness
    is the tuple described after the prefix of its instance.  The terms are
    regrouped by sign: those with a positive coefficient once rhs is moved
    over make one side, the negated others the other side."""
    def tuples():
        for prefix, lhs, rhs in instances:
            live = [(c, w) for c, w in lhs if not isinstance(w, _Zero)] \
                + [(-c, w) for c, w in rhs if not isinstance(w, _Zero)]
            plus = [(c, w) for c, w in live if c > 0]
            minus = [(-c, w) for c, w in live if c < 0]
            zero = live[0][1].zero if live else None
            degree = live[0][1].degree if live else -1
            for k in range(degree // 2 + 1):
                for idx, funs, es, fs in ctx.component_tuples(
                        battery, degree - 2 * k, k, reduced):
                    yield prefix, plus, minus, zero, k, idx, funs, es, fs

    def total(terms, zero, k, es, fs):
        acc = zero
        for coeff, w in terms:
            v = _eval(w, k, es, fs, ctx)
            if v.is_zero():
                continue
            if coeff != 1:
                v = v.scale(Scalar.const(w.alg.n, coeff))
            acc = v if acc is zero else acc + v
        return acc

    def sides(prefix, plus, minus, zero, k, idx, funs, es, fs):
        return total(plus, zero, k, es, fs), total(minus, zero, k, es, fs)

    def witness(prefix, plus, minus, zero, k, idx, funs, es, fs):
        return prefix + " , ".join(
            (f"k={k}", *_describe(battery, idx), *(f"f={f}" for f in funs)))

    return tuples(), sides, witness


def _describe(battery, idx):
    """The labels of the battery sections at the indices idx."""
    return battery.describe([battery.sections[i] for i in idx])


def equal(w, h, battery, reduced=False, ctx=None):
    """True iff all components of w and h agree exactly on every battery tuple."""
    return equal_combinations([(1, w)], [(1, h)], battery, reduced, ctx)


def vanishes(w, battery, reduced=False, ctx=None):
    return equal_combinations([(1, w)], [], battery, reduced, ctx)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def check_symmetry_condition(w, battery):
    """Adjacent-swap relation tying component k to component k + 1.

    For every component k, swapping two adjacent section arguments flips the
    value up to a correction by component k + 1 contracted with the pairing
    of the swapped pair (carried in the leading function slot).
    """
    report = Report("symmetry condition")
    ctx = EvalContext()

    def swaps():
        for k in range(w.degree // 2 + 1):
            arity = w.degree - 2 * k
            if arity < 2:
                continue
            for idx, _, es, fs in ctx.component_tuples(battery, arity, k, True):
                for i in range(arity - 1):
                    yield k, i, idx, es, fs

    def sides(k, i, idx, es, fs):
        plain = _eval(w, k, es, fs, ctx)
        flip = _eval(w, k, es[:i] + (es[i + 1], es[i]) + es[i + 2 :], fs, ctx)
        pair = ctx.function_id(w.alg.pairing(ctx.sections[es[i]],
                                             ctx.sections[es[i + 1]]))
        return plain + flip, -_eval(w, k + 1, es[:i] + es[i + 2 :], (pair,) + fs, ctx)

    run_check(report, "symmetry-condition", swaps(), sides,
              lambda k, i, idx, es, fs: " , ".join(
                  (f"k={k}", f"swap at {i}", *_describe(battery, idx))))
    return report


def measure_order_E(w, k, slot, probes, secs, funs):
    """Actual differential-operator order of component k in one section slot.

    Returns the smallest s <= 4 such that every (s+1)-fold iterated symbol
    built from the probe functions vanishes on the given arguments, or 5.
    """
    ctx = EvalContext()
    es, fs = ctx.ids(secs, funs)
    for s in range(5):
        if all(_iterated_symbol(w, k, slot, fseq, es, fs, ctx).is_zero()
               for fseq in _probe_sequences(probes, s + 1)):
            return s
    return 5


def _iterated_symbol(w, k, slot, fseq, es, fs, ctx):
    """Symbol of component k in one section slot, iterated over fseq."""
    if not fseq:
        return _eval(w, k, es, fs, ctx)
    lhs, rhs = _symbol_sides(w, k, slot, fseq, es, fs, ctx)
    return lhs - rhs


def _symbol_sides(w, k, slot, fseq, es, fs, ctx):
    """The two terms of the outermost step of the iterated symbol over the
    nonempty fseq, which vanishes iff they are equal: the symbol over the
    rest with the slot scaled by the head, and head times the symbol over
    the rest."""
    head, rest = fseq[0], fseq[1:]
    scaled = ctx.section_id(ctx.sections[es[slot]].scale(head))
    return (_iterated_symbol(w, k, slot, rest, es[:slot] + (scaled,) + es[slot + 1 :],
                             fs, ctx),
            head * _iterated_symbol(w, k, slot, rest, es, fs, ctx))


def _probe_sequences(probes, depth):
    if depth == 0:
        yield ()
        return
    for i, f in enumerate(probes):
        for rest in _probe_sequences(probes[: i + 1], depth - 1):
            yield (f,) + rest


def symbol_E(w, slot, probes, battery):
    """Confirm the section-slot order bounds by iterated-symbol vanishing.

    The declared bound for slot i of component k is the order field of the
    cochain for leading slots and one less for the final slot; the check
    applies the symbol construction (bound + 1) times with the probe
    functions and requires an exactly zero result on the battery.
    """
    report = Report("section-slot symbols")
    if not 0 <= slot < w.degree:
        raise ValueError(f"section slot {slot} out of range for degree {w.degree}")
    ctx = EvalContext()

    def symbols(k, arity, bound):
        for idx, _, es, fs in ctx.component_tuples(battery, arity, k, True):
            for fseq in _probe_sequences(probes, bound + 1):
                yield k, idx, es, fs, fseq

    for k in range(w.degree // 2 + 1):
        arity = w.degree - 2 * k
        if slot >= arity:
            continue
        if arity == 1 or slot < arity - 1:
            bound = w.order
        else:
            bound = max(w.order - 1, 0)
        run_check(report, f"symbol-E[k={k},slot={slot},order<={bound}]",
                  symbols(k, arity, bound),
                  lambda k, idx, es, fs, fseq: _symbol_sides(
                      w, k, slot, fseq, es, fs, ctx),
                  lambda k, idx, es, fs, fseq: " , ".join(_describe(battery, idx)))
    return report


def symbol_Omega(w, slot, probes, battery):
    """Function-slot symbol probed through the product-rule defect.

    Function slots stand for differentials of their entries, so the slot
    symbol is only observable through exact arguments; its symmetrization is
    the defect  w(..., f*g, ...) - f*w(..., g, ...) - g*w(..., f, ...),
    which must vanish for slots acting as derivations.  The check iterates
    the defect (declared order) times and requires exact vanishing.
    """
    report = Report("function-slot symbols")
    if not 0 <= slot < w.degree // 2:
        raise ValueError(f"function slot {slot} out of range for degree {w.degree}")
    ctx = EvalContext()

    def at_slot(fs, g):
        return fs[:slot] + (ctx.function_id(g),) + fs[slot + 1 :]

    def defects(k):
        for idx, funs, es, fs in ctx.component_tuples(battery, w.degree - 2 * k,
                                                      k, True):
            for f in probes:
                yield k, idx, es, fs, f, funs[slot]

    def defect(k, idx, es, fs, f, g):
        return (_eval(w, k, es, at_slot(fs, f * g), ctx),
                f * _eval(w, k, es, fs, ctx)
                + g * _eval(w, k, es, at_slot(fs, f), ctx))

    for k in range(slot + 1, w.degree // 2 + 1):
        run_check(report, f"symbol-Omega[k={k},slot={slot}]", defects(k), defect,
                  lambda k, idx, es, fs, f, g: " , ".join(
                      (f"k={k}", *_describe(battery, idx), f"f={f}", f"g={g}")))
    return report


# ---------------------------------------------------------------------------
# commutation-relation suite
# ---------------------------------------------------------------------------


def cartan_suite(alg, battery, max_degree=4):
    """All eight commutation relations of the calculus plus the two
    contraction brackets, verified as operator identities on test cochains:
    the first two generator cochains of each degree up to max_degree."""
    # a spread over the degrees, so at max_degree 4 no identity is vacuous
    per_degree = {}
    for w in generator_cochains(alg, battery):
        if w.degree <= max_degree:
            per_degree.setdefault(w.degree, []).append(w)
    cochains = [w for d in sorted(per_degree) for w in per_degree[d][:2]]
    # the double Lie-derivative identities nest two derivations, each a sum
    # over the argument tuple, so they run on the low-degree part of the
    # pool; the contraction identities are cheap and keep the full spread
    heavy = [w for w in cochains if w.degree <= 3][:6]
    secs = list(battery.frame) + battery.scaled[:2] + battery.randoms[:1]
    funs = [f for f in battery.functions if not f.is_constant()][:2] \
        + battery.functions[-1:]
    if not funs:
        funs = battery.functions[:2]
    report = Report(f"commutation relations over {alg!r}")
    ctx = EvalContext()

    def run(name, instances):
        run_check(report, name, *_combination_check(
            [(f"{label}: ", lhs, rhs) for label, lhs, rhs in instances],
            battery, True, ctx))

    d_E, pr, br = alg.d_E, alg.pairing, alg.bracket

    run("lie-function-is-contraction-with-dual-differential",
        [(f"f={f}/w{i}", [(1, lie_f(f, w))], [(1, interior_e(d_E(f), w))])
         for f in funs for i, w in enumerate(cochains)])

    run("lie-function-vs-interior-section",
        [(f"f={f},e{j}/w{i}",
          [(1, lie_f(f, interior_e(e, w))), (1, interior_e(e, lie_f(f, w)))],
          [(-1, interior_f(pr(d_E(f), e), w))])
         for f in funs[:2] for j, e in enumerate(secs[: alg.rank])
         for i, w in enumerate(cochains)])

    run("lie-section-vs-interior-function",
        [(f"e{j},f={f}/w{i}",
          [(1, lie_e(e, interior_f(f, w))), (-1, interior_f(f, lie_e(e, w)))],
          [(1, interior_f(pr(d_E(f), e), w))])
         for f in funs[:2] for j, e in enumerate(secs[: alg.rank])
         for i, w in enumerate(cochains)])

    head = secs[: min(len(secs), alg.rank + 2)]
    pairs = [(e1, e2) for i, e1 in enumerate(head) for e2 in head[i:]]

    run("lie-section-vs-interior-section",
        [(f"pair{i}/w{m}",
          [(1, lie_e(e1, interior_e(e2, w))), (-1, interior_e(e2, lie_e(e1, w)))],
          [(1, interior_e(br(e1, e2), w))])
         for i, (e1, e2) in enumerate(pairs[:12])
         for m, w in enumerate(cochains)])

    run("lie-function-lie-function",
        [(f"(f,g)/w{i}",
          [(1, lie_f(f, lie_f(g, w))), (1, lie_f(g, lie_f(f, w)))], [])
         for f in funs[:2] for g in funs[:2] for i, w in enumerate(cochains)])

    run("lie-section-lie-function",
        [(f"e{j},f/w{i}",
          [(1, lie_e(e, lie_f(f, w))), (-1, lie_f(f, lie_e(e, w)))],
          [(1, lie_f(pr(e, d_E(f)), w))])
         for f in funs[:2] for j, e in enumerate(secs[: alg.rank])
         for i, w in enumerate(heavy)])

    run("lie-function-lie-section",
        [(f"f,e{j}/w{i}",
          [(1, lie_f(f, lie_e(e, w))), (-1, lie_e(e, lie_f(f, w)))],
          [(-1, lie_f(pr(e, d_E(f)), w))])
         for f in funs[:2] for j, e in enumerate(secs[: alg.rank])
         for i, w in enumerate(heavy)])

    run("lie-section-lie-section",
        [(f"pair{i}/w{m}",
          [(1, lie_e(e1, lie_e(e2, w))), (-1, lie_e(e2, lie_e(e1, w)))],
          [(1, lie_e(br(e1, e2), w))])
         for i, (e1, e2) in enumerate(pairs[:10])
         for m, w in enumerate(heavy)])

    run("interior-section-anticommutator",
        [(f"pair{i}/w{m}",
          [(1, interior_e(e1, interior_e(e2, w))),
           (1, interior_e(e2, interior_e(e1, w)))],
          [(-1, interior_f(pr(e1, e2), w))])
         for i, (e1, e2) in enumerate(pairs)
         for m, w in enumerate(cochains)][: 12 * len(cochains)])

    run("interior-section-interior-function",
        [(f"e{j},f/w{i}",
          [(1, interior_e(e, interior_f(f, w))),
           (-1, interior_f(f, interior_e(e, w)))], [])
         for f in funs[:2] for j, e in enumerate(secs[: alg.rank])
         for i, w in enumerate(cochains)])

    run("interior-function-interior-function",
        [(f"(f,g)/w{i}",
          [(1, interior_f(f, interior_f(g, w))),
           (-1, interior_f(g, interior_f(f, w)))], [])
         for f in funs[:2] for g in funs[:2] for i, w in enumerate(cochains)])

    return report


# ---------------------------------------------------------------------------
# deterministic cochain generators
# ---------------------------------------------------------------------------


def generator_cochains(alg, battery):
    """Deterministic DAG cochains of degree <= 4 covering every node kind."""
    n = alg.n
    e = list(alg.frame)
    r = alg.rank
    if n >= 1:
        f1 = Scalar.variable(n, 1)
        f2 = Scalar.variable(n, min(2, n)) * Scalar.variable(n, 1) \
            if n >= 2 else f1 * f1
    else:
        f1 = Scalar.const(0, 2)
        f2 = Scalar.const(0, -3)
    g = battery.randoms[0] if battery.randoms else e[0]
    s1 = section_leaf(alg, e[0])
    s2 = section_leaf(alg, e[1 % r])
    s3 = section_leaf(alg, e[2 % r].scale(f1))
    s4 = section_leaf(alg, g)
    return [
        scalar_leaf(alg, f1),
        scalar_leaf(alg, f2),
        s1,
        s3,
        s4,
        differential(scalar_leaf(alg, f1)),
        differential(s1),
        differential(s3),
        mul(s1, s2),
        mul(s3, s4),
        mul(differential(scalar_leaf(alg, f2)), s1),
        differential(mul(s1, s2)),
        mul(differential(s1), s2),
        mul(mul(s1, s2), s3),
        lie_e(e[1 % r], s1),
        lie_e(e[0], mul(s1, s3)),
        lie_f(f1, mul(s2, s4)),
        lie_f(f2, differential(mul(s1, s2))),
        interior_e(e[0], differential(s3)),
        interior_e(e[1 % r], mul(mul(s1, s2), s4)),
        interior_f(f1, differential(differential(scalar_leaf(alg, f2)))),
        interior_f(f2, mul(differential(s1), s3)),
        mul(mul(s1, s2), mul(s3, s4)),
        differential(mul(mul(s1, s2), s3)),
        lie_e(g, differential(s2)),
        interior_f(f1, mul(mul(s1, s3), mul(s2, s4))),
    ]


def random_cochain(alg, degree, rng, battery):
    """Seeded random DAG of the requested degree (0 <= degree <= 6)."""
    pool_sections = battery.frame + battery.scaled[:4] + battery.randoms
    pool_functions = battery.functions

    def rand_section():
        return rng.choice(pool_sections)

    def rand_function():
        return rng.choice(pool_functions)

    def build(p, depth):
        if p < 0:
            return zero_cochain(alg, p)
        if p == 0 and depth <= 0:
            return scalar_leaf(alg, rand_function())
        if depth <= 0:
            w = section_leaf(alg, rand_section())
            for _ in range(p - 1):
                w = mul(w, section_leaf(alg, rand_section()))
            return w
        if p == 0:
            return scalar_leaf(alg, rand_function())
        choices = []
        if p == 1:
            choices.append("leaf")
        if p >= 1:
            choices.append("d")
            choices.append("mul")
            choices.append("lie_e")
        if p + 1 <= PRODUCT_DEGREE_CAP:
            choices.append("ie")
            choices.append("lie_f")
        if p + 2 <= PRODUCT_DEGREE_CAP:
            choices.append("if")
        op = rng.choice(choices)
        if op == "leaf":
            return section_leaf(alg, rand_section())
        if op == "d":
            return differential(build(p - 1, depth - 1))
        if op == "mul":
            a = rng.randint(max(0, p - 3), min(p, 3))
            left = build(a, depth - 1)
            right = build(p - a, depth - 1)
            return mul(left, right)
        if op == "ie":
            return interior_e(rand_section(), build(p + 1, depth - 1))
        if op == "if":
            return interior_f(rand_function(), build(p + 2, depth - 1))
        if op == "lie_e":
            return lie_e(rand_section(), build(p, depth - 1))
        return lie_f(rand_function(), build(p + 1, depth - 1))

    return build(degree, 3)
