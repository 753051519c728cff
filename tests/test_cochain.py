import gc
import json
import pathlib
import random
import weakref
from itertools import combinations, islice, permutations, product
from math import comb

import pytest

from courantcalc import cochain as co
from courantcalc import dorfman as dc
from courantcalc.algebroid import Section, build_standard
from courantcalc.battery import Battery
from courantcalc.scalar import Scalar, parse_scalar


DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"


def S(text):
    return parse_scalar(text, 2)


@pytest.fixture(scope="module")
def gens(standard2, battery2):
    return co.generator_cochains(standard2, battery2)


# -- evaluation against independent oracles -----------------------------------

def test_differential_of_function_is_anchor_derivative(standard2, battery2):
    f = S("x1^2*x2 - x2")
    w = co.differential(co.scalar_leaf(standard2, f))
    for s in battery2.sections:
        assert co.evaluate(w, 0, (s,)) == standard2.anchor_apply(s, f)


def test_differential_function_component(standard2):
    e = standard2.frame[0]
    w = co.differential(co.section_leaf(standard2, e))
    for f in (S("x1"), S("x1*x2"), S("x2^2 - 3")):
        assert co.evaluate(w, 1, (), (f,)) == \
            standard2.pairing(e, standard2.d_E(f))


def brute_force_product_component(alg, factors, args):
    """Independent oracle: alternating sum over all argument orderings with
    block positions, computed directly from the degree-1 values."""
    p = len(factors)
    assert len(args) == p
    total = Scalar.zero(alg.n)
    for perm in permutations(range(p)):
        inv = sum(1 for i in range(p) for j in range(i + 1, p)
                  if perm[i] > perm[j])
        # only shuffles: each factor takes one argument in order
        term = Scalar.one(alg.n)
        for fac, idx in zip(factors, perm):
            term = term * alg.pairing(fac, args[idx])
        total = total + term if inv % 2 == 0 else total - term
    return total


def test_product_of_two_section_leaves(standard2, battery2):
    a = standard2.element_from_strings(["x1", "0", "1", "0"])
    b = standard2.element_from_strings(["0", "x2", "0", "2"])
    w = co.mul(co.section_leaf(standard2, a), co.section_leaf(standard2, b))
    for args in list(battery2.section_tuples(2))[:40]:
        want = standard2.pairing(a, args[0]) * standard2.pairing(b, args[1]) \
            - standard2.pairing(a, args[1]) * standard2.pairing(b, args[0])
        assert co.evaluate(w, 0, args) == want
        assert want == brute_force_product_component(standard2, [a, b], args)


def test_product_of_three_section_leaves(standard2, battery2):
    secs = [standard2.frame[0].scale(S("x1")), standard2.frame[3],
            standard2.frame[1]]
    w = None
    for s in secs:
        leaf = co.section_leaf(standard2, s)
        w = leaf if w is None else co.mul(w, leaf)
    for args in list(battery2.section_tuples(3))[:25]:
        assert co.evaluate(w, 0, args) == \
            brute_force_product_component(standard2, secs, args)


def test_zero_cochain_from_degree_underflow(standard2):
    leaf = co.section_leaf(standard2, standard2.frame[0])
    w = co.interior_f(S("x1"), leaf)
    assert w.degree == -1
    assert co.evaluate(w, 0, (), ()).is_zero()


def test_component_validation(standard2):
    w = co.differential(co.section_leaf(standard2, standard2.frame[0]))
    with pytest.raises(ValueError):
        co.evaluate(w, 2, ())
    with pytest.raises(ValueError):
        co.evaluate(w, 0, (standard2.frame[0],))


def test_product_degree_cap(standard2):
    quad = None
    for i in range(4):
        leaf = co.section_leaf(standard2, standard2.frame[i % 4])
        quad = leaf if quad is None else co.mul(quad, leaf)
    with pytest.raises(co.DegreeCapError):
        co.mul(quad, quad)
    # L_e is i_e d + d i_e: it is capped where the differential is
    top = co.section_leaf(standard2, standard2.frame[0])
    while top.degree < co.DEGREE_CAP:
        top = co.differential(top)
    for along in (None, dc.build_standard_connection(standard2)):
        with pytest.raises(co.DegreeCapError):
            co.lie_e(standard2.frame[1], top, along)
    assert co.lie_e(standard2.frame[1], top.child).degree == co.DEGREE_CAP - 1


# -- reference evaluator ---------------------------------------------------------
# Each node formula written out on Section and Scalar values, with no memo, no
# id interning and no skipped terms; `along` is the connection d is taken along.


class _AnchorRef:
    def __init__(self, alg):
        self.alg = alg

    def apply(self, sigma, f):
        return self.alg.anchor_apply(sigma, f)


def _endomorphism(bundle, cols):
    """The element of End(B) = T^{1,1}(B) with the given columns, the images
    of B's frame."""
    rows = zip(*(col.components for col in cols))
    return dc.TensorBundle.of(bundle, 1, 1).element([c for row in rows for c in row])


class _EndRef:
    """The commutator connection on End(B), column by column:
    (nabla~_s M) b = nabla_s(M b) - M(nabla_s b).  It shares no code with
    the slot-wise rule of ``TensorConnection``."""

    def __init__(self, conn):
        self.conn = conn
        self.alg = conn.alg

    def apply(self, sigma, m):
        conn = self.conn
        return _endomorphism(conn.bundle, (
            conn.apply(sigma, m.module.contract(m, e))
            - m.module.contract(m, conn.apply(sigma, e))
            for e in conn.bundle.frame))


def _parity(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def _ref_d(w, p, k, secs, funs, along, zero):
    """Component k of the differential of the degree-p cochain w(k, secs, funs)."""
    alg = along.alg
    total = zero
    if 1 <= k <= p // 2 + 1:
        for mu in range(k):
            total = total + w(k - 1, (alg.d_E(funs[mu]),) + secs,
                              funs[:mu] + funs[mu + 1:])
    if k <= p // 2:
        m = len(secs)
        for i in range(m):
            dv = along.apply(secs[i], w(k, secs[:i] + secs[i + 1:], funs))
            total = total + dv if i % 2 == 0 else total - dv
        for i in range(m):
            for j in range(i + 1, m):
                moved = (secs[:i] + secs[i + 1:j] + (alg.bracket(secs[i], secs[j]),)
                         + secs[j + 1:])
                v = w(k, moved, funs)
                total = total - v if i % 2 == 0 else total + v
    return total


def _ref_eval(node, k, secs, funs, along):
    zero = node.zero
    if isinstance(node, co._Zero):
        return zero
    if isinstance(node, co._Leaf):
        return node.value
    if isinstance(node, co._SectionLeaf):
        return node.alg.pairing(node.section, secs[0])
    if isinstance(node, dc._Curvature):
        conn = node.conn
        if k == 0:
            s, t = secs
            cols = (conn.apply(s, conn.apply(t, b)) - conn.apply(t, conn.apply(s, b))
                    - conn.apply(conn.alg.bracket(s, t), b) for b in conn.bundle.frame)
        else:
            cols = (conn.apply(conn.alg.d_E(funs[0]), b) for b in conn.bundle.frame)
        return _endomorphism(conn.bundle, cols)
    if isinstance(node, co._Product):
        left, right = node.left, node.right
        scalar = _AnchorRef(node.alg)
        total = zero
        for r in range(k + 1):
            a = left.degree - 2 * r
            b = right.degree - 2 * (k - r)
            if a < 0 or b < 0:
                continue
            for lidx in combinations(range(len(secs)), a):
                ridx = tuple(i for i in range(len(secs)) if i not in lidx)
                sign = _parity(lidx + ridx)
                for lf in combinations(range(k), r):
                    rf = tuple(i for i in range(k) if i not in lf)
                    v1 = _ref_eval(left, r, tuple(secs[i] for i in lidx),
                                   tuple(funs[i] for i in lf), scalar)
                    v2 = _ref_eval(right, k - r, tuple(secs[i] for i in ridx),
                                   tuple(funs[i] for i in rf), along)
                    term = v2.scale(v1)
                    total = total + term if sign > 0 else total - term
        return total
    if isinstance(node, co._InteriorE):
        return _ref_eval(node.child, k, (node.section,) + secs, funs, along)
    if isinstance(node, co._InteriorF):
        return _ref_eval(node.child, k + 1, secs, (node.function,) + funs, along)

    child = node.child
    q = child.degree

    def w(kk, ss, ff):
        return _ref_eval(child, kk, ss, ff, along)

    if isinstance(node, co._Differential):
        return _ref_d(w, q, k, secs, funs, along, zero)

    def dw(kk, ss, ff):
        return _ref_d(w, q, kk, ss, ff, along, zero)

    if isinstance(node, co._LieE):
        e = node.section
        out = dw(k, (e,) + secs, funs)
        if q >= 1:
            out = out + _ref_d(lambda kk, ss, ff: w(kk, (e,) + ss, ff), q - 1,
                               k, secs, funs, along, zero)
        return out
    assert isinstance(node, co._LieF)
    f = node.function
    out = dw(k + 1, secs, (f,) + funs)
    if q >= 2:
        out = out - _ref_d(lambda kk, ss, ff: w(kk + 1, ss, (f,) + ff), q - 2,
                           k, secs, funs, along, zero)
    return out


def _oracle_tuples(node, sections, functions, rng, per_component=3):
    """Argument tuples for every component.  The first tuple of each
    component ends in the last section and function of the pools; the others
    are drawn from the rest, without repeating a section (a repeat often
    makes the value zero)."""
    out = []
    for k in range(node.degree // 2 + 1):
        arity = node.degree - 2 * k
        for t in range(per_component):
            secs = tuple(rng.sample(sections[:-1], arity))
            funs = tuple(rng.choice(functions[:-1]) for _ in range(k))
            if t == 0:
                secs = secs[:-1] + (sections[-1],) if arity else secs
                funs = funs[:-1] + (functions[-1],) if k else funs
            out.append((k, secs, funs))
    return out


def _assert_agrees_with_reference(node, calls, along):
    """Returns how many of the reference values are nonzero."""
    ctx = co.EvalContext()
    nonzero = 0
    for k, secs, funs in calls:
        got = co.evaluate(node, k, secs, funs, ctx)
        want = _ref_eval(node, k, secs, funs, along)
        assert (got - want).is_zero(), (type(node).__name__, k, secs, funs)
        nonzero += not want.is_zero()
    return nonzero


def _reference_pools(alg, battery):
    """Frame, scaled and random sections and a zero one; nonconstant, random
    and constant functions (over a point every function is a constant)."""
    sections = (battery.frame + battery.scaled[:2] + battery.randoms
                + [alg.zero()])
    functions = ([f for f in battery.functions if not f.is_constant()][:2]
                 + battery.functions[-1:] + [Scalar.const(alg.n, 3)])
    return sections, functions


@pytest.mark.parametrize("name", ["standard2", "su2"])
def test_evaluate_agrees_with_reference_evaluator(name, request):
    alg = request.getfixturevalue(name)
    battery = Battery(alg, degree=1, extras=1)
    sections, functions = _reference_pools(alg, battery)
    nodes = []
    for w in co.generator_cochains(alg, battery):
        if w.degree <= 3:
            nodes.append(w)
        if w.degree <= 2:
            nodes.append(co.differential(w))
    assert any(isinstance(w, co._Differential) and w.degree == 3 for w in nodes)
    rng = random.Random(f"reference:{name}")
    for node in nodes:
        calls = _oracle_tuples(node, sections, functions, rng, per_component=6)
        _assert_agrees_with_reference(node, calls, _AnchorRef(alg))


@pytest.mark.parametrize("name", ["standard2", "su2"])
def test_evaluate_agrees_with_reference_evaluator_at_arity_4_and_5(name, request):
    """The degree-4 generators, their differentials and their Lie
    derivatives along a section, on every component: the arities at which
    the d^2 and Cartan checks evaluate their nodes."""
    alg = request.getfixturevalue(name)
    # su(2) has no scaled frame over a point: three random sections make the
    # five distinct ones that a degree-5 component samples
    battery = Battery(alg, degree=1, extras=3 if alg.n == 0 else 1)
    sections, functions = _reference_pools(alg, battery)
    nodes = [w for w in co.generator_cochains(alg, battery) if w.degree == 4]
    e = battery.randoms[0]
    nodes += [co.differential(w) for w in nodes] + [co.lie_e(e, w) for w in nodes]
    assert sorted(w.degree for w in nodes) == [4, 4, 4, 4, 5, 5]
    rng = random.Random(f"reference-4-5:{name}")
    nonzero = {4: 0, 5: 0}
    for node in nodes:
        calls = _oracle_tuples(node, sections, functions, rng, per_component=4)
        assert {k for k, _, _ in calls} == set(node.components())
        nonzero[node.degree] += _assert_agrees_with_reference(node, calls,
                                                              _AnchorRef(alg))
    # on the rank-3 su(2) over a point every sampled value at these arities
    # is zero, so there the check is that the evaluator gives zero too; on
    # standard(2) it must meet nonzero values at both arities
    if alg.n:
        assert nonzero[4] and nonzero[5], nonzero


def test_bianchi_cochain_agrees_with_reference_evaluator(standard2):
    doc = json.loads((DATA / "christoffel_poly2.json").read_text())
    conn = dc.build_standard_connection(standard2, dc.christoffel_from_json(doc, 2))
    end = dc.TensorConnection(conn, 1, 1)
    battery = Battery(standard2, degree=1, extras=1)
    sections = battery.frame[:2] + battery.scaled[:1] + battery.randoms[:1] \
        + [standard2.zero()]
    functions = [S("x1*x2"), S("2")]
    rng = random.Random("bianchi")
    # d_nabla~ R vanishes by the Bianchi identity; the differential of a
    # contraction of R does not
    curvature = dc.curvature(conn)
    for node in (co.differential(curvature, end),
                 co.differential(co.interior_e(battery.randoms[0], curvature), end),
                 co.lie_e(battery.scaled[0], curvature, end)):
        calls = _oracle_tuples(node, sections, functions, rng, per_component=2)
        _assert_agrees_with_reference(node, calls, _EndRef(conn))


# -- evaluation context --------------------------------------------------------------

def test_shuffle_signs_are_permutation_parities():
    for total in range(7):
        for left in range(total + 1):
            splits = co._shuffles(total, left)
            assert co._shuffles(total, left) is splits
            assert len(splits) == comb(total, left)
            for combo, rest, sign in splits:
                perm = combo + rest
                assert list(combo) == sorted(combo)
                assert list(rest) == sorted(rest)
                assert sorted(perm) == list(range(total))
                inversions = sum(1 for i in range(total)
                                 for j in range(i + 1, total)
                                 if perm[i] > perm[j])
                assert sign == (-1) ** inversions


def test_argument_plans_rebuild_the_sliced_tuples():
    # distinct entries, so a getter reading the wrong index shows
    for m in range(co.DEGREE_CAP + 1):
        es = tuple(range(10, 10 + m))
        br = -1
        drops = co._drop_plan(m)
        assert co._drop_plan(m) is drops
        assert [g(es) for g in drops] == [es[:i] + es[i + 1:] for i in range(m)]
        plan = co._insertion_plan(m)
        assert co._insertion_plan(m) is plan
        assert [(pair(es), insert(es + (br,)), sign)
                for pair, insert, sign in plan] == [
            ((es[i], es[j]), es[:i] + es[i + 1:j] + (br,) + es[j + 1:],
             -1 if i % 2 == 0 else 1)
            for i in range(m) for j in range(i + 1, m)]
    # a dropped slot of a 2-tuple leaves one index, of a 1-tuple none:
    # itemgetter(i) would give a bare element and itemgetter() raises
    assert co._drop_plan(1)[0]((7,)) == ()
    assert [g((7, 8)) for g in co._drop_plan(2)] == [(8,), (7,)]
    assert co._insertion_plan(2)[0][1]((7, 8, 9)) == (9,)
    for idx in [(), (0,), (2,), (0, 2), (1, 2), (2, 0)]:
        got = co._getter(idx)((5, 6, 7))
        assert type(got) is tuple and got == tuple((5, 6, 7)[i] for i in idx)


def test_product_plans_follow_the_shuffles():
    for total in range(co.PRODUCT_DEGREE_CAP + 1):
        for p in range(total + 1):
            q = total - p
            for k in range(total // 2 + 1):
                n_sections = total - 2 * k
                es = tuple(range(10, 10 + n_sections))
                fs = tuple(range(50, 50 + k))
                plan = co._product_plan(p, q, k, n_sections, k)
                assert co._product_plan(p, q, k, n_sections, k) is plan
                want = []
                for r in range(k + 1):
                    t = k - r
                    if p - 2 * r < 0 or q - 2 * t < 0:
                        continue
                    shuffles = [(tuple(es[i] for i in li), tuple(es[i] for i in ri),
                                 sign)
                                for li, ri, sign in co._shuffles(n_sections, p - 2 * r)]
                    fsplits = [(tuple(fs[i] for i in li), tuple(fs[i] for i in ri))
                               for li, ri, _ in co._shuffles(k, r)]
                    want.append((r, t, shuffles, fsplits))
                assert [(r, t, [(lg(es), rg(es), sign) for lg, rg, sign in shuffles],
                         [(lg(fs), rg(fs)) for lg, rg in fsplits])
                        for r, t, shuffles, fsplits in plan] == want


def _sample_calls(battery, nodes, per_component=4):
    """(node, k, sections, functions) on the first tuples of each component."""
    calls = []
    for node in nodes:
        for k in range(node.degree // 2 + 1):
            tuples = product(battery.section_tuples(node.degree - 2 * k, True),
                             battery.function_tuples(k))
            for secs, funs in islice(tuples, per_component):
                calls.append((node, k, secs, funs))
    return calls


def _generators_and_differentials(alg, battery):
    return [node for w in co.generator_cochains(alg, battery)[::3]
            for node in (w, co.differential(w))]


def test_shared_context_matches_fresh_contexts(standard1, port_hamiltonian11,
                                               su2):
    # standard(1) and port-Hamiltonian(1,1) share the base variable x1, so
    # the same function value must get each algebroid's own dual differential
    calls = []
    for alg in (standard1, port_hamiltonian11, su2):
        battery = Battery(alg, degree=1, extras=1)
        calls += _sample_calls(battery, _generators_and_differentials(alg, battery))
    ctx = co.EvalContext()
    shared = [co.evaluate(w, k, secs, funs, ctx) for w, k, secs, funs in calls]
    fresh = [co.evaluate(w, k, secs, funs) for w, k, secs, funs in calls]
    assert shared == fresh
    assert any(k > 0 for _, k, _, _ in calls)


def test_shared_context_serves_bundle_valued_cochains(standard1, standard2):
    calls = []
    for alg in (standard1, standard2):
        conn = dc.build_standard_connection(alg)
        battery = Battery(alg, degree=1, extras=1)
        # the self-predual bundle has the frame of the algebroid
        b = conn.bundle.element(battery.randoms[0].components)
        w = co.mul(co.section_leaf(alg, battery.randoms[0]),
                   co.section_leaf(alg, alg.frame[-1]))
        nodes = [dc.covariant_differential(
                     conn, dc.covariant_differential(conn, dc.b_leaf(conn.bundle, b))),
                 dc.covariant_differential(conn, dc.tensor(w, conn.bundle, b)),
                 dc.nabla_e(conn, battery.randoms[0], dc.product_b(
                     co.differential(w), dc.b_leaf(conn.bundle, b)))]
        calls += _sample_calls(battery, nodes, per_component=5)
        # scalar cochains of the same algebroid share the context too
        calls += _sample_calls(battery, _generators_and_differentials(alg, battery),
                               per_component=2)

    def run(ctx):
        # ctx None gives every call a fresh context
        return [(dc.evaluateB if isinstance(w.zero, Section) else co.evaluate)(
                    w, k, secs, funs, ctx) for w, k, secs, funs in calls]

    assert run(co.EvalContext()) == run(None)


def test_equal_b_with_shared_context(standard2, battery2):
    conn = dc.build_standard_connection(standard2)
    bundle = conn.bundle
    b = bundle.element([S(t) for t in ("x1", "0", "x2", "1")])
    w = co.section_leaf(standard2, standard2.frame[0].scale(S("x2")))
    lhs = dc.covariant_differential(conn, dc.tensor(w, bundle, b))
    rhs = [(1, dc.tensor(co.differential(w), bundle, b)),
           (-1, dc.product_b(w, dc.covariant_differential(conn, dc.b_leaf(bundle, b))))]
    ctx = co.EvalContext()
    assert co.vanishes(co.differential(co.differential(w)), battery2,
                       reduced=True, ctx=ctx)
    shared = dc.equal_b([(1, lhs)], rhs, battery2, ctx=ctx)
    fresh = dc.equal_b([(1, lhs)], rhs, battery2)
    assert (shared.equal, shared.checked, shared.witness, shared.residual) == \
        (fresh.equal, fresh.checked, fresh.witness, fresh.residual)
    assert shared.equal and shared.checked > 0


def test_a_node_interns_its_section_once_per_context(standard2, monkeypatch):
    # i_e and L_e find the id of e by the node, so e is looked up by value
    # once per node and context, however many tuples the node is evaluated on
    battery = Battery(standard2, degree=1, extras=1)
    conn = dc.build_standard_connection(standard2)
    e = standard2.element_from_strings(["x1", "1", "x2", "0"])
    w = next(w for w in co.generator_cochains(standard2, battery) if w.degree == 3)
    nodes = [co.interior_e(e, w), co.lie_e(e, w), co.lie_e(e, w, conn)]
    calls = _sample_calls(battery, nodes, per_component=6)
    interned = []
    section_id = co.EvalContext.section_id
    monkeypatch.setattr(co.EvalContext, "section_id",
                        lambda ctx, s: interned.append(s) or section_id(ctx, s))
    for ctx in (co.EvalContext(), co.EvalContext()):
        values = [co.evaluate(node, k, secs, funs, ctx)
                  for node, k, secs, funs in calls]
        assert any(not v.is_zero() for v in values)
    assert len(calls) > 2 * len(nodes)
    assert sum(s is e for s in interned) == 2 * len(nodes)


def test_differential_never_evaluates_at_a_zero_section(standard2):
    # coordinate-frame brackets of standard(n) vanish; a bracket insertion
    # of a zero section is a zero term, skipped before the memo is touched
    battery = Battery(standard2, degree=1, extras=1)
    assert not any(s.is_zero() for s in battery.sections)
    w = next(w for w in co.generator_cochains(standard2, battery) if w.degree == 4)
    ctx = co.EvalContext()
    assert co.vanishes(co.differential(co.differential(w)), battery, ctx=ctx)
    assert ctx.zero_ids
    assert not [key for key in ctx.memo if ctx.zero_ids.intersection(key[2])]


# -- structural laws --------------------------------------------------------------

def test_d_squared_vanishes_on_sample(standard2, battery2, gens):
    for w in gens[:8]:
        assert co.vanishes(co.differential(co.differential(w)), battery2,
                           reduced=True)


def test_d_squared_vanishes_on_a_nonzero_degree_4_generator(cotangent_su2):
    # on the rank-3 su(2) every degree-4 generator is zero, an alternating
    # form of degree 4 on a rank-3 space; on the rank-6 T*su(2) one is not,
    # so d^2 = 0 there is checked on a cochain that does not vanish
    battery = Battery(cotangent_su2)
    live = [w for w in co.generator_cochains(cotangent_su2, battery)
            if w.degree == 4 and not co.vanishes(w, battery).equal]
    assert live
    for w in live:
        assert co.vanishes(co.differential(co.differential(w)), battery).equal


def test_lie_derivative_nodes_are_commutators(standard2, battery2):
    f = S("x1*x2")
    w = co.mul(co.section_leaf(standard2, standard2.frame[0].scale(S("x2"))),
               co.section_leaf(standard2, standard2.frame[3]))
    lf = co.lie_f(f, w)
    direct = [(1, co.interior_f(f, co.differential(w))),
              (-1, co.differential(co.interior_f(f, w)))]
    assert co.equal_combinations([(1, lf)], direct, battery2, reduced=True)
    le = co.lie_e(standard2.frame[1], w)
    direct = [(1, co.interior_e(standard2.frame[1], co.differential(w))),
              (1, co.differential(co.interior_e(standard2.frame[1], w)))]
    assert co.equal_combinations([(1, le)], direct, battery2, reduced=True)


def _lie_e_sections(alg, battery):
    """Frame, scaled, random and zero sections, and an anchor-free one: the
    frame elements with no anchor image, summed and scaled by a function."""
    free = [e for j, e in enumerate(alg.frame)
            if all(row[j].is_zero() for row in alg.anchor_matrix)]
    anchor_free = free[0]
    for e in free[1:]:
        anchor_free = anchor_free + e
    return (battery.frame + battery.scaled[:1] + battery.randoms[:1]
            + [alg.zero(), anchor_free.scale(battery.functions[-1])])


def _assert_cartan_formula(alg, battery, pairs, along=None):
    """L_e w = i_e d w + d i_e w for each (e, w) in pairs; returns how many
    of the L_e w are not zero on the battery."""
    ctx = co.EvalContext()
    nonzero = 0
    for e, w in pairs:
        lhs = co.lie_e(e, w, along)
        rhs = [(1, co.interior_e(e, co.differential(w, along))),
               (1, co.differential(co.interior_e(e, w), along))]
        res = co.equal_combinations([(1, lhs)], rhs, battery, ctx=ctx)
        assert res.equal, (e, res)
        nonzero += not co.vanishes(lhs, battery, ctx=ctx).equal
    return nonzero


@pytest.mark.parametrize("name", ["standard2", "su2", "cotangent_su2",
                                  "non_jacobi"])
def test_lie_e_is_cartans_formula(name, request):
    # the one-pass L_e against the two differentials it replaces, on every
    # generator and every component; the cancelling terms cancel for any
    # bracket, so the algebroid that breaks Jacobi passes too
    alg = request.getfixturevalue(name)
    battery = Battery(alg, degree=1, extras=1)
    gens = co.generator_cochains(alg, battery)
    assert {w.degree for w in gens} == {0, 1, 2, 3, 4}
    pairs = [(e, w) for w in gens for e in _lie_e_sections(alg, battery)]
    assert _assert_cartan_formula(alg, battery, pairs)


def test_lie_e_along_a_connection_is_cartans_formula(standard2):
    doc = json.loads((DATA / "christoffel_poly2.json").read_text())
    conn = dc.build_standard_connection(standard2, dc.christoffel_from_json(doc, 2))
    battery = Battery(standard2, degree=1, extras=1)
    b = conn.bundle.element(battery.randoms[0].components)
    s = co.section_leaf(standard2, battery.scaled[0])
    # a B-valued cochain of degree 3, so component 1 has a function slot
    x = dc.product_b(co.differential(s), dc.covariant_differential(
        conn, dc.b_leaf(conn.bundle, b)))
    pairs = [(e, x) for e in _lie_e_sections(standard2, battery)]
    assert _assert_cartan_formula(standard2, battery, pairs, conn)


def test_graded_commutativity(standard2, battery2, gens):
    rng = random.Random("commutativity")
    pool = [w for w in gens if 0 <= w.degree <= 3]
    for _ in range(6):
        a, b = rng.choice(pool), rng.choice(pool)
        if a.degree + b.degree > co.PRODUCT_DEGREE_CAP:
            continue
        sign = (-1) ** (a.degree * b.degree)
        assert co.equal_combinations(
            [(1, co.mul(a, b))], [(sign, co.mul(b, a))], battery2, reduced=True)


def test_associativity(standard2, battery2, gens):
    rng = random.Random("associativity")
    pool = [w for w in gens if 0 <= w.degree <= 2]
    for _ in range(4):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if a.degree + b.degree + c.degree > co.PRODUCT_DEGREE_CAP:
            continue
        lhs = co.mul(co.mul(a, b), c)
        rhs = co.mul(a, co.mul(b, c))
        assert co.equal_combinations([(1, lhs)], [(1, rhs)], battery2,
                                     reduced=True)


def test_leibniz_for_differential(standard2, battery2, gens):
    pool = [w for w in gens if 1 <= w.degree <= 2]
    for a in pool[:3]:
        for b in pool[:3]:
            lhs = co.differential(co.mul(a, b))
            rhs = [(1, co.mul(co.differential(a), b)),
                   ((-1) ** a.degree, co.mul(a, co.differential(b)))]
            assert co.equal_combinations([(1, lhs)], rhs, battery2,
                                         reduced=True)


def test_leibniz_for_contractions(standard2, battery2, gens):
    f = S("x1")
    e = standard2.frame[2]
    pool = [w for w in gens if 1 <= w.degree <= 2]
    for a in pool[:3]:
        for b in pool[:3]:
            prod = co.mul(a, b)
            lhs = co.interior_f(f, prod)
            rhs = [(1, co.mul(co.interior_f(f, a), b)),
                   (1, co.mul(a, co.interior_f(f, b)))]
            assert co.equal_combinations([(1, lhs)], rhs, battery2,
                                         reduced=True)
            lhs = co.interior_e(e, prod)
            rhs = [(1, co.mul(co.interior_e(e, a), b)),
                   ((-1) ** a.degree, co.mul(a, co.interior_e(e, b)))]
            assert co.equal_combinations([(1, lhs)], rhs, battery2,
                                         reduced=True)


def test_equality_differs_on_distinct_cochains(standard2, battery2):
    a = co.section_leaf(standard2, standard2.frame[0])
    b = co.section_leaf(standard2, standard2.frame[1])
    res = co.equal(a, b, battery2)
    assert not res
    assert res.witness is not None and res.residual is not None


def test_failing_equality_counts_every_tuple(su2, battery_su2):
    a = co.section_leaf(su2, su2.frame[0])
    b = co.section_leaf(su2, su2.frame[1])
    res = co.equal(a, b, battery_su2)
    assert (res.equal, res.witness, res.residual) == (False, "k=0 , e1", "1")
    assert res.checked == len(list(battery_su2.section_tuples(1)))


def test_cartan_suite_fails_only_where_jacobi_enters(non_jacobi, su2, battery_su2):
    # only [L_e1, L_e2] = L_[e1,e2] needs the Jacobi identity of the bracket
    report = co.cartan_suite(non_jacobi, Battery(non_jacobi))
    [bad] = report.failed_checks()
    assert (bad.name, bad.witness, bad.residual) == (
        "lie-section-lie-section", "pair1/w4: k=0 , e1 , e3", "-1")
    # the tuples after the witness are counted, as on an algebroid that passes
    passing = co.cartan_suite(su2, battery_su2)
    assert [(c.name, c.checked) for c in report.checks] == \
        [(c.name, c.checked) for c in passing.checks]
    assert bad.checked == 500


def test_equality_degree_mismatch(standard2, battery2):
    a = co.section_leaf(standard2, standard2.frame[0])
    b = co.scalar_leaf(standard2, S("x1"))
    assert not co.equal(a, b, battery2)


# -- symmetry condition ---------------------------------------------------------------

def test_symmetry_condition_on_dag_cochains(standard2, battery2, gens):
    for w in gens:
        if w.degree >= 2:
            assert co.check_symmetry_condition(w, battery2).passed


def test_symmetry_condition_alternating_product(standard2, battery2):
    a = co.section_leaf(standard2, standard2.frame[0])
    b = co.section_leaf(standard2, standard2.frame[2])
    w = co.mul(a, b)
    # the component correction is zero here: the swap relation reduces to
    # antisymmetry of the degree-0 component
    for (v1, v2) in list(battery2.section_tuples(2))[:20]:
        plain = co.evaluate(w, 0, (v1, v2))
        swap = co.evaluate(w, 0, (v2, v1))
        corr = co.evaluate(w, 1, (), (standard2.pairing(v1, v2),))
        assert (plain + swap + corr).is_zero()
    assert co.check_symmetry_condition(w, battery2).passed


def test_symmetry_condition_vacuous_for_scalars(standard2, battery2):
    rep = co.check_symmetry_condition(co.scalar_leaf(standard2, S("x1")),
                                      battery2)
    assert rep.passed and rep.checks[0].checked == 0


# -- symbols ------------------------------------------------------------------------

def test_section_leaf_is_order_zero(standard2, battery2):
    w = co.section_leaf(standard2, standard2.frame[0].scale(S("x1*x2")))
    order = co.measure_order_E(w, 0, 0, [S("x1"), S("x2")],
                               (battery2.randoms[0],), ())
    assert order == 0
    assert co.symbol_E(w, 0, [S("x1"), S("x2")], battery2).passed


def test_differential_slot_orders(standard2, battery2):
    w = co.differential(co.section_leaf(standard2, standard2.frame[0]))
    args = (battery2.randoms[0], battery2.randoms[1])
    probes = [S("x1"), S("x2")]
    assert co.measure_order_E(w, 0, 0, probes, args, ()) == 1
    assert co.measure_order_E(w, 0, 1, probes, args, ()) == 0
    assert co.symbol_E(w, 0, probes, battery2).passed
    assert co.symbol_E(w, 1, probes, battery2).passed


def test_symbol_of_double_differential_zero_cochain(standard2, battery2):
    w = co.differential(co.differential(co.scalar_leaf(standard2, S("x1"))))
    # evaluates to zero everywhere; slot symbols vanish at any order
    rep = co.symbol_E(w, 0, [S("x1")], battery2)
    assert rep.passed


def test_function_slots_are_derivations(standard2, battery2, gens):
    probes = [S("x1"), S("x2")]
    for w in gens:
        if w.degree >= 2:
            assert co.symbol_Omega(w, 0, probes, battery2).passed


# -- hash-consed nodes ------------------------------------------------------------

def test_equal_values_built_separately_give_one_node(standard2, gens):
    w = gens[-1]
    assert w.degree >= 2
    assert co.interior_f(S("x1"), w) is co.interior_f(S("x1"), w)
    assert co.interior_f(S("x1"), w) is not co.interior_f(S("x2"), w)
    comps = ["x1", "0", "1", "x2"]
    a = co.section_leaf(standard2, standard2.element_from_strings(comps))
    assert a is co.section_leaf(standard2, standard2.element_from_strings(comps))
    assert co.scalar_leaf(standard2, S("x1*x2")) is co.scalar_leaf(standard2, S("x1*x2"))
    e = standard2.element_from_strings(comps)
    assert co.lie_e(e, w) is co.lie_e(standard2.element_from_strings(comps), w)
    assert co.mul(a, w) is co.mul(a, w)
    assert co.zero_cochain(standard2, 3) is co.interior_e(e, co.zero_cochain(standard2, 4))
    assert co.zero_cochain(standard2, 3) is not co.zero_cochain(standard2, 2)


def test_lie_derivative_parts_are_the_shared_nodes(standard2, gens):
    # L_f keeps its two nodes; L_e is evaluated in one pass and is checked
    # against i_e d + d i_e by test_lie_e_is_cartans_formula
    f = S("x1^2")
    for w in gens:
        node = co.lie_f(f, w)
        if isinstance(node, co._LieF):
            assert node._a is co.interior_f(f, co.differential(w))
            assert node._b is co.differential(co.interior_f(f, w))


def test_nodes_along_different_connections_are_distinct(standard2, battery2):
    trivial = dc.build_standard_connection(standard2)
    christoffel = [[[S("x1") if (i, j, k) == (0, 1, 1) else S("0")
                     for k in range(2)] for j in range(2)] for i in range(2)]
    other = dc.build_standard_connection(standard2, christoffel)
    assert trivial.bundle is other.bundle
    e = standard2.frame[0]
    w = co.section_leaf(standard2, battery2.randoms[0])
    b = dc.tensor(w, trivial.bundle, trivial.bundle.frame[1])
    assert dc.nabla_e(trivial, e, b) is dc.nabla_e(trivial, e, b)
    assert dc.nabla_e(trivial, e, b) is not dc.nabla_e(other, e, b)
    assert dc.covariant_differential(trivial, b) is not \
        dc.covariant_differential(other, b)
    assert dc.lie_f_nabla(trivial, S("x2"), b) is not dc.lie_f_nabla(other, S("x2"), b)
    # the anchor against a Dorfman connection, on the same scalar cochain
    assert co.lie_e(e, w) is not dc.nabla_e(trivial, e, w)
    assert co.differential(w) is not dc.covariant_differential(trivial, w)


def test_along_is_the_connection_argument_and_none_is_the_anchor(standard2, battery2):
    conn = dc.build_standard_connection(standard2)
    e = standard2.frame[0]
    w = co.section_leaf(standard2, battery2.randoms[0])
    x = dc.tensor(w, conn.bundle, conn.bundle.frame[1])
    assert co.differential(w) is co.differential(w, None)
    assert dc.covariant_differential(conn, x) is co.differential(x, conn)
    assert dc.nabla_e(conn, e, x) is co.lie_e(e, x, conn)
    assert dc.lie_f_nabla(conn, S("x2"), x) is co.lie_f(S("x2"), x, conn)


def test_nodes_of_two_algebroids_never_coincide():
    a, b = build_standard(1), build_standard(1)
    f = parse_scalar("x1", 1)
    pairs = [(co.scalar_leaf(a, f), co.scalar_leaf(b, f)),
             (co.zero_cochain(a, 2), co.zero_cochain(b, 2)),
             (co.section_leaf(a, a.frame[0]), co.section_leaf(b, b.frame[0]))]
    pairs.append((co.differential(pairs[0][0]), co.differential(pairs[0][1])))
    pairs.append((co.lie_f(f, co.differential(pairs[2][0])),
                  co.lie_f(f, co.differential(pairs[2][1]))))
    for x, y in pairs:
        assert x is not y
        assert x.alg is a and y.alg is b
    with pytest.raises(ValueError):
        co.mul(pairs[0][0], pairs[2][1])


def test_node_table_does_not_keep_nodes_alive():
    # with the collector off only reference counts free a node, so a
    # reference cycle through the algebroid would keep the entries
    alg = build_standard(1)
    f = parse_scalar("x1^3 + 2", 1)
    gc.disable()
    try:
        w = co.lie_e(alg.frame[1], co.mul(co.section_leaf(alg, alg.frame[0]),
                                          co.differential(co.scalar_leaf(alg, f))))
        table = alg.metadata["cochain_nodes"]
        # the two leaves, their differential and product, and L_e
        assert len(table) == 5
        node = weakref.ref(w)
        del w
        assert node() is None
        assert len(table) == 0
    finally:
        gc.enable()


def test_bundle_leaves_tensors_and_curvature_come_from_the_node_table(standard2,
                                                                      battery2):
    conn = dc.build_standard_connection(standard2)
    b = conn.bundle.frame[1]
    w = co.section_leaf(standard2, battery2.randoms[0])
    assert dc.b_leaf(conn.bundle, b) is dc.b_leaf(conn.bundle, b)
    assert dc.b_leaf(conn.bundle, b) is not dc.b_leaf(conn.bundle, conn.bundle.frame[0])
    assert dc.tensor(w, conn.bundle, b) is dc.tensor(w, conn.bundle, b)
    assert dc.curvature(conn) is dc.curvature(conn)
    other = dc.build_standard_connection(standard2)
    assert dc.curvature(other) is not dc.curvature(conn)


def test_node_table_does_not_keep_curvature_nodes_alive():
    alg = build_standard(1)
    conn = dc.build_standard_connection(alg)
    gc.disable()
    try:
        r = dc.curvature(conn)
        table = alg.metadata["cochain_nodes"]
        assert len(table) == 1
        node = weakref.ref(r)
        del r
        assert node() is None
        assert len(table) == 0
    finally:
        gc.enable()


def test_zero_cochain_has_no_instance_dict(standard2):
    assert not hasattr(co.zero_cochain(standard2, 1), "__dict__")


# -- deterministic generators -----------------------------------------------------------

def test_generator_cochains_cover_all_node_kinds(gens):
    kinds = set()

    def walk(node):
        kinds.add(type(node).__name__)
        for attr in ("child", "left", "right"):
            if hasattr(node, attr):
                walk(getattr(node, attr))

    for w in gens:
        walk(w)
    assert {"_ScalarLeaf", "_SectionLeaf", "_Product", "_Differential",
            "_InteriorE", "_InteriorF", "_LieE", "_LieF"} <= kinds
    assert len(gens) >= 20
    assert all(w.degree <= 4 for w in gens)


def test_random_cochain_determinism(standard2, battery2):
    a = co.random_cochain(standard2, 3, random.Random("seed-1"), battery2)
    b = co.random_cochain(standard2, 3, random.Random("seed-1"), battery2)
    assert a.degree == b.degree == 3
    assert co.equal(a, b, battery2, reduced=True)
