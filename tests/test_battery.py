"""The battery's tuple streams against independent copies of the generators
they replaced, which built tuples of sections or functions and deduplicated
them through a set of the tuples seen."""

from itertools import product

import pytest

from courantcalc import cochain as co
from courantcalc.algebroid import Section
from courantcalc.battery import FRAME_CAP, JOINT_CAP, Battery


def reference_section_tuples(battery, arity, reduced=False):
    """Section tuples in stream order, each the first time its value comes."""
    if arity == 0:
        yield ()
        return
    seen = set()
    frame, scaled, randoms = battery.frame, battery.scaled, battery.randoms

    def candidates():
        r = len(frame)
        if not reduced and r**arity <= FRAME_CAP:
            yield from product(frame, repeat=arity)
        else:
            c = max(2, int(FRAME_CAP ** (1.0 / arity))) if not reduced else 2
            yield from product(frame[: min(c, r)], repeat=arity)
            for j in range(r):
                yield tuple(frame[(j + k) % r] for k in range(arity))
                yield tuple(frame[(j - k) % r] for k in range(arity))
        for slot in range(arity):
            for idx, s in enumerate(scaled if not reduced else scaled[::2]):
                base = idx % r
                fwd = [frame[(base + 1 + k) % r] for k in range(arity)]
                rev = [frame[(base - 1 - k) % r] for k in range(arity)]
                for fill in (fwd, rev):
                    yield tuple(fill[:slot] + [s] + fill[slot + 1 : arity])
        m = len(randoms)
        for shift in range(m):
            yield tuple(randoms[(shift + k) % m] for k in range(arity))
            yield tuple([randoms[shift]]
                        + [frame[(shift + 1 + k) % r] for k in range(arity - 1)])

    for t in candidates():
        if t not in seen:
            seen.add(t)
            yield t


def reference_function_tuples(battery, arity):
    if arity == 0:
        yield ()
        return
    seen = set()
    core, functions = battery.core_functions, battery.functions
    candidates = []
    if len(core) ** arity <= JOINT_CAP:
        candidates += product(core, repeat=arity)
    m = len(functions)
    candidates += [tuple(functions[(shift + k) % m] for k in range(arity))
                   for shift in range(m)]
    for t in candidates:
        if t not in seen:
            seen.add(t)
            yield t


# su2_bad_form is su2_bad.json; at battery seed 3 a random section of the
# 2/3 battery equals a frame section
CASES = [(name, seed, degree, extras)
         for name, seed in (("standard1", 0), ("standard2", 0), ("su2", 0),
                            ("su2_bad_form", 0), ("su2_bad_form", 3))
         for degree, extras in ((2, 3), (1, 1))]


@pytest.mark.parametrize("name, seed, degree, extras", CASES)
def test_streams_match_the_reference_generators(name, seed, degree, extras,
                                                request):
    alg = request.getfixturevalue(name)
    battery = Battery(alg, degree=degree, extras=extras, seed=seed)
    for arity in range(7):
        for reduced in (False, True):
            want = list(reference_section_tuples(battery, arity, reduced))
            got = list(battery.section_tuples(arity, reduced))
            assert len(got) == len(want)
            assert all(a == b for a, b in zip(got, want)), (arity, reduced)
            assert [tuple(battery.sections[i] for i in t)
                    for t in battery.index_tuples(arity, reduced)] == want
    for arity in range(5):
        assert list(battery.function_tuples(arity)) == \
            list(reference_function_tuples(battery, arity))


def test_a_repeated_section_value_is_one_canonical_index(su2_bad_form):
    battery = Battery(su2_bad_form, seed=3)
    assert any(s in battery.frame for s in battery.randoms)
    used = {i for t in battery.index_tuples(1) for i in t}
    first = {}
    for i, s in enumerate(battery.sections):
        first.setdefault(s, i)
    assert used <= set(first.values())


def test_a_second_run_on_one_context_hashes_no_section(standard1, monkeypatch):
    battery = Battery(standard1, degree=1, extras=2, seed=7)
    w = co.generator_cochains(standard1, battery)[12]
    ctx = co.EvalContext()
    first = co.vanishes(co.differential(co.differential(w)), battery, ctx=ctx)
    assert first

    calls = []
    plain = Section.__hash__

    def counting_hash(self):
        calls.append(1)
        return plain(self)

    monkeypatch.setattr(Section, "__hash__", counting_hash)
    second = co.vanishes(co.differential(co.differential(w)), battery, ctx=ctx)
    assert (second.equal, second.checked) == (first.equal, first.checked)
    assert len(calls) == 0
