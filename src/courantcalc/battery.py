"""Deterministic batteries of test sections and functions.

Identity checks in this package are exact but battery-relative: an identity
whose sides are differential operators of bounded order with rational
coefficients is checked on (a) all tuples of frame sections, (b) per-slot
probes where one argument is a frame section scaled by a monomial while the
other slots cycle through the frame, and (c) seeded random polynomial
sections taken jointly in all slots.  A fixed (degree, extras, seed) triple
fully determines every tuple, so runs are reproducible.

A battery builds each section stream, one per (arity, reduced), once and
keeps it as tuples of canonical indices into its sections: the index of a
section is the first index of its value, so the stream is deduplicated by
value on plain int tuples.  An evaluation context maps such a stream to
tuples of its own ids once (``cochain.EvalContext.component_tuples``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, product

from .scalar import Scalar, monomials_up_to

__all__ = ["Battery"]

FRAME_CAP = 4096  # the most full frame tuples of one arity in a section stream
JOINT_CAP = 256  # the most joint tuples of the core functions in a stream


class Battery:
    """Test data attached to one algebroid.

    degree  -- monomial degree cap D for scaled frame sections; battery
               functions are all monomials of degree <= D + 1.
    extras  -- number of seeded random polynomial sections and functions.
    seed    -- seed for the random extras.
    """

    def __init__(self, alg, degree=2, extras=3, seed=0):
        self.alg = alg
        self.degree = degree
        self.extras = extras
        self.seed = seed
        n = alg.n
        rng = random.Random(f"battery:{seed}:{n}:{alg.rank}:{degree}")
        parts = probes(alg, degree, extras, rng)
        self._labels = {}
        for part in parts:
            for label, s in part:
                self._labels.setdefault(s, label)
        self.frame, self.scaled, self.randoms = ([s for _, s in part] for part in parts)
        self.sections = self.frame + self.scaled + self.randoms
        # frame, scaled and randoms as canonical indices into sections
        first = {}
        canonical = [first.setdefault(s, i) for i, s in enumerate(self.sections)]
        a, b = len(self.frame), len(self.frame) + len(self.scaled)
        self._parts = canonical[:a], canonical[a:b], canonical[b:]
        self._streams = {}

        self.functions = [Scalar.monomial(n, mono)
                          for mono in monomials_up_to(n, degree + 1)]
        for t in range(extras):
            self.functions.append(_random_poly(rng, n, min(2, max(degree, 1))))
        # small core used for multi-slot function tuples
        core = [Scalar.variable(n, i + 1) for i in range(min(n, 2))]
        if n >= 1:
            core.append(Scalar.variable(n, 1) ** 2)
        if n >= 2:
            core.append(Scalar.variable(n, 1) * Scalar.variable(n, 2))
        if not core:
            core = [Scalar.const(0, 1), Scalar.const(0, Fraction(1, 2))]
        self.core_functions = core

    # -- labels ---------------------------------------------------------------

    def label(self, obj):
        return self._labels.get(obj, str(obj))

    def describe(self, objs):
        return tuple(self.label(o) for o in objs)

    # -- tuple streams ----------------------------------------------------------

    def section_tuples(self, arity, reduced=False):
        """Deterministic stream of section argument tuples, deduplicated:
        the sections of :meth:`index_tuples`."""
        sections = self.sections
        for t in self.index_tuples(arity, reduced):
            yield tuple(map(sections.__getitem__, t))

    def index_tuples(self, arity, reduced=False):
        """The section stream of this arity as a tuple of index tuples into
        ``self.sections``, built once.  An index is canonical, the first
        index of its section's value, so equal section tuples are one index
        tuple and are kept at their first occurrence."""
        key = (arity, reduced)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = tuple(
                dict.fromkeys(self._candidates(arity, reduced)))
        return stream

    def _candidates(self, arity, reduced):
        """The stream of :meth:`index_tuples` with its repeats."""
        if arity == 0:
            yield ()
            return
        frame, scaled, randoms = self._parts
        r = len(frame)
        if not reduced and r**arity <= FRAME_CAP:
            yield from product(frame, repeat=arity)
        else:
            c = max(2, int(FRAME_CAP ** (1.0 / arity))) if not reduced else 2
            yield from product(frame[: min(c, r)], repeat=arity)
            for j in range(r):
                yield tuple(frame[(j + k) % r] for k in range(arity))
                yield tuple(frame[(j - k) % r] for k in range(arity))
        if reduced:
            scaled = scaled[::2]
        for slot in range(arity):
            for idx, s in enumerate(scaled):
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

    def function_tuples(self, arity):
        """Deterministic stream of function argument tuples, deduplicated:
        the joint tuples of the core functions while they are few, then
        cyclic runs through all battery functions."""
        if arity == 0:
            yield ()
            return
        core, functions = self.core_functions, self.functions
        joint = product(core, repeat=arity) if len(core) ** arity <= JOINT_CAP else ()
        m = len(functions)
        cyclic = (tuple(functions[(shift + k) % m] for k in range(arity))
                  for shift in range(m))
        yield from dict.fromkeys(chain(joint, cyclic))


def probes(module, degree, extras, rng):
    """The probe elements of a framed module, as three lists of (label,
    element): its frame, the frame scaled by every nonconstant monomial of
    degree <= degree, and extras random polynomial elements drawn from rng."""
    n = module.n
    frame = [(f"e{i + 1}", e) for i, e in enumerate(module.frame)]
    scaled = []
    for mono in monomials_up_to(n, degree):
        if any(mono):
            m = Scalar.monomial(n, mono)
            scaled += [(f"{m}*{label}", e.scale(m)) for label, e in frame]
    randoms = [(f"rnd{t + 1}", module.element(
        [_random_poly(rng, n, min(2, max(degree, 1))) for _ in range(module.rank)]))
        for t in range(extras)]
    return frame, scaled, randoms


def _random_poly(rng, n, degree):
    terms = {}
    for mono in monomials_up_to(n, degree):
        p = rng.randint(-3, 3)
        if p:
            terms[mono] = Fraction(p, rng.choice((1, 1, 2)))
    return Scalar.from_terms(n, terms)
