"""Traced mode: wrap courantcalc's public functions from outside the package.

`Tracer.install(cc)` replaces each public function and method listed in
`LAYERS` by a wrapper, in every courantcalc module namespace that holds it,
so calls from inside the package go through the wrappers too.  Each wrapper
keeps a stack of open frames; a frame's self time is its duration minus the
time of the wrapped calls beneath it.  Calls are aggregated per name (count
and self time).  Spans (start, end, parent) are kept in memory only for jobs,
checks and coarse layer boundaries, since scalar and algebroid calls number
in the millions; they are written out when the run ends.
"""

from __future__ import annotations

import json
import time

# (module, class or None, attribute, metric name, kind)
# kind: "span" records a span, "hot" only aggregates, "gen" wraps a
# generator function and times each step, "scalar" also records result sizes
LAYERS = [
    ("scalar", "Scalar", "__mul__", "scalar.mul", "scalar"),
    ("scalar", "Scalar", "__add__", "scalar.add", "scalar"),
    ("scalar", "Scalar", "__sub__", "scalar.add", "scalar"),
    ("scalar", "Scalar", "__neg__", "scalar.add", "scalar"),
    ("scalar", "Scalar", "__truediv__", "scalar.div", "scalar"),
    ("scalar", "Scalar", "partial", "scalar.partial", "scalar"),
    ("scalar", None, "parse_scalar", "cli.load", "hot"),
    ("linalg", None, "rank", "linalg", "hot"),
    ("linalg", None, "det", "linalg", "hot"),
    ("linalg", None, "inverse", "linalg", "hot"),
    ("linalg", None, "solve", "linalg", "hot"),
    ("algebroid", "CourantAlgebroid", "bracket", "algebroid.bracket", "hot"),
    ("algebroid", "CourantAlgebroid", "pairing", "algebroid.pairing", "hot"),
    ("algebroid", "CourantAlgebroid", "anchor_apply", "algebroid.anchor", "hot"),
    ("algebroid", "CourantAlgebroid", "d_E", "algebroid.d_E", "hot"),
    ("algebroid", None, "verify_axioms", "algebroid.verify", "span"),
    ("algebroid", None, "algebroid_from_json", "cli.load", "span"),
    ("battery", "Battery", "__init__", "battery", "hot"),
    ("battery", "Battery", "section_tuples", "battery", "gen"),
    ("battery", "Battery", "function_tuples", "battery", "gen"),
    ("dorfman", "PredualBundle", "test_elements", "battery", "hot"),
    ("cochain", None, "evaluate", "cochain.eval", "hot"),
    ("cochain", None, "equal_combinations", "cochain.equal", "hot"),
    ("cochain", None, "cartan_suite", "cochain.suite", "span"),
    ("cochain", None, "generator_cochains", "cochain.suite", "span"),
] + [
    ("cochain", None, name, "cochain.suite", "hot")
    for name in ("scalar_leaf", "section_leaf", "zero_cochain", "mul",
                 "differential", "interior_e", "interior_f", "lie_e", "lie_f")
] + [
    ("dorfman", "DorfmanConnection", "apply", "dorfman.apply", "hot"),
    ("dorfman", "PredualBundle", "d_B", "dorfman.d_B", "hot"),
    ("dorfman", None, "curvature_R0", "dorfman.curvature", "hot"),
    ("dorfman", None, "curvature_R1", "dorfman.curvature", "hot"),
] + [
    ("dorfman", None, name, "dorfman.bcochain", "hot")
    for name in ("evaluateB", "equal_b", "b_leaf", "tensor", "product_b",
                 "covariant_differential", "interior_e_b", "interior_f_b",
                 "nabla_e", "lie_f_nabla")
] + [
    ("dorfman", None, name, "dorfman.check", "span")
    for name in ("build_connection", "verify_connection", "difference_check",
                 "induced_linear_connection", "verify_linear_connection",
                 "compatibility_check", "curvature_symbol_checks",
                 "bianchi_check", "bott_connection", "predual_diagnose")
] + [
    ("dorfman", None, name, "cli.load", "span")
    for name in ("predual_from_json", "connection_from_json",
                 "dirac_from_json", "christoffel_from_json")
] + [
    ("cohomology", "PointComplex", name, "cohomology", "hot")
    for name in ("__init__", "differential_matrix", "betti",
                 "euler_characteristic", "table")
] + [
    ("cli", None, "main", "cli.main", "span"),
]

# calls whose argument pair already came up in the same job
REPEATS = ("algebroid.bracket", "dorfman.apply")

# the layer names of LAYERS; each gives the metrics <name>.calls and
# <name>.self_s
LAYER_NAMES = sorted({layer[3] for layer in LAYERS})


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # open frames: [name, start, child time, span id]
        self.spans = []  # (id, parent id, name, start, end, detail)
        self._last_check = self.clock()
        self._seen = {name: set() for name in REPEATS}
        self.reset()

    def reset(self):
        """Start a new round of aggregates."""
        self.calls = {}
        self.self_s = {}
        self.tuples = 0
        self.rational = 0
        self.max_terms = 0
        self.max_bits = 0
        self.repeats = {name: 0 for name in REPEATS}
        for seen in self._seen.values():
            seen.clear()

    # -- frames ------------------------------------------------------------------

    def _push(self, name, span):
        sid = None
        if span:
            sid = len(self.spans)
            parent = next((f[3] for f in reversed(self.stack)
                           if f[3] is not None), None)
            self.spans.append([sid, parent, name, None, None, None])
        self.stack.append([name, self.clock(), 0.0, sid])

    def _pop(self):
        name, start, child, sid = self.stack.pop()
        end = self.clock()
        elapsed = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed
        if sid is not None:
            self.spans[sid][3:5] = [start, end]

    def job(self, name, fn):
        """Run one job inside a span; clears the per-job repeat sets."""
        for seen in self._seen.values():
            seen.clear()
        self._push(f"job:{name}", True)
        self._last_check = self.clock()
        try:
            return fn()
        finally:
            self._pop()

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, name, kind):
        push, pop = self._push, self._pop
        span = kind == "span"
        if kind == "gen":
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    push(name, False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        pop()
                    self.tuples += 1
                    yield item
            return wrapper
        if kind == "scalar":
            stack = self.stack

            def wrapper(*args, **kwargs):
                # scalar calls made by scalar calls (a - b is a + (-b)) are
                # part of the outer call
                if stack and stack[-1][0].startswith("scalar."):
                    return fn(*args, **kwargs)
                push(name, False)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    pop()
                self._record_scalar(result)
                return result
            return wrapper
        seen = self._seen.get(name)

        def wrapper(*args, **kwargs):
            if seen is not None:
                key = (id(args[0]), args[1], args[2])
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            push(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
        return wrapper

    def _record_scalar(self, value):
        num, den = value.num, value.den
        if not value.is_polynomial():
            self.rational += 1
        terms = len(num) + len(den)
        if terms > self.max_terms:
            self.max_terms = terms
        for part in (num, den):
            for c in part.values():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.max_bits:
                    self.max_bits = bits

    def _record_check(self, name, passed, checked):
        now = self.clock()
        parent = next((f[3] for f in reversed(self.stack)
                       if f[3] is not None), None)
        self.spans.append([len(self.spans), parent, f"check:{name}",
                           self._last_check, now,
                           {"passed": bool(passed), "checked": checked}])
        self._last_check = now

    def install(self, cc):
        """Patch the courantcalc modules held as attributes of cc."""
        modules = list(vars(cc).values())
        self._patches = []

        def patch(owner, attr, wrapped):
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

        for module_name, cls_name, attr, name, kind in LAYERS:
            module = getattr(cc, module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, kind)
            patch(owner, attr, wrapped)
            if cls_name is None:
                # names imported with `from .x import name`
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            patch(other, key, wrapped)
        report_add = cc.report.Report.add
        tracer = self

        def add(report, name, passed, checked, *rest):
            tracer._record_check(name, passed, checked)
            return report_add(report, name, passed, checked, *rest)

        patch(cc.report.Report, "add", add)

    def uninstall(self):
        """Put back what install replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------------------

    def metrics(self):
        """Per-layer values of the round since the last reset, by name."""
        out = {"scalar.rational_results": self.rational,
               "scalar.max_terms": self.max_terms,
               "scalar.max_coeff_bits": self.max_bits,
               "battery.tuples": self.tuples}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in REPEATS:
            n = self.calls.get(name, 0)
            out[f"{name}.repeat_ratio"] = self.repeats[name] / n if n else 0.0
        # the DAG is evaluated both in evaluate and in equal_combinations
        out["cochain.eval.self_s"] += out["cochain.equal.self_s"]
        return out

    def write(self, path, summary):
        spans = [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                  "end": s[4], **({"detail": s[5]} if s[5] else {})}
                 for s in self.spans]
        path.write_text(json.dumps({"summary": summary, "spans": spans}) + "\n")
