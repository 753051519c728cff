"""Check reports shared by the verification suites and the CLI.

Every verdict comes from one runner, :func:`verdict`.  A check gives it a
stream of tuples and a function returning the two sides (lhs, rhs) of its
identity at a tuple; an identity X = 0 has X and the zero of its module as
sides.  Values are canonical (equal scalars and sections have equal data),
so the runner passes a tuple when lhs == rhs, with no arithmetic.  At the
first tuple whose sides differ, the witness, it forms the residual
lhs - rhs, and it counts the tuples after it without evaluating them.
"""

from __future__ import annotations

__all__ = ["Check", "Report", "PreconditionError", "run_check", "verdict"]


class PreconditionError(ValueError):
    """A semantic precondition failed (bad shapes, gates, inconsistent data)."""


class Check:
    """Outcome of one exactly-checked identity."""

    __slots__ = ("name", "passed", "checked", "witness", "residual")

    def __init__(self, name, passed, checked, witness=None, residual=None):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.witness = witness
        self.residual = residual

    def to_dict(self):
        out = {"name": self.name, "status": "pass" if self.passed else "fail",
               "checked": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.residual is not None:
            out["residual"] = self.residual
        return out

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL at {self.witness} (residual {self.residual})"
        return f"[{state}] {self.name} ({self.checked} tuples)"


class Report:
    """Ordered collection of checks; passes iff every check passes."""

    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, name, passed, checked, witness=None, residual=None):
        self.checks.append(Check(name, passed, checked, witness, residual))

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __bool__(self):
        return self.passed

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed_checks(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {"title": self.title, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}

    def render(self):
        lines = [self.title] if self.title else []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}  ({c.checked} tuples)"
            if not c.passed:
                line += f"  witness: {c.witness}  residual: {c.residual}"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        return self.render()


def verdict(tuples, sides_fn, witness_fn):
    """(passed, checked, witness, residual) of: the sides (lhs, rhs) =
    sides_fn(*t) are equal for every t in tuples.  The first t where they
    differ is the witness, witness_fn(*t), reported with str(lhs - rhs);
    every tuple is counted.  sides_fn must return a 2-tuple (TypeError)."""
    tuples = iter(tuples)
    checked = 0
    for t in tuples:
        checked += 1
        sides = sides_fn(*t)
        if type(sides) is not tuple or len(sides) != 2:
            raise TypeError("a check must return the 2-tuple of its sides "
                            f"(lhs, rhs), not a {type(sides).__name__}")
        lhs, rhs = sides
        if lhs != rhs:
            witness = witness_fn(*t)
            return (False, checked + sum(1 for _ in tuples), witness,
                    str(lhs - rhs))
    return True, checked, None, None


def run_check(report, name, tuples, sides_fn, witness_fn):
    """Add the :func:`verdict` of sides_fn on tuples as the check name."""
    report.add(name, *verdict(tuples, sides_fn, witness_fn))
