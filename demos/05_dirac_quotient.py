"""Quotient connections of Dirac structures.

An involutive Lagrangian subbundle acts on its quotient by bracketing and
projecting; the result is a flat connection.  Non-Lagrangian input is
rejected with an exact witness.
"""

from courantcalc import build_standard
from courantcalc.dorfman import bott_connection
from courantcalc.report import PreconditionError

alg = build_standard(2)

print("== the tangent distribution inside the standard structure ==")
tangent = [alg.frame[0], alg.frame[1]]
bundle, conn, report = bott_connection(alg, tangent)
print(report.render())

print()
print("== the graph of a constant closed two-form is also Dirac ==")
rows = [["1", "0", "0", "3"], ["0", "1", "-3", "0"]]
graph = [alg.element_from_strings(r) for r in rows]
bundle, conn, report = bott_connection(alg, graph)
print(report.render())

print()
print("== a non-Lagrangian frame is rejected with a witness ==")
try:
    bott_connection(alg, [alg.frame[0], alg.frame[2]])
except PreconditionError as exc:
    print(f"rejected: {exc}")
