"""Dorfman connections: construction, curvature, Bianchi identity.

A predual bundle pairs against the algebroid and carries a derivation map
d_B.  Connections extend frame coefficients by two Leibniz axioms; the third
axiom (equivariance on derivation images) is solved for exactly during
construction.  The curvature is a pair of operators: a three-term commutator
part and a part measuring derivatives along dual differentials - for the
connection induced by a flat tangent connection the latter is the Hessian.
"""

from courantcalc import Battery, Scalar, build_standard, random_polynomial
from courantcalc.dorfman import (
    affine_combine,
    bianchi_check,
    build_connection,
    build_standard_connection,
    curvature_R0,
    curvature_R1,
    difference_check,
    verify_connection,
)
from courantcalc.dorfman import _self_predual

alg = build_standard(2)
battery = Battery(alg)
x1, x2 = Scalar.variable(2, 1), Scalar.variable(2, 2)

print("== constructing a connection on the self-paired bundle ==")
bundle = _self_predual(alg)
conn, report = build_connection(bundle, battery)
print(report.render())

print()
print("== the connection induced by a tangent connection with random ==")
print("== polynomial coefficients satisfies the same axioms ==")
christoffel = [[[random_polynomial(2, 2, 100 + 9 * i + 3 * j + k)
                 for k in range(2)] for j in range(2)] for i in range(2)]
poly_conn = build_standard_connection(alg, christoffel)
print(verify_connection(poly_conn, battery).render())

print()
print("== the space of connections is affine ==")
comb = affine_combine(conn, poly_conn, x1)
print("combination with coordinate weight verifies:",
      verify_connection(comb, battery).passed)
print(difference_check(conn, poly_conn, battery).render())

print()
print("== curvature: the function part of the flat tangent lift is the "
      "Hessian ==")
f = x1 * x1 * x2
b = bundle.element([x2, Scalar.zero(2), Scalar.one(2), Scalar.zero(2)])
print(f"R1({f}) applied to {b}:")
print(f"  {curvature_R1(conn, f, b)}")
hess = [[f.partial(i + 1).partial(j + 1) for j in range(2)] for i in range(2)]
print(f"  Hessian of f: {[[str(h) for h in row] for row in hess]}")

print()
print("== curvature kills derivation images ==")
db = bundle.d_B(x1 * x2)
print("R0 on d_B image:", curvature_R0(poly_conn, battery.randoms[0],
                                       battery.randoms[1], db))
print("R1 on d_B image:", curvature_R1(poly_conn, f, db))

print()
print("== Bianchi identity, exactly (both displayed components) ==")
print(bianchi_check(poly_conn, battery).render())
