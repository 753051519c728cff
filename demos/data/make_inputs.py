"""Regenerate the sample input files in this directory.

Run from the repository root:  python demos/data/make_inputs.py
"""

import json
import pathlib

from courantcalc.algebroid import (
    algebroid_to_json,
    build_port_hamiltonian,
    build_quadratic_lie_algebra,
    build_standard,
)
from courantcalc.scalar import parse_scalar

HERE = pathlib.Path(__file__).parent


def dump(name, doc):
    path = HERE / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


def su2_constants():
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k, s) in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                         (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        eps[i][j][k] = s
    return eps


def main():
    for n in (1, 2, 3):
        dump(f"standard{n}.json", algebroid_to_json(build_standard(n)))

    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    dump("su2.json", algebroid_to_json(
        build_quadratic_lie_algebra(su2_constants(), eye3)))

    bad = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    dump("su2_bad.json", algebroid_to_json(
        build_quadratic_lie_algebra(su2_constants(), bad)))

    eps4 = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                eps4[i][j][k] = su2_constants()[i][j][k]
    eye4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    dump("su2_plus_r.json", algebroid_to_json(
        build_quadratic_lie_algebra(eps4, eye4)))

    # a negative control: [e1,e2] = e1 + e3, [e2,e3] = e1, [e1,e3] = e2 with
    # the identity pairing breaks the Jacobi identity
    broken = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, value in [(0, 1, [1, 0, 1]), (1, 2, [1, 0, 0]), (0, 2, [0, 1, 0])]:
        broken[i][j] = value
        broken[j][i] = [-x for x in value]
    dump("non_jacobi.json", algebroid_to_json(
        build_quadratic_lie_algebra(broken, eye3)))

    zero4 = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    dump("abelian4.json", algebroid_to_json(
        build_quadratic_lie_algebra(zero4, eye4)))

    dump("port_hamiltonian11.json", algebroid_to_json(
        build_port_hamiltonian(1, 1)))
    # one port over a line with a nonconstant connection coefficient, so the
    # bracket has nonconstant structure functions
    dump("port_hamiltonian11_curved.json", algebroid_to_json(
        build_port_hamiltonian(1, 1, christoffel=[[[parse_scalar("1 + x1^2", 1)]]])))

    # standard(2) paired with itself: pairing_P equals the pairing matrix,
    # alpha is forced by the compatibility equation
    dump("predual_standard2.json", {
        "rank": 4,
        "pairing_P": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                      ["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        "alpha_A": [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
    })

    dump("predual_ph11.json", {
        "rank": 2,
        "pairing_P": [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
        "alpha_A": [["1"], ["0"]],
    })

    # involutive isotropic frames over standard(2)
    dump("dirac_tangent.json", {
        "frame": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    })
    dump("dirac_closed_two_form.json", {
        "frame": [["1", "0", "0", "3"], ["0", "1", "-3", "0"]],
    })
    dump("dirac_bad.json", {
        "frame": [["1", "0", "0", "0"], ["0", "0", "1", "0"]],
    })

    dump("christoffel_zero2.json", {"gamma": {}})
    dump("christoffel_poly2.json", {
        "gamma": {"1,1": ["x1", "0"], "1,2": ["x2^2", "1/2"],
                  "2,1": ["0", "x1*x2"], "2,2": ["1", "x1"]},
    })


if __name__ == "__main__":
    main()
