import json
import pathlib

import pytest

from courantcalc.algebroid import (
    algebroid_from_json,
    build_port_hamiltonian,
    build_quadratic_lie_algebra,
    build_standard,
)
from courantcalc.battery import Battery

DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"


def su2_structure_constants():
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k, s) in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                         (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        eps[i][j][k] = s
    return eps


@pytest.fixture(scope="session")
def standard1():
    return build_standard(1)


@pytest.fixture(scope="session")
def standard2():
    return build_standard(2)


@pytest.fixture(scope="session")
def su2():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return build_quadratic_lie_algebra(su2_structure_constants(), eye)


@pytest.fixture(scope="session")
def su2_bad_form():
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    return build_quadratic_lie_algebra(su2_structure_constants(), g)


@pytest.fixture(scope="session")
def non_jacobi():
    """A point algebroid whose bracket breaks Jacobi: identity pairing,
    [e1,e2] = e1 + e3, [e2,e3] = e1, [e1,e3] = e2 (demos/data/non_jacobi.json)."""
    return algebroid_from_json(json.loads((DATA / "non_jacobi.json").read_text()))


@pytest.fixture(scope="session")
def cotangent_su2():
    """T*su(2): su(2) acting on its dual by the coadjoint action,
    [e_i, eps^j] = -sum_k c_ik^j eps^k, [eps^i, eps^j] = 0, with the pairing
    <e_i, eps^j> = delta_ij.  Frame order: e1..e3, eps^1..eps^3."""
    eps = su2_structure_constants()
    c = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i][j][k] = eps[i][j][k]
                c[i][3 + j][3 + k] = -eps[i][k][j]
                c[3 + j][i][3 + k] = eps[i][k][j]
    g = [[1 if abs(i - j) == 3 else 0 for j in range(6)] for i in range(6)]
    return build_quadratic_lie_algebra(c, g)


@pytest.fixture(scope="session")
def port_hamiltonian11():
    return build_port_hamiltonian(1, 1)


@pytest.fixture(scope="session")
def battery1(standard1):
    return Battery(standard1)


@pytest.fixture(scope="session")
def battery2(standard2):
    return Battery(standard2)


@pytest.fixture(scope="session")
def battery_su2(su2):
    return Battery(su2)
