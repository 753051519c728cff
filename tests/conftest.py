import pytest

from courantcalc.algebroid import (
    build_port_hamiltonian,
    build_quadratic_lie_algebra,
    build_standard,
)
from courantcalc.battery import Battery


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
    [e1,e2] = e1 + e3, [e2,e3] = e1, [e1,e3] = e2."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, value in [(0, 1, [1, 0, 1]), (1, 2, [1, 0, 0]), (0, 2, [0, 1, 0])]:
        c[i][j] = value
        c[j][i] = [-x for x in value]
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return build_quadratic_lie_algebra(c, eye)


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
