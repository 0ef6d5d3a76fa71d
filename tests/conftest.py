import pytest

from conic import from_normals, from_primal_rays


def make_orthant(d):
    return from_normals(
        d, [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)])


@pytest.fixture(scope="session")
def quadric():
    # dimension-two simplicial cone with index 2; two conic classes
    return from_normals(2, [(1, 1), (-1, 1)])


@pytest.fixture(scope="session")
def square():
    # cone over a unit square; the one non-simplicial test cone
    return from_normals(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])


@pytest.fixture(scope="session")
def cyclic():
    # cyclic quotient singularity, order 3 with weight 2
    return from_normals(2, [(0, 1), (3, -2)])


@pytest.fixture(scope="session")
def orthant2():
    return make_orthant(2)


@pytest.fixture(scope="session")
def orthant3():
    return make_orthant(3)


@pytest.fixture(scope="session")
def pentagon():
    # cone over a reflexive pentagon; 19 conic classes
    return from_primal_rays(
        3, [(-2, -1, 1), (-1, -1, 1), (1, 0, 1), (1, 1, 1), (-1, 0, 1)])


@pytest.fixture(scope="session")
def hexagon():
    # cone over the reflexive hexagon; 23 conic classes
    return from_primal_rays(
        3, [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1),
            (1, -1, 1)])


@pytest.fixture(scope="session")
def octahedron():
    # rank-4 cone over the octahedron; 200 conic classes
    return from_primal_rays(
        4, [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1),
            (0, 0, 1, 1), (0, 0, -1, 1)])
