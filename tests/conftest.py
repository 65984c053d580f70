import pytest

from toricvanish.fans import make_fan


def mat_mul(A, B):
    n = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)]
            for i in range(len(A))]


def p2_fan():
    return make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])


def p1xp1_fan():
    return make_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                    [(0, 2), (0, 3), (1, 2), (1, 3)])


def f1_fan():
    return make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, -1)],
                    [(0, 2), (1, 2), (1, 3), (0, 3)])


def p112_fan():
    return make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])


def p3_fan():
    return make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def flip_side_a(w4=(1, 1, -2)):
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), w4]
    return make_fan(3, rays, [(0, 1, 2), (0, 1, 3)])


def flip_side_b(w4=(1, 1, -2)):
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), w4]
    return make_fan(3, rays, [(0, 2, 3), (1, 2, 3)])


def cube_fan():
    rays = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    faces = []
    for axis in range(3):
        for sign in (1, -1):
            faces.append(tuple(i for i, r in enumerate(rays) if r[axis] == sign))
    return make_fan(3, rays, faces)


@pytest.fixture
def p2():
    return p2_fan()


@pytest.fixture
def p1xp1():
    return p1xp1_fan()


@pytest.fixture
def f1():
    return f1_fan()


@pytest.fixture
def p112():
    return p112_fan()


@pytest.fixture
def p3():
    return p3_fan()


@pytest.fixture
def cube():
    return cube_fan()
