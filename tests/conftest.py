import random

import pytest

from toricvanish.corpus import (
    curated_instances,
    mutate,
    product_fan,
    projective_space,
    seed_fans,
)
from toricvanish.fans import is_simplicial, make_fan


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


def reference_fans():
    """The fans above, the curated and seed fans, mutations of the simplicial
    seeds and of P1^4 and P^4, and four valid fans that are not complete."""
    out = [p2_fan(), p1xp1_fan(), f1_fan(), p112_fan(), p3_fan(), cube_fan(),
           flip_side_a(), flip_side_b()]
    out += [inst.fan for _, inst in curated_instances()]
    seeds = [fan for rank in (2, 3) for _, fan in seed_fans(rank)]
    p1 = projective_space(1)
    rank4 = [product_fan(product_fan(p1, p1), product_fan(p1, p1)),
             projective_space(4)]
    rng = random.Random(3)
    out += seeds + rank4
    out += [mutate(rng, fan, 12, rng.randint(1, 3)) for fan in seeds + rank4
             if is_simplicial(fan)]
    # convex support, not complete: the first quadrant
    out.append(make_fan(2, [(1, 0), (0, 1)], [(0, 1)]))
    # support not convex: two cones spanning 225 degrees
    out.append(make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2)]))
    # simplicial, with a maximal cone of lower dimension: a quadrant and a ray
    out.append(make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]))
    # every maximal cone lower-dimensional: the fan of P^2 in a plane of R^3
    out.append(make_fan(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                        [(0, 1), (0, 2), (1, 2)]))
    return out


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
