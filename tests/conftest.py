import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest

from toricvanish import cones
from toricvanish.corpus import (
    curated_instances,
    gen_corpus,
    mutate,
    product_fan,
    projective_space,
    seed_fans,
)
from toricvanish.divisors import NotQCartier, cartier_data
from toricvanish.fans import cone_contains, is_simplicial, make_fan
from toricvanish.linalg import dot, identity_matrix, smith_normal_form
from toricvanish.mmp import run_mmp
from toricvanish.mori import wall_relation, walls
from toricvanish.verify import _q_factorial_model


def mat_mul(A, B):
    n = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)]
            for i in range(len(A))]


def reference_smith_normal_form(A):
    """`linalg.smith_normal_form` as it was when it also built U: returns
    (S, U, V) with U*A*V = S, by the same row and column operations, so its
    S and V are the reference for the package's (S, V)."""
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in S:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        pi = pj = -1
        pv = 0
        for i in range(t, m):
            for j in range(t, n):
                a = abs(S[i][j])
                if a and (pv == 0 or a < pv):
                    pi, pj, pv = i, j, a
        if pv == 0:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        if S[t][t] < 0:
            negate_row(t)
        while True:
            restart = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        if S[t][t] < 0:
                            negate_row(t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        if S[t][t] < 0:
                            negate_row(t)
                        restart = True
                        break
            if restart:
                continue
            merged = False
            for i in range(t + 1, m):
                if any(S[i][j] % S[t][t] for j in range(t + 1, n)):
                    add_row(t, i, 1)
                    merged = True
                    break
            if not merged:
                break
        t += 1
    return S, U, V


def int_kernel(A):
    """Basis of the saturated integer kernel {x : A x = 0}, as a list of
    vectors, read off the column transformation V of the Smith normal form:
    the reference that the wall relations of `mori` are checked against."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [tuple(row) for row in identity_matrix(n)]
    S, V = smith_normal_form(A)
    r = len([i for i in range(min(m, n)) if S[i][i]])
    cols = [list(col) for col in zip(*V)]
    return [tuple(cols[j]) for j in range(r, n)]


# rationals that int() would read: with spaces, "_" digit groups, a "+"
# sign or non-ASCII digits; and two that split into the wrong parts
NON_CANONICAL_RATIONALS = [" 1", "1 ", "1_0", "+2", "1/ 2", "\u0663", "1/2/3", "", "1/"]


def make_row(coeffs, const, strict=False):
    """A row <coeffs, x> >= const (or >) in coprime integers, from rational
    data: the reference `divisors.section_rows` is checked against."""
    fr = [Fraction(c) for c in coeffs] + [Fraction(const)]
    den = lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1], bool(strict)


def ray_divisor(fan, ray):
    """The prime divisor attached to one ray."""
    idx = fan.ray_index(ray)
    return tuple(Fraction(1) if i == idx else Fraction(0) for i in range(len(fan.rays)))


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


@cache
def verify_instances():
    """The curated instances and gen_corpus(42, 2) and gen_corpus(42, 3): the
    24 instances `toricvanish suite` verifies at seed 42."""
    insts = [inst for _, inst in curated_instances()]
    return tuple(insts + [inst for rank in (2, 3) for inst in gen_corpus(42, rank)[0]])


@cache
def mmp_runs():
    """The MMP run of each of `verify_instances`, on the small
    Q-factorialization the verifier runs it on. Instances whose D is not
    Q-Cartier run no MMP and are left out."""
    out = []
    for inst in verify_instances():
        if isinstance(cartier_data(inst.fan, inst.d_coeffs), NotQCartier):
            continue
        fan, b, d, _ = _q_factorial_model(inst)
        out.append(run_mmp(fan, d, b))
    return tuple(out)


@cache
def mmp_models():
    """(fan, divisor) for every model of every run of `mmp_runs`."""
    return tuple(pair for run in mmp_runs() for pair in zip(run.models, run.divisors))


def reference_extremal_rays(fan):
    """The extremal rays of the cone of all wall classes, as
    `mori.extremal_rays` found them before it asked only about D-negative
    classes: (primitive direction, [walls on it]), ordered by each ray's
    smallest representative wall, every class asked whether it is extreme
    in the relations restricted to the rays off one maximal cone."""
    ws = walls(fan)
    if not ws:
        return []
    directions = {}
    for w in ws:
        directions.setdefault(wall_relation(fan, w)[0], []).append(w)
    ordered = sorted(directions)
    cone = fan.max_cones[ws[0].cone_a]
    off = [i for i in range(len(fan.rays)) if i not in cone]
    keep = cones.extreme_ray_indices(tuple(tuple(d[i] for i in off) for d in ordered),
                                     len(off))
    out = [(ordered[i], directions[ordered[i]]) for i in keep]
    out.sort(key=lambda item: item[1][0].rays)
    return out


def reference_support_value(fan, covectors, v):
    """phi_D(v) = -<m_sigma, v> for the first maximal cone sigma that holds
    v, off the rational covectors of the Cartier data."""
    for cone, m in zip(fan.max_cones, covectors):
        if cone_contains(fan, cone, v):
            return -Fraction(dot(m, v))
    raise ValueError("point outside the support")


def reference_discrepancy(fan, b_coeffs, v):
    """`divisors.discrepancy` as it read -1 + phi(v) off the Cartier data of
    -(K+B) on every cone, and -b_rho at a ray."""
    v = tuple(v)
    if v in fan.rays:
        return -b_coeffs[fan.ray_index(v)]
    cd = cartier_data(fan, tuple(Fraction(1) - b for b in b_coeffs))
    if isinstance(cd, NotQCartier):
        raise ValueError("K+B is not Q-Cartier")
    return Fraction(-1) + reference_support_value(fan, cd.covectors, v)


def reference_curve_class(fan, wall):
    """The wall curve's class as a pairing functional, in Fractions, as
    `mori.curve_class` kept it beside the integer wall relation: c_rho =
    b_rho / (b_u b_v), so that D.C = sum_rho c_rho a_rho. The relation b is
    solved here afresh, with b_u > 0 for the off-wall ray u of cone_a."""
    u, v = (next(i for i in fan.max_cones[ci] if i not in wall.rays)
            for ci in (wall.cone_a, wall.cone_b))
    support = list(wall.rays) + [u, v]
    (rel,) = int_kernel([[fan.rays[i][k] for i in support] for k in range(fan.rank)])
    if rel[-2] < 0:
        rel = [-x for x in rel]
    pairing = [Fraction(0)] * len(fan.rays)
    for i, bi in zip(support, rel):
        pairing[i] = Fraction(bi, rel[-2] * rel[-1])
    return tuple(pairing)


def reference_pair(pairing, coeffs):
    """D.C for a pairing functional C, as `mori.CurveClass.pair` computed it."""
    return sum(c * Fraction(a) for c, a in zip(pairing, coeffs))


def reference_primitive_direction(pairing):
    """The primitive integer direction of a Fraction pairing, as
    `mori._primitive_direction` computed it."""
    den = lcm(*(x.denominator for x in pairing))
    ints = [int(x * den) for x in pairing]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


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
