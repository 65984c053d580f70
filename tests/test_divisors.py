import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cube_fan,
    f1_fan,
    flip_side_a,
    flip_side_b,
    make_row,
    mmp_models,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    p112_fan,
    ray_divisor,
    reference_discrepancy,
    reference_extremal_rays,
    reference_fans,
    reference_support_value,
)
from toricvanish import divisors
from toricvanish.corpus import curated_instances, seed_fans
from toricvanish.divisors import (
    INFINITE,
    ZERO,
    CartierData,
    NotNef,
    NotQCartier,
    Positivity,
    SemiampleWitness,
    add,
    canonical,
    cartier_data,
    coeffs_of,
    cone_coordinates,
    discrepancy,
    h0_dim,
    klt_check,
    polytope_dim,
    positivity,
    principal,
    pullback,
    pushforward,
    q_cartier_index,
    round_divisor,
    scale,
    section_rows,
    semiample_witness,
)
from toricvanish.fans import (
    cone_contains,
    full_span,
    identity_map,
    is_complete,
    is_simplicial,
    make_fan,
    properties,
    q_factorialize,
    star_subdivide,
    support_is_convex,
    validate,
)
from toricvanish.linalg import (
    adapted_basis,
    dot,
    int_rank,
    primitive,
    solve_rational,
)
from toricvanish.mmp import contract, flip, flip_diagram
from toricvanish.mori import intersect, wall_relation, walls
from toricvanish.regions import IneqSystem, is_feasible


def test_canonical(p2, f1, p112):
    for fan in (p2, f1, p112):
        assert canonical(fan) == tuple([Fraction(-1)] * len(fan.rays))


def test_cartier_data_p2_hyperplane(p2):
    H = ray_divisor(p2, (1, 0))
    cd = cartier_data(p2, H)
    assert isinstance(cd, CartierData)
    ci = p2.max_cones.index(tuple(sorted((p2.ray_index((1, 0)), p2.ray_index((0, 1))))))
    m = cd.covectors[ci]
    assert m == (-1, 0)
    # defining identities on every cone
    for cone, m in zip(p2.max_cones, cd.covectors):
        for i in cone:
            assert Fraction(dot(m, p2.rays[i])) == -H[i]


def test_cartier_data_zero(p2):
    cd = cartier_data(p2, coeffs_of(p2, {}))
    assert all(m == (0, 0) for m in cd.covectors)


def test_cartier_data_cube_not_q_cartier(cube):
    D = ray_divisor(cube, (1, 1, 1))
    cd = cartier_data(cube, D)
    assert isinstance(cd, NotQCartier)
    # K is Cartier there, though
    assert isinstance(cartier_data(cube, canonical(cube)), CartierData)


def test_cartier_data_continuity_across_walls(p2, f1, p112):
    rng = random.Random(5)
    for fan in (p2, f1, p112):
        for _ in range(5):
            coeffs = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in fan.rays)
            cd = cartier_data(fan, coeffs)
            if isinstance(cd, NotQCartier):
                continue
            for ai in range(len(fan.max_cones)):
                for bi in range(ai + 1, len(fan.max_cones)):
                    shared = set(fan.max_cones[ai]) & set(fan.max_cones[bi])
                    for i in shared:
                        u = fan.rays[i]
                        assert dot(cd.covectors[ai], u) == dot(cd.covectors[bi], u)


def test_positivity_p2(p2):
    H = ray_divisor(p2, (1, 0))
    pos = positivity(p2, H)
    assert pos.nef and pos.ample and pos.big
    K = canonical(p2)
    posk = positivity(p2, K)
    assert not posk.nef and not posk.ample and not posk.big
    pos0 = positivity(p2, coeffs_of(p2, {}))
    assert pos0.nef and not pos0.ample and not pos0.big


def test_positivity_f1_exceptional(f1):
    E = ray_divisor(f1, (1, 1))
    pos = positivity(f1, E)
    assert not pos.nef


def test_principal_divisors_properties(p2, f1, p112):
    for fan in (p2, f1, p112):
        for m in ((1, 0), (0, 1), (2, -3)):
            div = principal(fan, m)
            cd = cartier_data(fan, div)
            assert isinstance(cd, CartierData)
            # <m_sigma, u> = -<m, u> on every cone, so the covector is -m
            assert all(cov == tuple(Fraction(-x) for x in m) for cov in cd.covectors)
            pos = positivity(fan, div)
            assert pos.nef and not pos.big
            from toricvanish.regions import lattice_points
            from toricvanish.divisors import section_system

            pts = lattice_points(section_system(fan, div))
            assert pts == [tuple(-x for x in m)]


def test_semiample_p2(p2):
    w = semiample_witness(p2, scale(2, ray_divisor(p2, (1, 0))))
    assert w.multiple == 1
    assert len(w.sections) == 3


def test_semiample_p112_index2(p112):
    D = ray_divisor(p112, (1, 0))
    w = semiample_witness(p112, D)
    assert w.multiple == 2
    # D_{(0,1)} is already Cartier
    w2 = semiample_witness(p112, ray_divisor(p112, (0, 1)))
    assert w2.multiple == 1


def test_semiample_section_check_raises(p112, monkeypatch):
    # D has a half-integral covector, so its multiple is 2; with the first
    # numerator of its memoized Cartier data moved by one, that section
    # misses equality on a ray of its cone, and the check must say so in
    # semiample_witness and in positivity
    D = (Fraction(0), Fraction(1), Fraction(-1))
    assert semiample_witness(p112, D).multiple == 2
    cd = cartier_data(p112, D)
    first = (cd.numerators[0][0] + 1,) + cd.numerators[0][1:]
    bad = CartierData(cd.denominator, (first,) + cd.numerators[1:], cd.scaled)
    monkeypatch.setattr(divisors, "_cartier_data", lambda fan, coeffs: bad)
    with pytest.raises(RuntimeError, match="fails ray"):
        semiample_witness(p112, D)
    with pytest.raises(RuntimeError, match="fails ray"):
        positivity(p112, D)


def test_semiample_section_check_raises_under_optimize():
    script = ("from fractions import Fraction\n"
              "from toricvanish import divisors\n"
              "from toricvanish.fans import make_fan\n"
              "p112 = make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])\n"
              "D = (Fraction(0), Fraction(1), Fraction(-1))\n"
              "cd = divisors.cartier_data(p112, D)\n"
              "first = (cd.numerators[0][0] + 1,) + cd.numerators[0][1:]\n"
              "bad = divisors.CartierData(cd.denominator, (first,) + cd.numerators[1:],\n"
              "                           cd.scaled)\n"
              "divisors._cartier_data = lambda fan, coeffs: bad\n"
              "try:\n"
              "    divisors.semiample_witness(p112, D)\n"
              "except RuntimeError as exc:\n"
              "    print('raised:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: section") and "fails ray" in proc.stdout


def test_q_cartier_index_of_k_on_p113():
    # the cone on (1,0), (-1,-3) has determinant 3: K and -K need the multiple 3
    p113 = make_fan(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (0, 2), (1, 2)])
    K = canonical(p113)
    assert q_cartier_index(p113, K) == 3
    assert properties(p113).q_gorenstein_index_of_K == 3
    assert semiample_witness(p113, scale(-1, K)).multiple == 3


def test_semiample_not_nef(f1):
    res = semiample_witness(f1, ray_divisor(f1, (1, 1)))
    assert isinstance(res, NotNef)


def test_nef_implies_semiample(p2, f1, p112):
    rng = random.Random(9)
    for fan in (p2, f1, p112):
        for _ in range(10):
            coeffs = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 2))
                           for _ in fan.rays)
            cd = cartier_data(fan, coeffs)
            if isinstance(cd, NotQCartier):
                continue
            pos = positivity(fan, coeffs)
            res = semiample_witness(fan, coeffs)
            assert pos.nef == (not isinstance(res, NotNef))


def test_klt(p2, cube):
    ok, _ = klt_check(p2, scale(Fraction(1, 2), tuple([Fraction(1)] * 3)))
    assert ok
    bad, reason = klt_check(p2, ray_divisor(p2, (1, 0)))
    assert not bad and "not in [0, 1)" in reason
    ok_cube, _ = klt_check(cube, coeffs_of(cube, {}))
    assert ok_cube


def _reference_klt(fan, b_coeffs):
    """`klt_check` as it solved for the Cartier data of K+B on every fan:
    K+B is Q-Cartier on a cone iff <m, u_rho> = -a_rho on its rays has a
    solution m."""
    for i, b in enumerate(b_coeffs):
        if not (0 <= b < 1):
            return False, f"coefficient {b} at ray {fan.rays[i]} not in [0, 1)"
    k_b = add(canonical(fan), b_coeffs)
    for cone in fan.max_cones:
        if solve_rational([list(fan.rays[i]) for i in cone], [-k_b[i] for i in cone]) is None:
            return False, f"K+B not Q-Cartier on cone {cone}"
    return True, "ok"


def test_klt_check_matches_the_solve_reference_on_simplicial_fans():
    # every Weil divisor on a simplicial fan is Q-Cartier, so klt_check reads
    # the coefficients alone there; the per-cone solve agrees on drawn B
    rng = random.Random(47)
    checked = Counter()
    for fan in REFERENCE_FANS + [f for f, _ in mmp_models()]:
        if not is_simplicial(fan):
            continue
        for _ in range(4):
            b = tuple(Fraction(rng.randint(0, 11), 12) for _ in fan.rays)
            if fan.rays and rng.random() < 0.25:
                b = (Fraction(rng.choice((-1, 12, 13)), 12),) + b[1:]
            got = klt_check(fan, b)
            assert got == _reference_klt(fan, b), (fan, b)
            checked[got[0]] += 1
    assert checked[True] >= 200 and checked[False] >= 20


def test_klt_check_names_the_cone_where_k_plus_b_is_not_q_cartier(cube):
    # on the non-simplicial cube K is Q-Cartier and K + D_rho is not
    b = coeffs_of(cube, {cube.rays[0]: Fraction(1, 2)})
    expected = _reference_klt(cube, b)
    assert not expected[0] and expected[1].startswith("K+B not Q-Cartier on cone ")
    assert klt_check(cube, b) == expected
    assert klt_check(cube, coeffs_of(cube, {})) == (True, "ok")


def test_discrepancy_blowup(p2):
    assert discrepancy(coeffs_of(p2, {}), cone_coordinates(p2, (1, 1))) == 1
    half = tuple([Fraction(1, 2)] * 3)
    assert discrepancy(half, cone_coordinates(p2, (1, 1))) == 0
    assert discrepancy(half, cone_coordinates(p2, (0, 1))) == Fraction(-1, 2)


def test_discrepancy_klt_positive(p2, f1, p112):
    rng = random.Random(13)
    for fan in (p2, f1, p112):
        for _ in range(20):
            b = tuple(Fraction(rng.randint(0, 3), 4) for _ in fan.rays)
            ok, _ = klt_check(fan, b)
            if not ok:
                continue
            v = None
            while v is None:
                cand = (rng.randint(-3, 3), rng.randint(-3, 3))
                if cand != (0, 0) and gcd(*cand) == 1 and cand not in fan.rays \
                        and any(cone_contains(fan, c, cand) for c in fan.max_cones):
                    v = cand
            a = discrepancy(b, cone_coordinates(fan, v))
            assert a == reference_discrepancy(fan, b, v) and a > -1


def test_pullback_examples(p2):
    f1 = f1_fan()
    m = identity_map(f1, p2)
    H = ray_divisor(p2, (1, 0))
    pb = pullback(m, H)
    assert pb[f1.ray_index((1, 1))] == 1
    assert pb[f1.ray_index((1, 0))] == 1
    assert pb[f1.ray_index((0, 1))] == 0
    assert pullback(m, coeffs_of(p2, {})) == coeffs_of(f1, {})


def test_pushforward(p2):
    f1 = f1_fan()
    m = identity_map(f1, p2)
    D = coeffs_of(f1, {(1, 0): 3, (1, 1): 7})
    pf = pushforward(m, D)
    assert pf[p2.ray_index((1, 0))] == 3
    assert sum(1 for x in pf if x) == 1


def test_pullback_pushforward_small_maps():
    a = flip_side_a()
    theta, psi = star_subdivide(a, (1, 1, 0))
    D = coeffs_of(a, {(1, 0, 0): 2, (0, 0, 1): Fraction(5, 2)})
    pb = pullback(psi, D)
    assert pushforward(psi, pb) == D


def test_round():
    assert round_divisor((Fraction(1, 2), Fraction(-1, 2)), "up") == (1, 0)
    D = (Fraction(2), Fraction(-3))
    assert round_divisor(D, "up") == D and round_divisor(D, "down") == D
    assert round_divisor((Fraction(1, 3),), "down") == (0,)
    for x, direction, lo, hi in [(Fraction(7, 3), "up", 0, 1), (Fraction(7, 3), "down", -1, 0)]:
        r = round_divisor((x,), direction)[0] - x
        assert lo < r <= hi or lo <= r < hi


def test_h0_p2(p2):
    assert h0_dim(p2, scale(3, ray_divisor(p2, (1, 0)))) == 10
    assert h0_dim(p2, canonical(p2)) == ZERO
    assert h0_dim(p2, coeffs_of(p2, {})) == 1


def test_h0_flip_side():
    a = flip_side_a()
    assert h0_dim(a, scale(-1, ray_divisor(a, (0, 0, 1)))) == INFINITE
    assert h0_dim(a, coeffs_of(a, {})) == INFINITE


def test_h0_unbounded_strip_without_lattice_points():
    # 1/3 <= m_1 <= 2/3 with m_2 free: unbounded, and no integer m_1
    strip = make_fan(2, [(-1, 0), (1, 0)], [(0,), (1,)])
    assert h0_dim(strip, (Fraction(2, 3), Fraction(-1, 3))) == ZERO


def test_h0_fibration_zero(p1xp1):
    D = scale(-1, ray_divisor(p1xp1, (0, 1)))
    assert h0_dim(p1xp1, D) == ZERO


def test_section_rows_are_the_coprime_rows_of_make_row():
    # zero, integer and fractional coefficients; the ints as Python ints
    rng = random.Random(41)
    for fan in reference_fans():
        ints = tuple(rng.randint(-4, 4) for _ in fan.rays)
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))
                      for _ in fan.rays)
        for D in (coeffs_of(fan, {}), canonical(fan), ints, fracs):
            assert section_rows(fan, D) == \
                tuple(make_row(r, -a) for r, a in zip(fan.rays, D)), (fan, D)


def test_big_growth_crosscheck(p2, f1):
    H = ray_divisor(p2, (1, 0))
    counts = [h0_dim(p2, scale(k, H)) for k in (1, 2, 3, 4)]
    assert counts == [3, 6, 10, 15]
    assert positivity(p2, H).big
    fiber = ray_divisor(f1, (0, 1))
    fcounts = [h0_dim(f1, scale(k, fiber)) for k in (1, 2, 3, 4)]
    assert not positivity(f1, fiber).big
    # linear growth only: h0(l*fiber) = l + 1
    assert fcounts == [2, 3, 4, 5]


def test_big_is_full_dimensional_section_polytope():
    p2, f1 = p2_fan(), f1_fan()
    # big, not big (the fibre of F1), zero divisor, empty P_D (K on P2)
    assert positivity(p2, ray_divisor(p2, (1, 0))).big
    assert polytope_dim(p2, ray_divisor(p2, (1, 0))) == 2
    assert polytope_dim(f1, ray_divisor(f1, (0, 1))) == 1
    assert polytope_dim(p2, coeffs_of(p2, {})) == 0
    assert polytope_dim(p2, canonical(p2)) == -1
    fans = [p2, p1xp1_fan(), f1, p112_fan(), p3_fan(), cube_fan(), flip_side_a(), flip_side_b()]
    fans += [fan for rank in (2, 3) for _, fan in seed_fans(rank)]
    rng = random.Random(5)
    for fan in fans:
        n = len(fan.rays)
        divisors = [coeffs_of(fan, {}), canonical(fan), scale(-1, canonical(fan))]
        divisors += [ray_divisor(fan, r) for r in fan.rays]
        divisors += [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                     for _ in range(6)]
        for D in divisors:
            if isinstance(cartier_data(fan, D), NotQCartier):
                continue
            assert positivity(fan, D).big == (polytope_dim(fan, D) == fan.rank), (fan, D)


def test_memoized_cartier_data_matches_the_uncached_solve():
    solve = divisors._cartier_data.__wrapped__
    fans = [p2_fan(), p1xp1_fan(), f1_fan(), p112_fan(), p3_fan(), cube_fan(),
            flip_side_a(), flip_side_b()]
    fans += [inst.fan for _, inst in curated_instances()]
    fans += [fan for rank in (2, 3) for _, fan in seed_fans(rank)]
    rng = random.Random(29)
    not_q_cartier = 0
    for fan in fans:
        n = len(fan.rays)
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
        fracs = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
                 for _ in range(3)]
        for D in ints + fracs + [canonical(fan)] + [ray_divisor(fan, r) for r in fan.rays]:
            expected = solve(fan, tuple(Fraction(x) for x in D))
            # a list, then a tuple of the same (int or Fraction) values: the
            # second lookup is answered by the memo
            assert cartier_data(fan, list(D)) == expected, (fan, D)
            assert cartier_data(fan, tuple(D)) == expected, (fan, D)
            not_q_cartier += isinstance(expected, NotQCartier)
    assert not_q_cartier > 0


def test_cartier_data_solves_once_per_fan_and_divisor():
    # verify_mmp asks for Cartier data at every hypothesis check, positivity,
    # nef stop, extremal ray list and intersection number, but not for a
    # pullback to a simplicial model, for K+B on a simplicial fan or for a
    # flip's discrepancy; each distinct (fan, divisor) is solved once. The
    # hits are pinned, not compared with the misses: they count repeated
    # questions, which fewer intersect calls make fewer of. Before klt and
    # the discrepancy read no Cartier data: 17 hits and 6 misses.
    from toricvanish.verify import verify_mmp

    inst = dict(curated_instances())["cubeq-flop"]
    divisors._cartier_data.cache_clear()
    verify_mmp(inst)
    info = divisors._cartier_data.cache_info()
    assert info.hits == 10
    assert info.misses == info.currsize == 4


# A Fraction copy of the Cartier data, nef/ample loop, semiample certificate,
# Q-Cartier index, support function and intersection numbers as they were
# before Cartier data moved to integers: the integer code must agree with it.
def _reference_covectors(fan, coeffs):
    covectors = []
    for cone in fan.max_cones:
        rays = [fan.rays[i] for i in cone]
        rhs = [-coeffs[i] for i in cone]
        sol = solve_rational([list(r) for r in rays], rhs)
        if sol is None:
            return None
        particular, nullity = sol
        if not nullity:
            covectors.append(tuple(particular))
            continue
        V, r_span = adapted_basis(rays, fan.rank)
        coords = [[sum(ray[i] * V[i][j] for i in range(fan.rank))
                   for j in range(r_span)] for ray in rays]
        z = solve_rational(coords, rhs)[0]
        covectors.append(tuple(sum(z[j] * V[i][j] for j in range(r_span))
                               for i in range(fan.rank)))
    return tuple(covectors)


def _reference_positivity(fan, coeffs, covectors):
    nef = True
    full_span = bool(fan.rays) and int_rank([list(r) for r in fan.rays]) == fan.rank
    ample = (len(set(covectors)) == len(covectors) and bool(fan.max_cones) and full_span)
    for cone, m in zip(fan.max_cones, covectors):
        for i, ray in enumerate(fan.rays):
            val = Fraction(dot(m, ray))
            if val < -coeffs[i]:
                nef = ample = False
            elif i not in cone and val == -coeffs[i]:
                ample = False
    rows = tuple((a, c, True) for a, c, _ in
                 (make_row(r, -coeffs[i]) for i, r in enumerate(fan.rays)))
    big = is_feasible(IneqSystem(fan.rank, rows))
    return Positivity(nef=nef, ample=ample and nef, big=big)


def _reference_index(coeffs, covectors):
    dens = [x.denominator for m in covectors for x in m] + [c.denominator for c in coeffs]
    return lcm(*dens)


def _reference_semiample(fan, coeffs, covectors):
    for ci, m in enumerate(covectors):
        for i, ray in enumerate(fan.rays):
            if Fraction(dot(m, ray)) < -coeffs[i]:
                return NotNef(ci, i)
    ell = _reference_index(coeffs, covectors)
    return SemiampleWitness(ell, tuple(tuple(int(x * ell) for x in m) for m in covectors))


def _reference_intersect(fan, coeffs, covectors, wall):
    b, u, v = wall_relation(fan, wall)
    delta = tuple(x - y for x, y in zip(covectors[wall.cone_a], covectors[wall.cone_b]))
    via_b = Fraction(dot(delta, fan.rays[v]), b[u])
    via_a = Fraction(-dot(delta, fan.rays[u]), b[v])
    total = Fraction(sum(bi * Fraction(a) for bi, a in zip(b, coeffs)), b[u] * b[v])
    assert via_a == via_b == total
    return total


REFERENCE_FANS = reference_fans()
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# zero entries often: a nef divisor with distinct covectors can still be tight
# on a ray off a cone when the fan is not complete (D_(1,0) on the quadrant
# plus the ray (-1,0))
_coefficients = st.one_of(st.just(Fraction(0)), _fractions)


@pytest.mark.parametrize("fan", REFERENCE_FANS,
                         ids=[f"fan{i}" for i in range(len(REFERENCE_FANS))])
@given(st.data())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_integer_cartier_data_matches_the_fraction_reference(fan, data):
    # on every reference fan (non-simplicial, not complete, non-convex
    # support, torus factor): a drawn divisor with denominators 1-6, and a
    # rational multiple of K, which is what makes the non-simplicial cube
    # Q-Cartier
    n = len(fan.rays)
    drawn = tuple(data.draw(st.lists(_coefficients, min_size=n, max_size=n)))
    for D in (drawn, scale(data.draw(_fractions), canonical(fan))):
        covectors = _reference_covectors(fan, D)
        cd = cartier_data(fan, D)
        if covectors is None:
            assert isinstance(cd, NotQCartier) and q_cartier_index(fan, D) is None
            continue
        assert cd.covectors == covectors, D
        assert q_cartier_index(fan, D) == _reference_index(D, covectors), D
        assert positivity(fan, D) == _reference_positivity(fan, D, covectors), D
        assert semiample_witness(fan, D) == _reference_semiample(fan, D, covectors), D
        for cone in fan.max_cones:
            weights = data.draw(st.lists(st.integers(0, 3), min_size=len(cone),
                                         max_size=len(cone)))
            v = tuple(sum(w * fan.rays[i][k] for w, i in zip(weights, cone))
                      for k in range(fan.rank))
            assert dot(cone_coordinates(fan, v), D) == reference_support_value(
                fan, covectors, v), (D, v)
        if is_simplicial(fan):
            for wall in walls(fan):
                assert intersect(fan, D, wall) == _reference_intersect(
                    fan, D, covectors, wall), (D, wall)


def _bigness_branch(fan, D, nef):
    """The step of `positivity`'s bigness order that decides D."""
    if all(a > 0 for a in D):
        return "positive"
    return "centroid" if nef and is_complete(fan) else "fm"


def _fm_counter(monkeypatch):
    calls = []

    def counted(system):
        calls.append(system)
        return is_feasible(system)

    monkeypatch.setattr(divisors, "is_feasible", counted)
    return calls


def test_bigness_certificates_match_fourier_motzkin(monkeypatch):
    # on every reference fan: drawn all-positive divisors (m = 0 is interior
    # to P_D), and drawn divisors plus a principal one, nef ones among them
    # on every complete fan, the cube included (the centroid of the
    # sections); each must give FM's verdict, and only the third step of the
    # order may call FM
    calls = _fm_counter(monkeypatch)
    rng = random.Random("bigness")
    taken = Counter()
    for fan in REFERENCE_FANS:
        nef_drawn = 0
        for draw in range(16):
            if is_simplicial(fan):
                D = tuple(Fraction(rng.randint(1, 11), rng.randint(1, 4))
                          for _ in fan.rays)
            else:  # a multiple of -K stays Q-Cartier on the cube
                D = scale(Fraction(-rng.randint(1, 6), rng.randint(1, 3)),
                          canonical(fan))
            if draw % 2:
                if draw % 4 == 1:
                    D = tuple(0 * a for a in D)
                m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                D = add(D, principal(fan, m))
            covectors = _reference_covectors(fan, D)
            if covectors is None:
                continue
            expected = _reference_positivity(fan, D, covectors)
            before = len(calls)
            assert positivity(fan, D) == expected, (fan, D)
            branch = _bigness_branch(fan, D, expected.nef)
            assert len(calls) - before == (branch == "fm"), (fan, D, branch)
            taken[branch] += 1
            if branch == "centroid":
                nef_drawn += 1
                taken[branch, expected.big] += 1
        assert nef_drawn or not is_complete(fan), fan
    for key in ("positive", "centroid", ("centroid", True), ("centroid", False), "fm"):
        assert taken[key] >= 20, taken


def test_bigness_needs_no_fourier_motzkin_on_the_suite_and_the_corpus(monkeypatch):
    # every positivity call the generator and the verifier make is decided by
    # an integer certificate: all-positive, or nef on a complete fan
    from toricvanish import corpus, verify
    from toricvanish.cli import main

    calls = _fm_counter(monkeypatch)
    asked = Counter()
    for module in (corpus, verify):
        def counted(fan, coeffs, module=module):
            asked[module.__name__] += 1
            return positivity(fan, coeffs)

        monkeypatch.setattr(module, "positivity", counted)
    assert main(["--quiet", "suite", "--seed", "42"]) == 0
    corpus.gen_corpus(42, 2, count=45)
    corpus.gen_corpus(42, 3, count=40)
    assert asked["toricvanish.corpus"] and asked["toricvanish.verify"]
    assert calls == []


@cache
def _pullback_maps():
    """Toric maps to pull back along, by kind: the star subdivision of each
    valid reference fan at the primitive sum of the rays of its first cone
    with two; on the simplicial, convex, full-span reference fans and MMP
    models, both sides of the flip diagram of each single-circuit flipping
    ray (flipped for D = -D_u, u an off-wall ray, so D.C < 0) and each
    divisorial contraction; and the Q-factorialization of each
    non-simplicial reference fan."""
    maps = {"star": [], "flip": [], "divisorial": [], "q_factorialize": []}
    for fan in REFERENCE_FANS:
        if validate(fan):
            continue
        if not is_simplicial(fan):
            maps["q_factorialize"].append(q_factorialize(fan)[1])
        cone = next((c for c in fan.max_cones if len(c) > 1), None)
        if cone is not None:
            v = primitive(tuple(map(sum, zip(*(fan.rays[i] for i in cone)))))
            maps["star"].append(star_subdivide(fan, v)[1])
    convex = [f for f in REFERENCE_FANS
              if f.rays and is_simplicial(f) and support_is_convex(f) and full_span(f)]
    for fan in dict.fromkeys(convex + [f for f, _ in mmp_models()]):
        for item in reference_extremal_rays(fan):
            res = contract(fan, item)
            if res.kind == "divisorial":
                maps["divisorial"].append(res.map)
            elif res.kind == "flipping" and len(res.merged_groups) == 1:
                w = item[1][0]
                u = next(i for i in fan.max_cones[w.cone_a] if i not in w.rays)
                flipped = flip(fan, res, scale(-1, ray_divisor(fan, fan.rays[u])))
                diagram = flip_diagram(fan, flipped, res)
                maps["flip"] += [diagram.psi, diagram.psi_prime]
    return {kind: tuple(ms) for kind, ms in maps.items()}


def _reference_pullback(m, coeffs):
    """`pullback` as it read the Cartier data of every cone of the target."""
    cd = cartier_data(m.target, coeffs)
    if isinstance(cd, NotQCartier):
        raise ValueError("pullback needs a Q-Cartier divisor")
    return tuple(reference_support_value(m.target, cd.covectors, m.apply(ray))
                 for ray in m.source.rays)


def _pullback_or_error(fn, m, coeffs):
    try:
        out = fn(m, coeffs)
    except ValueError as exc:
        return str(exc)
    assert all(type(x) is Fraction for x in out), out
    return out


def test_pullback_reference_maps_cover_every_kind():
    counts = {kind: len(ms) for kind, ms in _pullback_maps().items()}
    assert counts["star"] >= 40 and counts["flip"] >= 40, counts
    assert counts["divisorial"] >= 40 and counts["q_factorialize"] == 2, counts


@pytest.mark.parametrize("kind", ["star", "flip", "divisorial", "q_factorialize"])
@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pullback_matches_the_all_cones_reference(kind, data):
    # a drawn divisor, not Q-Cartier on a non-simplicial target as a rule,
    # and a Q-Cartier one there: a rational multiple of K plus div(m)
    m = data.draw(st.sampled_from(_pullback_maps()[kind]))
    tgt = m.target
    n = len(tgt.rays)
    drawn = tuple(data.draw(st.lists(_coefficients, min_size=n, max_size=n)))
    covector = data.draw(st.lists(st.integers(-3, 3), min_size=tgt.rank,
                                  max_size=tgt.rank))
    q_cartier = add(scale(data.draw(_fractions), canonical(tgt)), principal(tgt, covector))
    for D in (drawn, q_cartier):
        assert (_pullback_or_error(pullback, m, D)
                == _pullback_or_error(_reference_pullback, m, D)), (m, D)


def test_pullback_to_a_non_simplicial_target_needs_a_q_cartier_divisor(cube):
    _, m = q_factorialize(cube)
    D = ray_divisor(cube, cube.rays[0])
    assert isinstance(cartier_data(cube, D), NotQCartier)
    with pytest.raises(ValueError, match="pullback needs a Q-Cartier divisor"):
        pullback(m, D)
    assert pullback(m, canonical(cube)) == canonical(m.source)
