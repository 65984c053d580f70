import random
from fractions import Fraction

import pytest

from conftest import (
    cube_fan,
    f1_fan,
    flip_side_a,
    flip_side_b,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    p112_fan,
)
from toricvanish import divisors
from toricvanish.corpus import curated_instances, seed_fans
from toricvanish.divisors import (
    INFINITE,
    ZERO,
    CartierData,
    NotNef,
    NotQCartier,
    canonical,
    cartier_data,
    coeffs_of,
    discrepancy,
    h0_dim,
    klt_check,
    polytope_dim,
    positivity,
    principal,
    pullback,
    pushforward,
    q_cartier_index,
    ray_divisor,
    round_divisor,
    scale,
    semiample_witness,
)
from toricvanish.fans import identity_map, make_fan, properties, star_subdivide
from toricvanish.linalg import dot


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
    # D has a half-integral covector; with the multiple forced to 1 its
    # truncated section leaves 1*P_D, and the check must say so even under -O
    D = (Fraction(0), Fraction(1), Fraction(-1))
    assert semiample_witness(p112, D).multiple == 2
    monkeypatch.setattr(divisors, "lcm_list", lambda values: 1)
    with pytest.raises(RuntimeError, match="fails ray"):
        semiample_witness(p112, D)


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


def test_discrepancy_blowup(p2):
    assert discrepancy(p2, coeffs_of(p2, {}), (1, 1)) == 1
    half = tuple([Fraction(1, 2)] * 3)
    assert discrepancy(p2, half, (1, 1)) == 0
    assert discrepancy(p2, half, (0, 1)) == Fraction(-1, 2)


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
                from toricvanish.fans import support_contains
                from toricvanish.linalg import gcd_list

                if cand != (0, 0) and gcd_list(cand) == 1 and cand not in fan.rays \
                        and support_contains(fan, cand):
                    v = cand
            assert discrepancy(fan, b, v) > -1


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
    # intersection number and pullback; each distinct (fan, divisor) is solved once
    from toricvanish.verify import verify_mmp

    inst = dict(curated_instances())["cubeq-flop"]
    divisors._cartier_data.cache_clear()
    verify_mmp(inst)
    info = divisors._cartier_data.cache_info()
    assert info.hits > info.misses
    assert info.misses == info.currsize == 22
