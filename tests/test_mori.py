import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    flip_side_a,
    int_kernel,
    mmp_models,
    ray_divisor,
    reference_curve_class,
    reference_extremal_rays,
    reference_fans,
    reference_pair,
    reference_primitive_direction,
)
from toricvanish import cones, fans, lp, mmp, mori
from toricvanish.corpus import curated_instances
from toricvanish.divisors import (
    NotQCartier,
    SemiampleWitness,
    canonical,
    cartier_data,
    positivity,
    principal,
    semiample_witness,
)
from toricvanish.fans import is_simplicial, make_fan, q_factorialize
from toricvanish.linalg import dot, int_rank, primitive
from toricvanish.mmp import negative_contractions, run_mmp
from toricvanish.mori import (
    Wall,
    _off_ray,
    extremal_rays,
    intersect,
    wall_relation,
    walls,
    walls_within,
)


def test_wall_counts(p2, f1, p1xp1):
    assert len(walls(p2)) == 3
    assert len(walls(f1)) == 4
    assert len(walls(p1xp1)) == 4
    assert len(walls(flip_side_a())) == 1


def test_walls_non_simplicial(cube):
    with pytest.raises(ValueError):
        walls(cube)


def _reference_walls(fan):
    """The walls as found by dropping each index of each full-dimensional
    simplicial cone: the facets in exactly two such cones, sorted."""
    seen = {}
    for ci, cone in enumerate(fan.max_cones):
        if fans._cone_dim(fan, cone) != fan.rank:
            continue
        for drop in cone:
            facet = tuple(i for i in cone if i != drop)
            seen.setdefault(facet, []).append(ci)
    return [Wall(f, *seen[f]) for f in sorted(seen) if len(seen[f]) == 2]


def test_walls_match_the_index_dropping_walls():
    for fan in reference_fans():
        if not is_simplicial(fan):
            with pytest.raises(ValueError):
                walls(fan)
            fan = q_factorialize(fan)[0]
        assert walls(fan) == _reference_walls(fan), fan


def test_wall_relation_f1(f1):
    w = next(w for w in walls(f1) if w.rays == (f1.ray_index((1, 1)),))
    b, u, v = wall_relation(f1, w)
    assert {u, v} == {f1.ray_index((1, 0)), f1.ray_index((0, 1))}
    assert b[f1.ray_index((1, 0))] == 1
    assert b[f1.ray_index((0, 1))] == 1
    assert b[f1.ray_index((1, 1))] == -1
    assert b[f1.ray_index((-1, -1))] == 0


def test_wall_relation_p2(p2):
    w = next(w for w in walls(p2) if w.rays == (p2.ray_index((1, 0)),))
    b, u, v = wall_relation(p2, w)
    assert b == (1, 1, 1)
    assert u in p2.max_cones[w.cone_a] and v in p2.max_cones[w.cone_b]
    assert {u, v} == {p2.ray_index((0, 1)), p2.ray_index((-1, -1))}


def test_wall_relation_flip_side_a():
    fan = flip_side_a()
    (w,) = walls(fan)
    assert set(w.rays) == {fan.ray_index((1, 0, 0)), fan.ray_index((0, 1, 0))}
    b, u, v = wall_relation(fan, w)
    assert b[fan.ray_index((1, 0, 0))] == -1
    assert b[fan.ray_index((0, 1, 0))] == -1
    assert b[fan.ray_index((0, 0, 1))] == 2
    assert b[fan.ray_index((1, 1, -2))] == 1
    assert {u, v} == {fan.ray_index((0, 0, 1)), fan.ray_index((1, 1, -2))}


def test_intersect_f1_exceptional(f1):
    w = next(w for w in walls(f1) if w.rays == (f1.ray_index((1, 1)),))
    E = ray_divisor(f1, (1, 1))
    assert intersect(f1, E, w) == -1


def test_intersect_p2_hyperplane(p2):
    H = ray_divisor(p2, (1, 0))
    for w in walls(p2):
        assert intersect(p2, H, w) == 1


def test_intersect_principal_trivial(p2, f1, p112, p3):
    for fan in (p2, f1, p112, p3):
        basis = [tuple(1 if i == j else 0 for i in range(fan.rank))
                 for j in range(fan.rank)]
        for m in basis:
            div = principal(fan, m)
            for w in walls(fan):
                assert intersect(fan, div, w) == 0


def test_intersect_linear(p2, f1, p112):
    rng = random.Random(21)
    for fan in (p2, f1, p112):
        ws = walls(fan)
        for _ in range(8):
            a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in fan.rays)
            b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in fan.rays)
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for w in ws:
                left = intersect(fan, tuple(x + lam * y for x, y in zip(a, b)), w)
                assert left == intersect(fan, a, w) + lam * intersect(fan, b, w)


def test_intersect_integral_on_smooth(p2, f1, p1xp1, p3):
    rng = random.Random(23)
    for fan in (p2, f1, p1xp1, p3):
        for _ in range(6):
            D = tuple(Fraction(rng.randint(-3, 3)) for _ in fan.rays)
            for w in walls(fan):
                assert intersect(fan, D, w).denominator == 1


def test_intersect_p112_symmetric_value(p112):
    # D_{(0,1)} . V(<(1,0)>) = 1 on the weighted plane
    w = next(w for w in walls(p112) if w.rays == (p112.ray_index((1, 0)),))
    assert intersect(p112, ray_divisor(p112, (0, 1)), w) == 1
    # and the weight-2 ray divisor pairs to 2 with its own wall curve
    w2 = next(w for w in walls(p112) if w.rays == (p112.ray_index((0, 1)),))
    assert intersect(p112, ray_divisor(p112, (0, 1)), w2) == 2


def test_curve_class_matches_intersect(p2, f1, p112):
    rng = random.Random(29)
    for fan in (p2, f1, p112):
        for w in walls(fan):
            cc = reference_curve_class(fan, w)
            for _ in range(5):
                D = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                          for _ in fan.rays)
                assert reference_pair(cc, D) == intersect(fan, D, w)


def test_curve_class_principal_vanishing(p2, f1, p3):
    for fan in (p2, f1, p3):
        for w in walls(fan):
            cc = reference_curve_class(fan, w)
            for j in range(fan.rank):
                m = tuple(1 if i == j else 0 for i in range(fan.rank))
                assert reference_pair(cc, principal(fan, m)) == 0


def _simplicial_walls_and_divisors():
    """(fan, wall, divisors) for every wall of the simplicial reference fans,
    with three seeded random divisors, and of every MMP model, with its
    divisor as well."""
    rng = random.Random(37)
    cases = [(fan, ()) for fan in reference_fans() if is_simplicial(fan)]
    cases += [(fan, (d,)) for fan, d in mmp_models()]
    for fan, own in cases:
        drawn = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in fan.rays) for _ in range(3))
        for w in walls(fan):
            yield fan, w, own + drawn


def test_wall_relation_is_the_class_direction_and_pairing():
    checked = 0
    for fan, w, divisors in _simplicial_walls_and_divisors():
        b, u, v = wall_relation(fan, w)
        assert b == reference_primitive_direction(reference_curve_class(fan, w))
        assert b[u] > 0 and b[v] > 0
        assert not any(b[i] for i in range(len(b))
                       if i not in fan.max_cones[w.cone_a] + fan.max_cones[w.cone_b])
        for D in divisors:
            assert Fraction(dot(b, D)) / (b[u] * b[v]) == intersect(fan, D, w)
        checked += 1
    assert checked >= 500


def test_extremal_rays_counts(p2, f1, p1xp1):
    assert len(reference_extremal_rays(p2)) == 1
    assert len(reference_extremal_rays(p2)[0][1]) == 3
    assert len(reference_extremal_rays(f1)) == 2
    rays_pp = reference_extremal_rays(p1xp1)
    assert len(rays_pp) == 2
    assert all(len(item[1]) == 2 for item in rays_pp)
    assert len(reference_extremal_rays(flip_side_a())) == 1
    # only the rays on which the divisor is negative
    H = ray_divisor(p2, (1, 0))
    assert extremal_rays(p2, H) == []
    assert extremal_rays(p2, principal(p2, (1, 0))) == []
    assert extremal_rays(p2, tuple(-x for x in H)) == reference_extremal_rays(p2)
    E = ray_divisor(f1, (1, 1))
    (item,) = extremal_rays(f1, E)
    assert item in reference_extremal_rays(f1) and intersect(f1, E, item[1][0]) < 0


def _reference_extremal_rays(fan):
    """`extremal_rays` as it decided the cone of the full relations in Z^rays:
    pointedness by its double description, extremality by one simplex per
    distinct relation."""
    directions = {}
    for w in walls(fan):
        directions.setdefault(wall_relation(fan, w)[0], []).append(w)
    gens = sorted(directions)
    ineqs, eqs = cones.cone_dual(gens, len(fan.rays))
    if gens and int_rank(ineqs + eqs) != len(fan.rays):
        raise ValueError("not strongly convex")
    keep = [d for d in gens if not lp.in_cone(d, [q for q in gens if q != d])]
    return sorted(((d, directions[d]) for d in keep), key=lambda item: item[1][0].rays)


def _rays_or_error(fn, fan):
    try:
        return fn(fan)
    except ValueError as exc:
        return str(exc)


# a complete simplicial fan that is not projective: a prism over two
# triangles whose three side squares are cut by diagonals that turn one
# way. Its wall classes span a cone that holds a line
TWISTED_PRISM = make_fan(
    3, [(-2, 0, 1), (2, -1, 1), (2, 1, 1), (-3, 0, -1), (0, -3, -1), (0, 2, -1)],
    [(0, 1, 2), (3, 4, 5), (0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (2, 0, 5),
     (0, 5, 3)])


def _negative_rays(fan, coeffs, rays):
    """The entries of an extremal ray list (or its error) with D.C < 0."""
    if isinstance(rays, str):
        return rays
    return [item for item in rays if intersect(fan, coeffs, item[1][0]) < 0]


def test_extremal_rays_match_the_full_coordinate_reference():
    # the relations restricted to the rays off one maximal cone give the
    # extremal rays of the full relations, in the same order, and the same
    # error where those span no strongly convex cone; extremal_rays(fan, D)
    # gives those with D.C < 0, for the model's own divisor and drawn ones
    rng = random.Random(43)
    models = [(fan, ()) for fan in reference_fans() if is_simplicial(fan)]
    models += [(fan, (d,)) for fan, d in mmp_models()]
    checked = negative = 0
    for fan, own in models + [(TWISTED_PRISM, ())]:
        full = _rays_or_error(_reference_extremal_rays, fan)
        assert _rays_or_error(reference_extremal_rays, fan) == full, fan
        drawn = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in fan.rays) for _ in range(3))
        for D in own + drawn:
            got = _rays_or_error(lambda f: extremal_rays(f, D), fan)
            assert got == _negative_rays(fan, D, full), (fan, D)
            negative += bool(got) and not isinstance(got, str)
        checked += bool(walls(fan))
    assert checked >= 70 and negative >= 150
    assert not fans.validate(TWISTED_PRISM) and fans.is_complete(TWISTED_PRISM)
    assert len({wall_relation(TWISTED_PRISM, w)[0] for w in walls(TWISTED_PRISM)}) > 3
    for D in (canonical(TWISTED_PRISM), ray_divisor(TWISTED_PRISM, (-2, 0, 1))):
        with pytest.raises(ValueError, match="not strongly convex"):
            extremal_rays(TWISTED_PRISM, D)


@cache
def _contractible_fans():
    """The distinct simplicial fans with convex, full-dimensional support of
    `reference_fans()` and `mmp_models()`, and `TWISTED_PRISM`."""
    chosen = [f for f in reference_fans() + [f for f, _ in mmp_models()]
              if f.rays and is_simplicial(f) and fans.support_is_convex(f)
              and fans.full_span(f)]
    return tuple(dict.fromkeys(chosen + [TWISTED_PRISM]))


def _contractions_or_error(fn):
    try:
        return list(fn())
    except ValueError as exc:
        return str(exc)


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_negative_contractions_are_the_reference_rays_with_negative_d(data):
    # the D-negative extremal rays alone reach contract, in the order of
    # all extremal rays, and the cone of classes on TWISTED_PRISM still
    # raises for it holds a line
    pool = _contractible_fans()
    fan = pool[data.draw(st.integers(0, len(pool) - 1))]
    D = tuple(data.draw(st.lists(st.one_of(st.just(Fraction(0)), _fractions),
                                 min_size=len(fan.rays), max_size=len(fan.rays))))
    expected = _contractions_or_error(
        lambda: [mmp.contract(fan, item) for item in reference_extremal_rays(fan)
                 if intersect(fan, D, item[1][0]) < 0])
    assert _contractions_or_error(lambda: negative_contractions(fan, D)) == expected
    if fan == TWISTED_PRISM:
        assert expected == "not strongly convex"


def test_nef_via_walls_agrees_with_support_function(p2, f1, p112):
    # run_mmp stops on semiample_witness; on its models (simplicial, convex
    # full-dimensional support) that is D.C >= 0 on every wall curve
    rng = random.Random(31)
    cases = [(fan, None) for fan in (p2, f1, p112)] + list(mmp_models())
    assert dict(curated_instances())["flip2-relative"].fan in {f for f, _ in cases}
    for fan, own in cases:
        ws = walls(fan)
        drawn = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in fan.rays)
                 for _ in range(12 if own is None else 3)]
        for D in drawn + ([own] if own is not None else []):
            if isinstance(cartier_data(fan, D), NotQCartier):
                continue
            nef_walls = all(intersect(fan, D, w) >= 0 for w in ws)
            assert nef_walls == positivity(fan, D).nef
            assert nef_walls == isinstance(semiample_witness(fan, D), SemiampleWitness)


def _reference_walls_within(fan, groups):
    """The relative walls by the group scans `mmp.flip` and
    `verify._require_fibration` each made before `walls_within`."""
    group_of = {}
    for gi, g in enumerate(groups):
        for ci in g:
            group_of[ci] = gi
    out = []
    for w in walls(fan):
        ga, gb = group_of.get(w.cone_a), group_of.get(w.cone_b)
        if ga is not None and ga == gb:
            out.append(w)
    return out


def test_walls_within_matches_the_group_scan():
    rng = random.Random(41)
    checked = 0
    for fan in reference_fans():
        if not is_simplicial(fan) or not fan.max_cones:
            continue
        for _ in range(4):
            cones = list(range(len(fan.max_cones)))
            rng.shuffle(cones)
            cuts = sorted(rng.sample(range(len(cones) + 1), 2))
            groups = [cones[:cuts[0]], cones[cuts[0]:cuts[1]]]
            assert walls_within(fan, groups) == _reference_walls_within(fan, groups)
            checked += bool(walls_within(fan, groups))
    assert checked >= 20


def test_wall_relation_solves_once_per_geometry(monkeypatch):
    # run_mmp reaches wall_relation through both extremal_rays and intersect,
    # on every model; the memo makes one solve, rank + 1 maximal minors, per
    # distinct tuple of the rays of a wall's two cones, so a wall of a later
    # model whose two cones an earlier model had is not solved again
    inst = dict(curated_instances())["cubeq-flop"]
    mori._circuit.cache_clear()
    minors, queries = [], []
    real_det, real_relation = mori.det_int, mori.wall_relation

    def counting_det(matrix):
        minors.append(matrix)
        return real_det(matrix)

    def recording_relation(fan, wall):
        queries.append((fan, wall))
        return real_relation(fan, wall)

    monkeypatch.setattr(mori, "det_int", counting_det)
    monkeypatch.setattr(mori, "wall_relation", recording_relation)
    run = run_mmp(inst.fan, inst.d_coeffs, inst.b_coeffs)
    geometries = {frozenset(fan.rays[i] for i in fan.max_cones[wall.cone_a]
                            + fan.max_cones[wall.cone_b]) for fan, wall in queries}
    assert len(run.models) == 3 and len({fan for fan, _ in queries}) == 2
    assert len(queries) > len(set(queries)) > len(geometries)
    assert len(minors) == (inst.fan.rank + 1) * len(geometries)


def test_off_ray_rejects_a_wall_that_is_not_a_facet(p2):
    bogus = Wall(p2.max_cones[0], 0, 1)
    with pytest.raises(ValueError, match="not a facet"):
        _off_ray(p2, bogus, 0)


def test_off_ray_check_survives_python_O():
    script = ("from toricvanish.fans import make_fan\n"
              "from toricvanish.mori import Wall, _off_ray\n"
              "p2 = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])\n"
              "try:\n"
              "    _off_ray(p2, Wall(p2.max_cones[0], 0, 1), 0)\n"
              "except ValueError as exc:\n"
              "    print('raised:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: wall (0, 1) is not a facet")


def _reference_wall_relation(fan, wall):
    """`wall_relation` as it solved the kernel by Smith normal form
    (`conftest.int_kernel`), whose one basis vector is primitive."""
    u = _off_ray(fan, wall, wall.cone_a)
    v = _off_ray(fan, wall, wall.cone_b)
    support = list(wall.rays) + [u, v]
    kernel = int_kernel([[fan.rays[i][k] for i in support] for k in range(fan.rank)])
    if len(kernel) != 1:
        raise ValueError(f"relation of wall {wall.rays} is not one-dimensional")
    rel = kernel[0]
    if rel[-2] < 0:
        rel = [-x for x in rel]
    if not (rel[-2] > 0 and rel[-1] > 0):
        raise ValueError(f"cones of wall {wall.rays} lie on one side of it")
    b = [0] * len(fan.rays)
    for i, x in zip(support, rel):
        b[i] = x
    return tuple(b), u, v


def _relation_or_error(fn, fan, wall):
    try:
        return fn(fan, wall)
    except ValueError as exc:
        return str(exc)


def test_wall_relation_matches_the_kernel_reference_on_every_wall():
    fans_ = [f for f in reference_fans() if is_simplicial(f)]
    fans_ = list(dict.fromkeys(fans_ + [f for f, _ in mmp_models()]))
    checked = 0
    for fan in fans_:
        for wall in walls(fan):
            assert wall_relation(fan, wall) == _reference_wall_relation(fan, wall), \
                (fan, wall)
            checked += 1
    assert checked >= 400


_primitive_vectors = st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
    lambda v: any(v) and gcd(*v) == 1)


@given(st.integers(2, 4), st.lists(_primitive_vectors, min_size=5, max_size=5,
                                   unique_by=tuple))
# four coplanar rays in rank 3: the kernel has dimension two
@example(3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_wall_relation_matches_the_kernel_reference_on_drawn_walls(rank, vectors):
    # two simplicial cones on rank + 1 drawn rays sharing rank - 1 of them:
    # dependent rays (a kernel of dimension two) and both off-wall rays on
    # one side give the same ValueError as the reference
    rays = list(dict.fromkeys(primitive(v[:rank]) for v in vectors if any(v[:rank])))
    if len(rays) < rank + 1:
        return
    rays = rays[:rank + 1]
    shared = tuple(range(rank - 1))
    fan = make_fan(rank, rays, [shared + (rank - 1,), shared + (rank,)])
    index = [fan.ray_index(r) for r in rays]
    cone_a = fan.max_cones.index(tuple(sorted(index[:rank])))
    wall = Wall(tuple(sorted(index[:rank - 1])), cone_a, 1 - cone_a)
    mori._circuit.cache_clear()
    assert (_relation_or_error(wall_relation, fan, wall)
            == _relation_or_error(_reference_wall_relation, fan, wall))
