import random
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    cube_fan,
    f1_fan,
    flip_side_a,
    flip_side_b,
    p2_fan,
    ray_divisor,
    reference_fans,
)
from toricvanish import cones, fans, lp, regions, verify
from toricvanish.cohomology import model_cohomology
from toricvanish.corpus import _random_interior_point, curated_instances
from toricvanish.fans import (
    ToricMap,
    check_map,
    identity_map,
    is_complete,
    is_simplicial,
    make_fan,
    properties,
    q_factorialize,
    star_subdivide,
    validate,
)
from toricvanish.linalg import dot, mat_vec, primitive
from toricvanish.mmp import run_mmp
from toricvanish.regions import subtract_cones
from toricvanish.verify import DEFAULT_FIELDS


def test_validate_p2(p2):
    assert validate(p2) == []


@pytest.mark.parametrize("rank, rays, message", [
    (2, [(1, 0, 0), (0, 1)], "ray length does not match rank"),
    (2, [(1, 0), (0, -2)], r"ray \(0, -2\) is not primitive"),
    (0, [()], r"ray \(\) is not primitive"),
    (2, [(1, 0), (0, 1), (1, 0)], "duplicate rays"),
])
def test_make_fan_refuses_bad_rays(rank, rays, message):
    # a rank-0 ray has gcd 0, so it is not primitive either
    with pytest.raises(ValueError, match=message):
        make_fan(rank, rays, [])


def test_validate_overlapping_interiors():
    fan = make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1), (2, 3)])
    defects = validate(fan)
    assert any("not a face" in d for d in defects)


def test_validate_not_strongly_convex():
    fan = make_fan(2, [(1, 0), (-1, 0)], [(0, 1)])
    defects = validate(fan)
    assert any("not strongly convex" in d for d in defects)


def test_validate_interior_ray():
    fan = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
    defects = validate(fan)
    assert any("non-extreme" in d for d in defects)


def test_properties_p2(p2):
    p = properties(p2)
    assert p.simplicial and p.smooth and p.complete and p.support_convex
    assert p.q_gorenstein_index_of_K == 1


def test_properties_flip_side_a():
    fan = flip_side_a()
    p = properties(fan)
    assert p.simplicial
    assert not p.complete
    assert p.support_convex


def test_properties_p112(p112):
    p = properties(p112)
    assert p.simplicial and p.complete and not p.smooth
    # the A_1 point (cone <(1,0),(-1,-2)>, lattice index 2) is Gorenstein
    assert p.q_gorenstein_index_of_K == 1
    from toricvanish.divisors import q_cartier_index

    assert q_cartier_index(p112, ray_divisor(p112, (1, 0))) == 2


def test_properties_cube(cube):
    p = properties(cube)
    assert not p.simplicial
    assert p.complete and p.support_convex
    assert p.q_gorenstein_index_of_K == 1  # K is Cartier on the cube fan


def test_star_subdivide_p2_to_f1(p2):
    out, m = star_subdivide(p2, (1, 1))
    assert out == f1_fan()
    assert len(out.rays) == len(p2.rays) + 1
    res = check_map(m)
    assert res["well_defined"] and res["proper"] and res["birational"]


def test_star_subdivide_flip_sides_agree():
    theta_a, _ = star_subdivide(flip_side_a(), (1, 1, 0))
    theta_b, _ = star_subdivide(flip_side_b(), (1, 1, 0))
    assert theta_a == theta_b
    assert len(theta_a.max_cones) == 4
    assert validate(theta_a) == []


def test_star_subdivide_errors(p2):
    with pytest.raises(ValueError, match="already a ray"):
        star_subdivide(p2, (1, 0))
    fan = flip_side_a()
    with pytest.raises(ValueError, match="outside"):
        star_subdivide(fan, (0, 0, -1))


def test_q_factorialize_simplicial_identity(p2):
    out, m = q_factorialize(p2)
    assert out == p2


def test_q_factorialize_square_cone():
    fan = make_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                   [(0, 1, 2, 3)])
    out, m = q_factorialize(fan)
    assert is_simplicial(out)
    assert out.rays == fan.rays
    assert validate(out) == []
    assert len(out.max_cones) == 2
    # pulling at the lowest-index ray keeps ray 0 in every piece
    assert all(0 in c for c in out.max_cones)


def test_q_factorialize_cube(cube):
    out, m = q_factorialize(cube)
    assert is_simplicial(out)
    assert out.rays == cube.rays
    assert len(out.max_cones) == 12
    assert validate(out) == []
    res = check_map(m)
    assert res["proper"] and res["birational"]
    assert is_complete(out)


def test_check_map_f1_to_p2(p2):
    f1 = f1_fan()
    m = identity_map(f1, p2)
    res = check_map(m)
    assert res == {"well_defined": True, "proper": True, "birational": True}


def test_check_map_projection(p1xp1):
    p1 = make_fan(1, [(1,), (-1,)], [(0,), (1,)])
    m = ToricMap(((1, 0),), p1xp1, p1)
    res = check_map(m)
    assert res["well_defined"] and res["proper"] and not res["birational"]


def test_check_map_support_shrinks(p2):
    partial = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2)])
    m = identity_map(p2, partial)
    res = check_map(m)
    assert not res["proper"]


def test_complete_implies_convex(p2, p1xp1, cube):
    for fan in (p2, p1xp1, cube, flip_side_a()):
        p = properties(fan)
        if p.complete:
            assert p.support_convex


def test_memoized_predicates_agree_with_originals():
    seen = set()
    for fan in reference_fans():
        complete = fans.is_complete.__wrapped__(fan)
        convex = fans.support_is_convex.__wrapped__(fan)
        assert fans.is_complete(fan) is complete
        assert fans.support_is_convex(fan) is convex
        # asked again, the cache answers the same
        assert fans.is_complete(fan) is complete
        assert fans.support_is_convex(fan) is convex
        seen.add((complete, convex))
    assert {(True, True), (False, True), (False, False)} <= seen


def _count_subtract_cones(monkeypatch):
    calls = []
    real = fans.subtract_cones

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fans, "subtract_cones", counted)
    fans.is_complete.cache_clear()
    fans.support_is_convex.cache_clear()
    return calls


def test_is_complete_matches_the_covering_test():
    # the facet incidence decides completeness as Fourier-Motzkin covering does
    seen = set()
    for fan in reference_fans():
        assert validate(fan) == []
        covered = subtract_cones(fan.rank, [], fans._hreps(fan)) is None
        assert is_complete(fan) is covered, fan
        seen.add(covered)
    assert seen == {True, False}


def test_model_cohomology_runs_no_subtract_cones_on_a_complete_fan(monkeypatch):
    calls = _count_subtract_cones(monkeypatch)
    mode, payload = model_cohomology(p2_fan(), (1, 0, 0), DEFAULT_FIELDS)
    assert mode == "complete" and payload["q"] == [3, 0, 0]
    assert calls == []


def test_run_mmp_runs_no_subtract_cones_on_a_complete_fan(monkeypatch):
    calls = _count_subtract_cones(monkeypatch)
    inst = dict(curated_instances())["cubeq-flop"]
    run = run_mmp(inst.fan, inst.d_coeffs, inst.b_coeffs)
    assert run.steps and calls == []


def test_model_cohomology_runs_no_subtract_cones_on_a_relative_fan(monkeypatch):
    calls = _count_subtract_cones(monkeypatch)
    mode, _ = model_cohomology(flip_side_a(), (0, 0, 0, 0), DEFAULT_FIELDS)
    assert mode == "relative"
    assert calls == []


def _reference_support_is_convex(fan):
    """The covering test `support_is_convex` ran before it read boundary
    facets: Fourier-Motzkin set difference of the maximal cones from the
    cone of all rays."""
    if not fan.max_cones or is_complete(fan):
        return True
    hull = cones.cone_dual(fan.rays, fan.rank)
    base = [(w, 0, False) for w in cones.halfspaces(hull)]
    return subtract_cones(fan.rank, base, fans._hreps(fan)) is None


def _subfan(rng, fan):
    """A random nonempty set of maximal cones of a valid fan, on their rays."""
    chosen = rng.sample(fan.max_cones, rng.randint(1, len(fan.max_cones)))
    used = sorted({i for c in chosen for i in c})
    return make_fan(fan.rank, [fan.rays[i] for i in used],
                    [[used.index(i) for i in c] for c in chosen])


def _embed(rng, fan):
    """The fan pushed into rank + 1 by a random unimodular map, so that every
    maximal cone is lower-dimensional."""
    n = fan.rank + 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return make_fan(n, [mat_vec(m, r + (0,)) for r in fan.rays], fan.max_cones)


@lru_cache(maxsize=1)
def _convexity_fans():
    """The reference fans, seeded random subfans of the complete ones at
    ranks 2 to 4, and unimodular embeddings of some subfans into rank + 1."""
    rng, reference = random.Random(21), reference_fans()
    subfans = [_subfan(rng, fan) for fan in reference if is_complete(fan)
               for _ in range(7)]
    embedded = [_embed(rng, fan) for fan in subfans[::2]]
    return tuple(reference + subfans + embedded)


def test_support_is_convex_matches_the_covering_test():
    fans_ = _convexity_fans()
    assert len(fans_) < 400
    assert {fan.rank for fan in fans_} == {2, 3, 4, 5}
    seen = set()
    for fan in fans_:
        assert validate(fan) == [], fan
        convex = fans.support_is_convex(fan)
        assert convex is _reference_support_is_convex(fan), fan
        seen.add((convex, is_complete(fan),
                  all(fans._cone_dim(fan, c) < fan.rank for c in fan.max_cones)))
    # convex and not, complete or not, and with every cone lower-dimensional
    assert {(True, True, False), (True, False, False), (False, False, False),
            (True, False, True), (False, False, True)} <= seen


def test_support_is_convex_runs_no_fourier_motzkin(monkeypatch):
    fans_ = _convexity_fans()
    calls = _count_subtract_cones(monkeypatch)
    real = regions.is_feasible

    def feasible(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(regions, "is_feasible", feasible)
    monkeypatch.setattr(fans, "is_feasible", feasible)
    fans.facet_incidence.cache_clear()
    for fan in fans_:
        fans.support_is_convex(fan)
    assert calls == []


def _reference_star_subdivide(fan, v):
    """`star_subdivide` as it was when it dualized every facet of a cone that
    holds v to ask whether v lies on it."""
    new_cones = []
    for c in fan.max_cones:
        if not fans.cone_contains(fan, c, v):
            new_cones.append(tuple(c))
            continue
        for _, fidx in fans._facets(fan, c):
            if cones.in_cone_hrep(cones.cone_dual([fan.rays[i] for i in fidx], fan.rank), v):
                continue
            new_cones.append(tuple(sorted(fidx + (len(fan.rays),))))
    return make_fan(fan.rank, list(fan.rays) + [v], new_cones)


def _face_point(rng, fan):
    """A primitive point of some maximal cone's face, or of the cone spanned
    by a few of its rays, that is not a ray; None if the draw is one."""
    cone = rng.choice(fan.max_cones)
    weights = {i: rng.randint(1, 2) for i in rng.sample(cone, rng.randint(1, len(cone)))}
    v = primitive(tuple(sum(w * fan.rays[i][k] for i, w in weights.items())
                        for k in range(fan.rank)))
    return None if v in fan.rays else v


def test_star_subdivide_matches_the_facet_dual_version():
    rng = random.Random(5)
    drawn, on_faces, kinds = 0, 0, set()
    for fan in reference_fans():
        for draw in (_random_interior_point, _face_point) * 4:
            v = draw(rng, fan)
            if v is None:
                continue
            out, m = star_subdivide(fan, v)
            assert out == _reference_star_subdivide(fan, v), (fan, v)
            assert m.source == out and m.target == fan
            drawn += 1
            on_faces += sum(fans.cone_contains(fan, c, v) for c in fan.max_cones) > 1
            kinds.add(is_simplicial(fan))
    assert drawn > 200 and on_faces > 20
    assert kinds == {True, False}


def _reference_common_face(ga, gb, dim):
    """The double-description pair test `validate` ran before `_common_face`:
    the intersection's generators, then each cone's smallest face holding
    them, which must lie in the other cone."""
    ha, hb = cones.cone_dual(ga, dim), cones.cone_dual(gb, dim)
    gens, lin = cones.dd_cone(cones.halfspaces(ha) + cones.halfspaces(hb), dim)
    if lin:
        return False
    for crays, hrep, other in ((ga, ha, hb), (gb, hb, ha)):
        zero_normals = [w for w in hrep[0] if all(dot(w, g) == 0 for g in gens)]
        face = [g for g in crays if all(dot(w, g) == 0 for w in zero_normals)]
        if not all(cones.in_cone_hrep(other, g) for g in face):
            return False
    return True


def _all_extreme(gens, dim):
    try:
        return cones.extreme_ray_indices(gens, dim) == tuple(range(len(gens)))
    except ValueError:
        return False


@st.composite
def pointed_cone_pairs(draw):
    """Two pointed cones of dimension at most dim in 2..4, every generator
    extreme, drawn from one small pool of primitive vectors so that they
    often share rays; sums of two pool vectors land on faces of cones that
    hold both, which makes meetings in part of a face."""
    dim = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    vs = draw(st.lists(vec, min_size=3, max_size=7))
    index = st.integers(0, len(vs) - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        vs.append(tuple(x + y for x, y in zip(vs[i], vs[j])))
    pool = sorted({primitive(v) for v in vs if any(v)})
    cone = st.lists(st.sampled_from(pool), min_size=1, max_size=dim + 1, unique=True)
    ga, gb = (tuple(sorted(draw(cone))) for _ in range(2))
    assume(_all_extreme(ga, dim) and _all_extreme(gb, dim))
    return ga, gb, dim


# the six pairs of cones of `cubeq-flop` that no facet-normal sum separates,
# so `_common_face` decides them by Fourier-Motzkin, and one such pair whose
# cones overlap
@given(pointed_cone_pairs())
@example(((((-1, -1, -1), (-1, -1, 1), (-1, 1, 1)),
          ((-1, 1, -1), (1, 1, -1), (1, 1, 1)), 3)))
@example(((((-1, -1, -1), (-1, 1, -1), (-1, 1, 1)),
          ((-1, -1, 1), (1, -1, 1), (1, 1, 1)), 3)))
@example(((((-1, -1, -1), (1, -1, -1), (1, -1, 1)),
          ((-1, -1, 1), (-1, 1, 1), (1, 1, 1)), 3)))
@example(((((-1, -1, -1), (1, -1, -1), (1, 1, -1)),
          ((-1, 1, -1), (-1, 1, 1), (1, 1, 1)), 3)))
@example(((((-1, -1, 1), (-1, 1, 1), (1, 1, 1)),
          ((1, -1, -1), (1, -1, 1), (1, 1, -1)), 3)))
@example(((((-1, 1, -1), (-1, 1, 1), (1, 1, 1)),
          ((1, -1, -1), (1, -1, 1), (1, 1, -1)), 3)))
@example(((((-1, -1, 0), (1, 0, -1)), ((-1, -1, 0), (0, -1, -1)), 3)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_common_face_matches_the_double_description_test(pair):
    assert fans._common_face(*pair) == _reference_common_face(*pair)


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@pytest.mark.parametrize("ga, gb, dim, expected", [
    # meet in a common ray, in a common facet, and only at 0
    (((0, 1), (1, 0)), ((-1, -1), (1, 0)), 2, True),
    ((E1, E2, E3), ((-1, -1, -1), E1, E2), 3, True),
    (((0, 1), (1, 0)), ((-1, 0), (0, -1)), 2, True),
    ((E1, E2), ((-1, -1, 0), (0, 0, 1)), 3, True),
    # interiors overlap
    (((0, 1), (1, 0)), ((-1, 1), (1, 1)), 2, False),
    ((E1, E2, E3), ((0, 1, 1), (1, 0, 1), (1, 1, -1)), 3, False),
    # part of a face of one cone, a whole face of the other
    ((E1, E2, E3), ((0, 0, -1), E2, (1, 1, 0)), 3, False),
    ((E1, E2), ((1, 1, 0), E3), 3, False),
    # a face of one cone that cuts through the other
    (((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), ((-1, 0, 1), (1, 0, 1)), 3, False),
])
def test_common_face_examples(ga, gb, dim, expected):
    ga, gb = tuple(sorted(ga)), tuple(sorted(gb))
    assert _reference_common_face(ga, gb, dim) is expected
    assert fans._common_face(ga, gb, dim) is expected
    assert fans._common_face(gb, ga, dim) is expected


@pytest.mark.parametrize("ga, gb, expected, fourier_motzkin", [
    # one shared ray: both facet-normal sums separate, only the first, only
    # the second, or neither (the cones are planar and meet in that ray)
    (((1, -1, -1),), ((1, -1, -1),), True, False),
    (((-1, 0, 0), (0, 1, -1)), ((-1, 0, 0), (1, 0, -1)), True, False),
    (((1, -1, 0), (1, -1, 1)), ((-1, -1, 1), (1, -1, 0)), True, False),
    (((-1, -1, 0), (0, -1, 0)), ((-1, 0, 1), (0, -1, 0)), True, True),
    # neither separates, and (0,-1,-1) lies inside the first cone
    (((-1, -1, 0), (1, 0, -1)), ((-1, -1, 0), (0, -1, -1)), False, True),
])
def test_common_face_runs_fourier_motzkin_only_when_no_sum_separates(
        ga, gb, expected, fourier_motzkin, monkeypatch):
    calls = []
    real = fans.is_feasible

    def feasible(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(fans, "is_feasible", feasible)
    for pair in ((ga, gb), (gb, ga)):
        fans._common_face.cache_clear()
        calls.clear()
        assert fans._common_face(*pair, 3) is expected
        assert _reference_common_face(*pair, 3) is expected
        assert bool(calls) is fourier_motzkin


def test_cubeq_flop_decides_each_cone_pair_once(monkeypatch):
    # the models of an MMP run share cone pairs, and the pair memo decides
    # each once; validate's first loop has dualized every cone, so its pair
    # loop runs no double description
    real_pair, real_dd = fans._common_face, cones.dd_cone
    asked, inside, dd_in_pairs = [], [], []

    def pair(ga, gb, dim):
        asked.append((ga, gb, dim))
        inside.append(True)
        try:
            return real_pair(ga, gb, dim)
        finally:
            inside.pop()

    def dd(rows, dim):
        if inside:
            dd_in_pairs.append(rows)
        return real_dd(rows, dim)

    for memo in (cones._dual, cones.extreme_ray_indices, real_pair):
        memo.cache_clear()
    monkeypatch.setattr(fans, "_common_face", pair)
    monkeypatch.setattr(cones, "dd_cone", dd)
    verify.verify_mmp(dict(curated_instances())["cubeq-flop"])
    info = real_pair.cache_info()
    assert len(asked) > len(set(asked))
    assert info.misses == len(set(asked))
    assert info.hits == len(asked) - len(set(asked))
    assert not dd_in_pairs


def test_validate_runs_no_simplex_on_simplicial_fans(monkeypatch):
    # every cone of a simplicial fan has linearly independent rays, so all
    # are extreme without an `lp.in_cone` call; `cube`'s cones need them
    calls = []
    real = lp.in_cone

    def counted(v, others):
        calls.append(v)
        return real(v, others)

    monkeypatch.setattr(lp, "in_cone", counted)
    cones.extreme_ray_indices.cache_clear()
    simplicial = [fan for fan in reference_fans() if is_simplicial(fan)]
    assert len(simplicial) > 30
    for fan in simplicial:
        assert validate(fan) == []
    assert calls == []
    assert validate(cube_fan()) == []
    assert len(calls) == 6 * 4


def _separated(ga, gb, dim):
    """Whether the facet-normal sum through the shared generators of either
    cone is <= 0 on every generator of the other, each cone's facets through
    them cutting out exactly their cone; None when such a facet check fails."""
    shared = set(ga) & set(gb)
    sums = []
    for gens in (ga, gb):
        through = [w for w in cones.cone_dual(gens, dim)[0]
                   if all(dot(w, s) == 0 for s in shared)]
        if {g for g in gens if all(dot(w, g) == 0 for w in through)} != shared:
            return None
        sums.append([sum(col) for col in zip(*through)] or [0] * dim)
    return (all(dot(sums[0], g) <= 0 for g in gb)
            or all(dot(sums[1], g) <= 0 for g in ga))


def test_cubeq_flop_runs_fourier_motzkin_only_on_unseparated_pairs(monkeypatch):
    real_pair, real_feasible = fans._common_face, fans.is_feasible
    inside, asked, fm = [], [], []

    def pair(ga, gb, dim):
        asked.append((ga, gb, dim))
        inside.append((ga, gb, dim))
        try:
            return real_pair(ga, gb, dim)
        finally:
            inside.pop()

    def feasible(system):
        fm.append(inside[-1])
        return real_feasible(system)

    real_pair.cache_clear()
    monkeypatch.setattr(fans, "_common_face", pair)
    monkeypatch.setattr(fans, "is_feasible", feasible)
    verify.verify_mmp(dict(curated_instances())["cubeq-flop"])
    verdicts = {p: _separated(*p) for p in set(asked)}
    assert len(fm) == len(set(fm))
    assert set(fm) == {p for p, sep in verdicts.items() if sep is False}
    assert 0 < len(fm) < sum(sep is True for sep in verdicts.values())
