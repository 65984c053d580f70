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
from toricvanish import fans
from toricvanish.corpus import curated_instances, seed_fans
from toricvanish.fans import (
    ToricMap,
    check_map,
    identity_map,
    incidence_complex,
    is_complete,
    is_simplicial,
    make_fan,
    properties,
    q_factorialize,
    star_subdivide,
    validate,
)
from toricvanish.verify import DEFAULT_FIELDS, _model_cohomology


def test_validate_p2(p2):
    assert validate(p2) == []


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
    from toricvanish.divisors import q_cartier_index, ray_divisor

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


def test_incidence_complex(p2, p3):
    ic = incidence_complex(p2)
    assert set(ic.facets) == {(0, 1), (0, 2), (1, 2)}
    ic3 = incidence_complex(p3)
    assert len(ic3.facets) == 4 and all(len(f) == 3 for f in ic3.facets)
    f1 = f1_fan()
    icf = incidence_complex(f1)
    assert len(icf.facets) == 4 and all(len(f) == 2 for f in icf.facets)


def test_incidence_complex_non_simplicial(cube):
    with pytest.raises(ValueError):
        incidence_complex(cube)


def test_complete_implies_convex(p2, p1xp1, cube):
    for fan in (p2, p1xp1, cube, flip_side_a()):
        p = properties(fan)
        if p.complete:
            assert p.support_convex


def _fans_to_check():
    out = [p2_fan(), p1xp1_fan(), f1_fan(), p112_fan(), p3_fan(), cube_fan(),
           flip_side_a(), flip_side_b()]
    out += [inst.fan for _, inst in curated_instances()]
    out += [fan for rank in (2, 3) for _, fan in seed_fans(rank)]
    # convex support, not complete: the first quadrant
    out.append(make_fan(2, [(1, 0), (0, 1)], [(0, 1)]))
    # support not convex: two cones spanning 225 degrees
    out.append(make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2)]))
    return out


def test_memoized_predicates_agree_with_originals():
    seen = set()
    for fan in _fans_to_check():
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


def test_model_cohomology_runs_one_subtract_cones_on_a_complete_fan(monkeypatch):
    calls = _count_subtract_cones(monkeypatch)
    mode, payload = _model_cohomology(p2_fan(), (1, 0, 0), DEFAULT_FIELDS)
    assert mode == "complete" and payload["q"] == [3, 0, 0]
    assert len(calls) == 1


def test_model_cohomology_runs_one_subtract_cones_on_a_relative_fan(monkeypatch):
    calls = _count_subtract_cones(monkeypatch)
    mode, _ = _model_cohomology(flip_side_a(), (0, 0, 0, 0), DEFAULT_FIELDS)
    assert mode == "relative"
    assert len(calls) == 1
