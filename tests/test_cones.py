import random

from hypothesis import given, settings
from hypothesis import strategies as st

from toricvanish.cones import (
    cone_dim,
    cone_dual,
    cone_facets,
    cone_is_pointed,
    cone_lineality,
    dd_cone,
    in_cone_hrep,
)
from toricvanish.linalg import dot


def test_dd_quadrant():
    rays, lin = dd_cone([(1, 0), (0, 1)], 2)
    assert lin == []
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_dd_halfplane():
    rays, lin = dd_cone([(0, 1)], 2)
    assert len(lin) == 1 and lin[0][1] == 0
    assert len(rays) == 1 and rays[0][1] > 0


def test_dd_infeasible_direction_is_origin():
    rays, lin = dd_cone([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert rays == [] and lin == []


def test_hrep_of_zero_cone():
    ineqs, eqs = cone_dual([], 2)
    assert ineqs == []
    assert len(eqs) == 2
    assert in_cone_hrep((ineqs, eqs), (0, 0))
    assert not in_cone_hrep((ineqs, eqs), (1, 0))


def test_cone_facets_square_cone():
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    facets = cone_facets(gens, 3)
    assert len(facets) == 4
    for w, idx in facets:
        assert len(idx) == 2
        assert all(dot(w, gens[i]) == 0 for i in idx)
        assert all(dot(w, g) >= 0 for g in gens)


def test_lineality_and_pointedness():
    assert cone_is_pointed([(1, 0), (0, 1)], 2)
    assert not cone_is_pointed([(1, 0), (-1, 0)], 2)
    lin = cone_lineality([(1, 0), (-1, 0), (0, 1)], 2)
    assert len(lin) == 1 and lin[0][1] == 0
    assert cone_dim([(1, 0), (-1, 0), (0, 1)]) == 2


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_dd_membership_round_trip(gens):
    gens = [g for g in gens if any(g)]
    if not gens:
        return
    hrep = cone_dual(gens, 3)
    # every generator satisfies its own H-representation
    for g in gens:
        assert in_cone_hrep(hrep, g)
    # and so does any small nonnegative combination
    rng = random.Random(7)
    for _ in range(3):
        coeffs = [rng.randint(0, 2) for _ in gens]
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3))
        assert in_cone_hrep(hrep, v)
    # equalities of the H-representation vanish on every generator, and any
    # point off one of them is rejected
    ineqs, eqs = hrep
    for e in eqs:
        assert all(dot(e, g) == 0 for g in gens)
        assert not in_cone_hrep(hrep, tuple(e))
