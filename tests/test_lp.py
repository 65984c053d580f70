"""Cone membership by the integer Phase-I simplex, checked against the
H-representation from the double description method (an independent
oracle)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricvanish.cones import cone_dual, in_cone_hrep
from toricvanish.lp import in_cone


@st.composite
def membership_cases(draw):
    """Generators in dims 1-5 with duplicate and zero generators, and targets
    that are zero, nonnegative rational combinations, or arbitrary rational
    points."""
    dim = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    gens = draw(st.lists(vec, max_size=7))
    if gens and draw(st.booleans()):
        gens += draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), (0,) * dim)
    kind = draw(st.sampled_from(("zero", "combination", "point")))
    if kind == "zero":
        v = (0,) * dim
    elif kind == "combination" and gens:
        lams = [draw(st.fractions(0, 2, max_denominator=3)) for _ in gens]
        v = tuple(sum(lam * g[k] for lam, g in zip(lams, gens)) for k in range(dim))
    else:
        v = tuple(draw(st.fractions(-3, 3, max_denominator=4)) for _ in range(dim))
    return dim, gens, v


@given(membership_cases())
@settings(max_examples=400, deadline=None)
def test_in_cone_matches_the_dual_cone(case):
    dim, gens, v = case
    assert in_cone(v, gens) == in_cone_hrep(cone_dual(gens, dim), v)


def test_in_cone_hand_cases():
    assert in_cone((1, 1), [(1, 0), (0, 1)])
    assert not in_cone((-1, 0), [(1, 0), (0, 1)])
    assert in_cone((Fraction(1, 2), Fraction(1, 3)), [(1, 0), (0, 1)])
    assert in_cone((0, 0), [])
    assert not in_cone((0, 1), [])
    assert in_cone((), [()])


def test_degenerate_phase_one_terminates():
    # repeated generators and zero right-hand sides tie every ratio test at 0
    rep = [(1, 1, 0), (1, 1, 0), (0, 1, 1), (0, 1, 1), (1, 0, 1), (0, 0, 0)] * 3
    assert in_cone((0, 0, 0), rep)
    assert in_cone((1, 2, 1), rep)
    assert in_cone((1, 1, 0), rep)
    assert not in_cone((1, 0, 0), rep)
    assert not in_cone((0, 0, -1), rep)
    line = [(1, -1)] * 4 + [(-1, 1)] * 4
    assert in_cone((0, 0), line)
    assert in_cone((3, -3), line)
    assert not in_cone((1, 0), line)
