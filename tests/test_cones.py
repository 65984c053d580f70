import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricvanish import lp
from toricvanish.cones import (
    cone_dual,
    cone_facets,
    cone_is_pointed,
    dd_cone,
    extreme_ray_indices,
    halfspaces,
    in_cone_hrep,
)
from toricvanish.linalg import dot, int_rank, primitive


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
    assert ineqs == ()
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
    # the quadrant is pointed; a line and the half-plane it bounds have
    # lineality, so they are not
    assert cone_is_pointed([(1, 0), (0, 1)], 2)
    assert not cone_is_pointed([(1, 0), (-1, 0)], 2)
    assert not cone_is_pointed([(1, 0), (-1, 0), (0, 1)], 2)
    assert int_rank([(1, 0), (-1, 0), (0, 1)]) == 2


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


def _reference_dd_cone(rows, dim):
    """The double description as it was before each ray's product with the
    new row was taken once: the reference for order as well as content."""
    lin = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays = []
    processed = []

    def tight_rank(r):
        tight = [a for a in processed if dot(a, r) == 0]
        if not tight:
            return 0
        return int_rank(tight)

    for a in rows:
        a = tuple(a)
        pidx = next((i for i, l in enumerate(lin) if dot(a, l) != 0), None)
        if pidx is not None:
            pivot = lin.pop(pidx)
            c = dot(a, pivot)
            if c < 0:
                pivot = tuple(-x for x in pivot)
                c = -c
            lin = [l if dot(a, l) == 0 else
                   primitive(tuple(c * l[i] - dot(a, l) * pivot[i] for i in range(dim)))
                   for l in lin]
            rays = [r if dot(a, r) == 0 else
                    primitive(tuple(c * r[i] - dot(a, r) * pivot[i] for i in range(dim)))
                    for r in rays]
            rays.append(pivot)
            processed.append(a)
            continue
        pos = [r for r in rays if dot(a, r) > 0]
        neg = [r for r in rays if dot(a, r) < 0]
        zero = [r for r in rays if dot(a, r) == 0]
        candidates = list(pos) + list(zero)
        for rp in pos:
            cp = dot(a, rp)
            for rn in neg:
                cn = -dot(a, rn)
                comb = tuple(cn * rp[i] + cp * rn[i] for i in range(dim))
                if any(comb):
                    candidates.append(primitive(comb))
        processed.append(a)
        seen = set()
        kept = []
        target = dim - len(lin) - 1
        for r in candidates:
            if r in seen:
                continue
            seen.add(r)
            if tight_rank(r) >= target:
                kept.append(r)
        rays = kept
    return rays, lin


@st.composite
def _rows_with_repeats(draw):
    """Rows in dimension 1..4, with duplicate, zero, parallel and opposite
    rows made by scaling drawn rows by 1, 0, 2 and -1 or -3."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = draw(st.lists(vec, max_size=6))
    if rows:
        scaled = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                         st.sampled_from([1, 0, 2, -1, -3])),
                               max_size=4))
        rows += [tuple(k * x for x in rows[i]) for i, k in scaled]
    return draw(st.permutations(rows)), dim


@given(_rows_with_repeats())
@settings(max_examples=300, deadline=None)
def test_dd_cone_matches_reference_in_order(case):
    rows, dim = case
    assert dd_cone(rows, dim) == _reference_dd_cone(rows, dim)


@given(_rows_with_repeats())
@settings(max_examples=150, deadline=None)
def test_pointed_iff_no_lineality(case):
    # a cone holds a line iff it holds the negative of a nonzero generator,
    # asked of the exact simplex rather than read off the dual
    gens, dim = case
    has_line = any(any(g) and lp.in_cone(tuple(-x for x in g), gens) for g in gens)
    assert cone_is_pointed(gens, dim) == (not has_line)


_vec3 = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))


@given(st.lists(_vec3, max_size=4), _vec3)
@settings(max_examples=200, deadline=None)
def test_halfspaces_describe_the_cone(gens, x):
    hrep = cone_dual(gens, 3)
    assert all(dot(w, x) >= 0 for w in halfspaces(hrep)) == in_cone_hrep(hrep, x)


def _reference_extreme_ray_indices(gens, dim):
    """`extreme_ray_indices` as it ran one exact simplex per distinct
    primitive generator, simplicial cone or not."""
    if not cone_is_pointed(gens, dim):
        raise ValueError("not strongly convex")
    prim = {}
    for i, g in enumerate(gens):
        if any(g):
            prim.setdefault(primitive(g), i)
    out = []
    for p, i in prim.items():
        others = [q for q in prim if q != p]
        if not lp.in_cone(p, others):
            out.append(i)
    return tuple(out)


def _extreme_or_error(fn, gens, dim):
    try:
        return fn(gens, dim)
    except ValueError as exc:
        return str(exc)


@given(_rows_with_repeats())
# simplicial: a 1-D cone, one with a repeated and a parallel generator and a
# zero; not simplicial: the square cone; not pointed: a line, a half-plane
@example(([(0, 2, 0), (0, 1, 0)], 3))
@example(([(1, 0), (0, 0), (2, 0), (0, 1), (1, 0)], 2))
@example(([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 2)], 3))
@example(([(3,), (-1,)], 1))
@example(([(1, 0), (-1, 0), (0, 1)], 2))
@example(([(0, 0), (0, 0)], 2))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_extreme_ray_indices_matches_the_simplex_reference(case):
    gens, dim = case
    gens = tuple(gens)
    extreme_ray_indices.cache_clear()
    assert (_extreme_or_error(extreme_ray_indices, gens, dim)
            == _extreme_or_error(_reference_extreme_ray_indices, gens, dim))

