import random
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_row
from toricvanish import regions
from toricvanish.cones import cone_dual, extreme_rays, halfspaces, in_cone_hrep
from toricvanish.linalg import primitive
from toricvanish.regions import (
    IneqSystem,
    feasible,
    has_lattice_point,
    is_feasible,
    lattice_points,
    recession_direction,
    recession_is_zero,
    subtract_cones,
)


def sys_of(dim, triples):
    """The system of the rows (a, c, strict), each normalized by `make_row`."""
    rows = tuple(make_row(a, c, s) for a, c, s in triples)
    assert all(len(a) == dim for a, _, _ in rows)
    return IneqSystem(dim, rows)


def test_feasible_open_interval():
    s = sys_of(1, [((1,), 0, True), ((-1,), -1, True)])  # 0 < x < 1
    w = feasible(s)
    assert w == (Fraction(1, 2),)


def test_infeasible():
    s = sys_of(1, [((1,), 0, False), ((-1,), 1, False)])  # x >= 0, -x >= 1
    assert feasible(s) is None


def test_feasible_chamber_strict():
    # <m,(1,0)> < 1, <m,(0,1)> < 1, <m,(-1,-1)> < 1
    s = sys_of(2, [((-1, 0), -1, True), ((0, -1), -1, True), ((1, 1), -1, True)])
    assert feasible(s) == (0, 0)


def _bounded(sys):
    """A nonempty region whose recession cone is {0}."""
    return is_feasible(sys) and recession_is_zero(sys)


def test_is_bounded():
    square = sys_of(2, [((1, 0), 0, False), ((-1, 0), -1, False),
                        ((0, 1), 0, False), ((0, -1), -1, False)])
    assert _bounded(square)
    half = sys_of(2, [((1, 0), 0, False)])
    assert not _bounded(half)
    chamber = sys_of(2, [((-1, 0), -1, True), ((0, -1), -1, True), ((1, 1), -1, True)])
    assert _bounded(chamber)


def test_lattice_points_triangle():
    # m1 >= -1, m2 >= -1, -m1-m2 >= -1: 10 points
    s = sys_of(2, [((1, 0), -1, False), ((0, 1), -1, False), ((-1, -1), -1, False)])
    pts = lattice_points(s)
    assert len(pts) == 10
    assert pts == sorted(pts)
    assert (-1, -1) in pts and (2, -1) in pts


def test_lattice_points_trivial():
    assert lattice_points(sys_of(1, [((1,), 0, False), ((-1,), 1, False)])) == []
    s = sys_of(1, [((1,), 0, False), ((-1,), 0, False)])
    assert lattice_points(s) == [(0,)]


def test_lattice_points_is_none_only_on_nonempty_unbounded_regions():
    half = sys_of(2, [((1, 0), 0, False)])
    assert lattice_points(half) is None
    # the thin slab is unbounded and has no integer points, but is nonempty
    slab = sys_of(2, [((4, -4), 1, False), ((-3, 3), -1, False)])
    assert lattice_points(slab) is None
    # an empty region has no points, whatever its recession cone
    empty = sys_of(2, [((1, 0), 1, False), ((-1, 0), 0, False)])
    assert lattice_points(empty) == []


def test_has_lattice_point_thin_slab():
    # 1/4 <= x <= 1/3, y >= 0: rationally feasible, no integer points
    s = sys_of(2, [((4, 0), 1, False), ((-3, 0), -1, False), ((0, 1), 0, False)])
    assert feasible(s) is not None
    assert not has_lattice_point(s)
    # widen the slab to include x = 1
    s2 = sys_of(2, [((1, 0), 0, False), ((-1, 0), -1, False), ((0, 1), 0, False)])
    assert has_lattice_point(s2)


def test_has_lattice_point_diagonal_slab():
    # 1/4 <= x - y <= 1/3: both coordinates unbounded, no integer points
    s = sys_of(2, [((4, -4), 1, False), ((-3, 3), -1, False)])
    assert feasible(s) is not None
    assert not has_lattice_point(s)


def brute_force_box(triples, dim, radius=6):
    pts = []
    from itertools import product

    for p in product(range(-radius, radius + 1), repeat=dim):
        ok = True
        for a, c, s in triples:
            v = sum(x * y for x, y in zip(a, p))
            if s and not v > c:
                ok = False
                break
            if not s and not v >= c:
                ok = False
                break
        if ok:
            pts.append(p)
    return pts


def test_random_systems_against_grid():
    rng = random.Random(7)
    for _ in range(120):
        triples = []
        for _ in range(rng.randint(1, 5)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if a == (0, 0):
                a = (1, 0)
            triples.append((a, rng.randint(-4, 4), rng.random() < 0.3))
        s = sys_of(2, triples)
        w = feasible(s)
        grid = brute_force_box(triples, 2, radius=50)
        if w is not None:
            for (a, c, strict), (na, nc, ns) in zip(triples, s.rows):
                val = sum(Fraction(x) * y for x, y in zip(na, w))
                assert val > nc if ns else val >= nc
        else:
            assert grid == []
        if w is not None:
            # recession oracle: with covectors in [-3,3]^2 the recession cone,
            # if nontrivial, contains an integer direction in the same box
            rec_dirs = [d for d in
                        ((dx, dy) for dx in range(-3, 4) for dy in range(-3, 4))
                        if d != (0, 0)
                        and all(a[0] * d[0] + a[1] * d[1] >= 0 for a, c, st in triples)]
            assert _bounded(s) == (not rec_dirs)
        if grid:
            assert has_lattice_point(s)
        if _bounded(s):
            inner = brute_force_box(triples, 2, radius=200)
            assert sorted(lattice_points(s)) == inner
            assert has_lattice_point(s) == bool(inner)


def test_lattice_count_unimodular_invariance():
    rng = random.Random(11)
    base = [((1, 0), -2, False), ((0, 1), -2, False), ((-1, -1), -3, False)]
    s = sys_of(2, base)
    n0 = len(lattice_points(s))
    for _ in range(10):
        # random unimodular transform T: count of {x : A(Tx) >= c} equals n0
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        T = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [b, 1]]
        rows = []
        for cov, c, strict in base:
            newcov = (cov[0] * T[0][0] + cov[1] * T[1][0],
                      cov[0] * T[0][1] + cov[1] * T[1][1])
            rows.append((newcov, c, strict))
        assert len(lattice_points(sys_of(2, rows))) == n0


def test_extreme_rays_examples():
    assert extreme_rays([(1, 0), (0, 1), (1, 1)]) == [(1, 0), (0, 1)]
    assert extreme_rays([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError, match="not strongly convex"):
        extreme_rays([(1, 0), (-1, 0)])


def test_extreme_rays_doubled_classes():
    rays = [(1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (0, 2, 2, 0)]
    out = extreme_rays(rays)
    assert len(out) == 2


def cones_equal(gens_a, gens_b, dim):
    """Mutual containment of two cones given by generators."""
    ha = cone_dual(gens_a, dim)
    hb = cone_dual(gens_b, dim)
    return all(in_cone_hrep(hb, g) for g in gens_a) and \
        all(in_cone_hrep(ha, g) for g in gens_b)


def test_extreme_rays_regenerate_cone():
    rng = random.Random(3)
    for _ in range(25):
        gens = [(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(1, 6))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        sub = extreme_rays(gens)
        assert cones_equal(gens, sub, 3)


def test_subtract_cones_cover():
    # the two halves of the plane cover it
    left = ([(1, 0)], [])
    right = ([(-1, 0)], [])
    assert subtract_cones(2, [], [left, right]) is None
    w = subtract_cones(2, [], [left])
    assert w is not None and w[0] < 0


def test_subtract_cones_covers_a_line_by_two_rays():
    # the x-axis of the plane, as the base region and as two rays' duals:
    # each equation of a ray's H-representation is two halfspaces
    axis = [(w, 0, False) for w in halfspaces(cone_dual([(1, 0), (-1, 0)], 2))]
    right, left = cone_dual([(1, 0)], 2), cone_dual([(-1, 0)], 2)
    assert subtract_cones(2, axis, [right, left]) is None
    w = subtract_cones(2, axis, [right])
    assert w is not None and w[0] < 0 and w[1] == 0


def _reference_eliminate(rows, k):
    """Unpruned Fourier-Motzkin step: every combined row is kept."""
    lows, ups, rest = [], [], []
    for a, c, s in rows:
        if a[k] > 0:
            lows.append((a, c, s))
        elif a[k] < 0:
            ups.append((a, c, s))
        else:
            rest.append((a, c, s))
    out = set(rest)
    for al, cl, sl in lows:
        p = al[k]
        for au, cu, su in ups:
            q = -au[k]
            a = tuple(q * x + p * y for x, y in zip(al, au))
            c = q * cl + p * cu
            g = gcd(*a, c)
            if g:
                a = tuple(x // g for x in a)
                c = c // g
            out.add((a, c, sl or su))
    return sorted(out)


@st.composite
def parallel_rich_systems(draw):
    """Systems with scaled duplicates, strict/non-strict ties and zero rows."""
    dim = draw(st.integers(1, 3))
    coeff = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a = tuple(draw(coeff) for _ in range(dim))
        c = draw(st.integers(-4, 4))
        s = draw(st.booleans())
        rows.append((a, c, s))
        kind = draw(st.sampled_from(("none", "scaled", "tie")))
        lam = draw(st.integers(2, 3))
        if kind == "scaled":
            # e.g. (2,4) >= 3 next to (1,2) >= 1
            rows.append((tuple(lam * x for x in a), lam * c + draw(st.integers(-1, 1)),
                         draw(st.booleans())))
        elif kind == "tie":
            rows.append((tuple(lam * x for x in a), lam * c, not s))
    if draw(st.booleans()):
        rows.append(((0,) * dim, draw(st.integers(-2, 0)), draw(st.booleans())))
    return sys_of(dim, rows)


def _reference_answers(sys):
    """Witness and lattice points (None when unbounded) from unpruned
    elimination, with the same choice rule as `feasible`."""
    levels = [list(sys.rows)]
    for k in range(sys.dim - 1, -1, -1):
        levels.insert(0, _reference_eliminate(levels[0], k))
    if any(not any(a) and (c >= 0 if s else c > 0) for level in levels for a, c, s in level):
        return None, []

    def bounds(k, x):
        lo = hi = None
        lo_s = hi_s = False
        for a, c, s in levels[k + 1]:
            if a[k] == 0:
                continue
            r = Fraction(c - sum(a[i] * x[i] for i in range(k)), a[k])
            if a[k] > 0:
                if lo is None or r > lo:
                    lo, lo_s = r, s
                elif r == lo:
                    lo_s = lo_s or s
            else:
                if hi is None or r < hi:
                    hi, hi_s = r, s
                elif r == hi:
                    hi_s = hi_s or s
        return lo, lo_s, hi, hi_s

    def points(x):
        if len(x) == sys.dim:
            yield tuple(x)
            return
        lo, lo_s, hi, hi_s = bounds(len(x), x)
        low = floor(lo) + 1 if lo_s else ceil(lo)
        high = ceil(hi) - 1 if hi_s else floor(hi)
        for v in range(low, high + 1):
            yield from points(x + [v])

    x = []
    for k in range(sys.dim):
        x.append(regions._pick(*bounds(k, x)))
    return tuple(x), list(points([])) if _bounded(sys) else None


@given(parallel_rich_systems())
@settings(max_examples=300, deadline=None)
def test_pruned_elimination_matches_unpruned(sys):
    want_w, want_pts = _reference_answers(sys)
    assert feasible(sys) == want_w
    assert is_feasible(sys) == (want_w is not None)
    assert lattice_points(sys) == want_pts


def test_elimination_keeps_tightest_parallel_row():
    def rows_at(levels, k):
        return sorted(regions._stored_row(*item) for item in levels[k].items())

    # x + 2y >= 1 and 2x + 4y >= 3 are parallel; only the second binds
    rows = [((1, 2, 1), 1, False), ((2, 4, 1), 3, False), ((0, 0, -1), 0, False)]
    levels = regions.extend_levels(regions.empty_levels(3), rows)
    assert rows_at(levels, 2) == [((2, 4, 0), 3, False)]
    # on a tie the strict row survives; constant rows are judged, not stored
    rows = [((1,), 1, False), ((2,), 2, True), ((0,), -1, False), ((0,), 0, False)]
    levels = regions.extend_levels(regions.empty_levels(1), rows)
    assert rows_at(levels, 1) == [((1,), 1, True)] and rows_at(levels, 0) == []
    assert regions.extend_levels(regions.empty_levels(1), rows + [((0,), 0, True)]) is None
    # x > 1 and x <= 1 combine to the violated constant row 0 > 0
    assert regions.extend_levels(regions.empty_levels(1),
                                 rows[:2] + [((-1,), -1, False)]) is None


@st.composite
def small_systems(draw):
    """Systems of dim 0-3: empty row sets, zero rows, rank-deficient and
    strict rows."""
    dim = draw(st.integers(0, 3))
    coeff = st.integers(-3, 3)
    # rows drawn from a span of 0..dim generators are rank-deficient when
    # fewer than dim generators are drawn
    gens = draw(st.lists(st.tuples(*[coeff] * dim), max_size=dim))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("free", "span", "zero")))
        if kind == "free":
            a = tuple(draw(coeff) for _ in range(dim))
        elif kind == "span":
            lams = [draw(st.integers(-2, 2)) for _ in gens]
            a = tuple(sum(lam * g[i] for lam, g in zip(lams, gens)) for i in range(dim))
        else:
            a = (0,) * dim
        rows.append((a, draw(st.integers(-4, 4)), draw(st.booleans())))
    return sys_of(dim, rows)


def _probe_recession_is_zero(sys):
    """Reference test: the recession cone meets none of the 2*dim probes
    {Ax >= 0, +-x_k >= 1}."""
    rec = tuple((a, 0, False) for a, _, _ in sys.rows)
    n = sys.dim
    for k in range(n):
        for sgn in (1, -1):
            unit = tuple(sgn if i == k else 0 for i in range(n))
            if feasible(IneqSystem(n, rec + ((unit, 1, False),))) is not None:
                return False
    return True


@given(small_systems())
@settings(max_examples=400, deadline=None)
def test_is_feasible_matches_witness(sys):
    assert is_feasible(sys) == (feasible(sys) is not None)


@given(st.one_of(small_systems(), parallel_rich_systems()))
@settings(max_examples=400, deadline=None)
def test_extend_levels_decides_feasibility_of_every_prefix(sys):
    levels = regions.empty_levels(sys.dim)
    for i, row in enumerate(sys.rows):
        levels = regions.extend_levels(levels, (row,))
        assert (levels is not None) == is_feasible(IneqSystem(sys.dim, sys.rows[:i + 1]))
        if levels is None:
            break


@given(st.one_of(small_systems(), parallel_rich_systems()))
@settings(max_examples=400, deadline=None)
def test_one_extension_by_k_rows_matches_k_extensions_by_one(sys):
    batch = regions.extend_levels(regions.empty_levels(sys.dim), sys.rows)
    folded = regions.empty_levels(sys.dim)
    for row in sys.rows:
        folded = regions.extend_levels(folded, (row,))
        if folded is None:
            break
    assert (batch is None) == (folded is None)
    if folded is not None and recession_is_zero(sys):
        assert list(regions._points(folded, sys.dim)) == lattice_points(sys)


@given(small_systems())
@settings(max_examples=400, deadline=None)
def test_boundedness_matches_probes(sys):
    want = _probe_recession_is_zero(sys)
    assert recession_is_zero(sys) == want
    assert _bounded(sys) == (want and feasible(sys) is not None)


@given(small_systems())
@settings(max_examples=400, deadline=None)
def test_recession_direction_is_a_primitive_recession_vector(sys):
    d = recession_direction(sys)
    assert (d is None) == recession_is_zero(sys)
    if d is not None:
        assert len(d) == sys.dim and any(d) and primitive(d) == tuple(d)
        assert all(sum(x * y for x, y in zip(a, d)) >= 0 for a, _, _ in sys.rows)


def test_boundedness_in_dim_zero():
    # the only point of R^0 is 0, so every feasible region there is bounded
    assert _bounded(IneqSystem(0, ()))
    assert _bounded(sys_of(0, [((), -1, False), ((), 0, False)]))
    assert lattice_points(IneqSystem(0, ())) == [()]


def test_is_bounded_eliminates_once_and_dualizes_once(monkeypatch):
    # a bounded rank-3 simplex: one elimination of the whole system for the
    # feasibility guard, and the recession cone read off one dual
    calls = []
    duals = []
    real = regions._feasible_levels
    real_dual = regions.cone_dual

    def counted(sys):
        calls.append(sys)
        return real(sys)

    def counted_dual(gens, dim):
        duals.append(dim)
        return real_dual(gens, dim)

    monkeypatch.setattr(regions, "_feasible_levels", counted)
    monkeypatch.setattr(regions, "cone_dual", counted_dual)
    s = sys_of(3, [((1, 0, 0), -1, False), ((0, 1, 0), -1, False),
                   ((0, 0, 1), -1, False), ((-1, -1, -1), -1, False)])
    assert _bounded(s)
    assert len(calls) == 1
    assert duals == [3]


def _slab():
    # 1/4 <= x - y <= 1/3, 0 <= x + y <= 5, z <= 0: rank 3, recession cone
    # the ray of -e3, no integer points
    return sys_of(3, [((4, -4, 0), 1, False), ((-3, 3, 0), -1, False),
                      ((1, 1, 0), 0, False), ((-1, -1, 0), -5, False),
                      ((0, 0, -1), 0, False)])


def test_has_lattice_point_finds_a_recession_direction_once_per_level(monkeypatch):
    # each recursion level reads its recession direction off one dual, and
    # no level builds a witness
    calls = []
    real = regions.cone_dual

    def counted(gens, dim):
        calls.append(dim)
        return real(gens, dim)

    monkeypatch.setattr(regions, "cone_dual", counted)
    monkeypatch.setattr(regions, "feasible", None)
    assert not has_lattice_point(_slab())
    assert calls == [3, 2]


def test_has_lattice_point_eliminates_only_the_rotated_system(monkeypatch):
    # the slab itself is never eliminated (the rotated system is feasible iff
    # it is), the recession cones are read off duals, and the bounded
    # projection's levels are the rotated system's lower levels
    calls = []
    real = regions._feasible_levels

    def counted(sys):
        calls.append((sys.dim, len(sys.rows)))
        return real(sys)

    monkeypatch.setattr(regions, "_feasible_levels", counted)
    assert not has_lattice_point(_slab())
    assert calls == [(3, 5)]
