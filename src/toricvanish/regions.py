"""Exact linear inequality systems: feasibility, boundedness, lattice points.

A system is a conjunction of rows <a, x> >= c or <a, x> > c with integer
data, such as `divisors.section_rows`. Feasibility and witnesses come
from Fourier-Motzkin elimination, which handles strict rows natively.
Callers that need only a yes or no ask `is_feasible`, which stops after the
elimination; `feasible` goes on to back-substitute a witness.

Boundedness asks whether the recession cone C = {x : Ax >= 0} is {0}, with
A the rows' covectors. C is the dual of cone(A), so it is read off the
memoized double description `cones.cone_dual`: C = {0} iff that dual has no
ray and no lineality, and otherwise its first lineality vector, or else its
first extreme ray, is a primitive integer recession direction.

Pruning invariant: each eliminated level keeps, per primitive direction
d = a / gcd(a), only the row with the largest bound c / gcd(a), the strict one
on a tie; constant rows (a = 0) are judged when they are made and not stored.
A dropped row is implied by the kept one and so is every combination made
from it, so each level's rows are, up to positive scaling, a subset of the
unpruned level's, and the largest lower and smallest upper bound on every
variable, with their strictness, are the same. Witnesses and lattice points
are therefore those of unpruned elimination. `_tighten` is that rule,
written once.

Elimination: `extend_levels` adds rows to the levels of a feasible system
without eliminating it again, and a whole system is `extend_levels` from
`empty_levels`. Levels are dicts from primitive direction to the tightest
row there. Each level is a set of consequences of the rows, and it implies
every unpruned FM combination of the level above, so it is exactly the
projection, and the system is infeasible iff some combination is a violated
constant row. New rows enter the top level, and at each level below only the
rows that were new or tightened just above are combined: each with every
opposite-sign row there, each pair once. A row that was replaced by a
tighter one leaves only rows below that are implied, so the invariant
holds. From empty levels every row is new, so every pair of a level is
combined once: that is batch elimination. Along a chain of one-row
extensions each combination is made once, where eliminating every prefix
from scratch makes it once per prefix.
"""

from fractions import Fraction
from math import ceil, floor, gcd

from .cones import cone_dual, halfspaces
from .linalg import adapted_basis, invert_unimodular
from .record import Record


class IneqSystem(Record):
    """Rows (a, c, strict) meaning <a, x> >= c, or > c when strict."""

    __slots__ = ("dim", "rows")


def _trivial_row_ok(c, strict):
    # row 0 >= c (or >): holds iff c <= 0 (resp. < 0)
    return c < 0 if strict else c <= 0


def _tighten(best, a, c, s):
    """Record the row <a, x> >= c (or >) in a level.

    A level maps each primitive direction d to (c, g, strict) of its tightest
    row g*d >= c; the zero direction is stored with g = 1. The row is stored
    when its direction is new, when its bound c / g is larger, or when the
    bounds tie and only the row is strict. Returns d when the row was stored,
    None when the stored row already implies it.
    """
    g = gcd(*a)
    if g > 1:
        a = tuple([x // g for x in a])
    else:
        g = 1
    old = best.get(a)
    if old is not None:
        oc, og, os = old
        # compare the bounds c / g and oc / og (g, og > 0)
        lhs, rhs = c * og, oc * g
        if lhs < rhs or (lhs == rhs and (os or not s)):
            return None
    best[a] = (c, g, s)
    return a


def empty_levels(dim):
    """The elimination levels of the empty system in dimension dim."""
    return ({},) * (dim + 1)


def _stored_row(d, entry):
    """The row g*d >= c of a nonzero level entry, divided by gcd(g, c)."""
    c, g, s = entry
    h = gcd(g, c)
    m = g // h
    return (tuple([x * m for x in d]) if m > 1 else d), c // h, s


def extend_levels(levels, rows):
    """The levels of a feasible system plus `rows`, or None when that system
    is infeasible; see the module docstring. `levels` is not modified: the
    levels that change are copied."""
    n = len(levels) - 1
    top = dict(levels[n])
    changed = set()
    for a, c, s in rows:
        if not any(a):
            if not _trivial_row_ok(c, s):
                return None
            continue
        d = _tighten(top, a, c, s)
        if d is not None:
            changed.add(d)
    if not changed:
        return levels
    levels = list(levels)
    levels[n] = top
    for k in range(n - 1, -1, -1):
        above = levels[k + 1]
        best = dict(levels[k])
        stored = set()
        for e in changed:
            a1, c1, s1 = _stored_row(e, above[e])
            p = a1[k]
            if p == 0:
                e2 = _tighten(best, a1, c1, s1)
                if e2 is not None:
                    stored.add(e2)
                continue
            # pair a changed row with every opposite-sign row, and two
            # changed rows only from the side of the positive one
            for f, entry in above.items():
                q = f[k]
                if (q < 0) if p > 0 else (q > 0 and f not in changed):
                    a2, c2, s2 = _stored_row(f, entry)
                    m1, m2 = abs(a2[k]), abs(p)
                    a3 = tuple([m1 * x + m2 * y for x, y in zip(a1, a2)])
                    c3 = m1 * c1 + m2 * c2
                    if not any(a3):
                        if not _trivial_row_ok(c3, s1 or s2):
                            return None
                        continue
                    e2 = _tighten(best, a3, c3, s1 or s2)
                    if e2 is not None:
                        stored.add(e2)
        if not stored:
            break
        levels[k] = best
        changed = stored
    return tuple(levels)


def _bounds_at(levels, k, x):
    """Bounds on variable k given chosen values x[0..k-1]."""
    lo = hi = None
    lo_s = hi_s = False
    for d, entry in levels[k + 1].items():
        if d[k] == 0:
            continue
        a, c, s = _stored_row(d, entry)
        residual = Fraction(c - sum(a[i] * x[i] for i in range(k)), a[k])
        if a[k] > 0:
            if lo is None or residual > lo:
                lo, lo_s = residual, s
            elif residual == lo:
                lo_s = lo_s or s
        else:
            if hi is None or residual < hi:
                hi, hi_s = residual, s
            elif residual == hi:
                hi_s = hi_s or s
    return lo, lo_s, hi, hi_s


def _pick(lo, lo_s, hi, hi_s):
    def ok(t):
        if lo is not None and (t < lo or (t == lo and lo_s)):
            return False
        if hi is not None and (t > hi or (t == hi and hi_s)):
            return False
        return True

    if ok(Fraction(0)):
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_s else hi
    if hi is None:
        return lo + 1 if lo_s else lo
    if lo == hi:
        return lo
    return (lo + hi) / 2


def _feasible_levels(sys):
    """The elimination levels of a feasible system, or None."""
    return extend_levels(empty_levels(sys.dim), sys.rows)


def is_feasible(sys):
    """Whether some point satisfies every row; no witness is built."""
    return _feasible_levels(sys) is not None


def feasible(sys):
    """An exact rational witness satisfying every row, or None."""
    levels = _feasible_levels(sys)
    if levels is None:
        return None
    x = []
    for k in range(sys.dim):
        lo, lo_s, hi, hi_s = _bounds_at(levels, k, x)
        x.append(_pick(lo, lo_s, hi, hi_s))
    return tuple(x)


def recession_is_zero(sys):
    """Whether the recession cone {x : <a, x> >= 0 for every row} is {0}."""
    return cone_dual([a for a, _, _ in sys.rows], sys.dim) == ((), ())


def recession_direction(sys):
    """A primitive integer recession direction of the weak closure, or None:
    the first lineality vector of the recession cone, else its first extreme
    ray (e_0 when there are no rows)."""
    rays, lin = cone_dual([a for a, _, _ in sys.rows], sys.dim)
    return next(iter(lin + rays), None)


def _int_low(v, strict):
    return floor(v) + 1 if strict else ceil(v)


def _int_high(v, strict):
    return ceil(v) - 1 if strict else floor(v)


def _points(levels, n):
    """The integer points of a region from its elimination levels, in
    lexicographic order; raises on a prefix whose next variable is unbounded."""
    def extend(x):
        k = len(x)
        if k == n:
            yield tuple(x)
            return
        lo, lo_s, hi, hi_s = _bounds_at(levels, k, x)
        if lo is None or hi is None:
            raise ValueError("unbounded region")
        for v in range(_int_low(lo, lo_s), _int_high(hi, hi_s) + 1):
            yield from extend(x + [v])

    return extend([])


def lattice_points(sys):
    """All integer points of a bounded region, in lexicographic order; None
    when the region is nonempty and unbounded."""
    levels = _feasible_levels(sys)
    if levels is None:
        return []
    if not recession_is_zero(sys):
        return None
    return list(_points(levels, sys.dim))


def has_lattice_point(sys):
    """Integer feasibility of a possibly unbounded rational region.

    While the region has an integer recession direction, a unimodular change
    of coordinates makes it the last one and the region is replaced by its
    projection. The rotated system is feasible iff the region is, so only a
    bounded region is eliminated itself; a projection's rows are level n-1 of
    the rotated system, and its levels are that system's levels[:n].
    """
    levels = None
    while sys.dim:
        n = sys.dim
        d = recession_direction(sys)
        if d is None:
            break
        V, _ = adapted_basis([d], n)
        W = invert_unimodular(V)
        W = W[1:] + W[:1]
        # x = sum_j y_j W[j] with W[n-1] = +-d; y integral iff x integral, and
        # the y_{n-1} interval over any feasible projection point is infinite
        new_rows = tuple((tuple(sum(a[i] * w[i] for i in range(n)) for w in W), c, s)
                         for a, c, s in sys.rows)
        levels = _feasible_levels(IneqSystem(n, new_rows))
        if levels is None:
            return False
        levels = levels[:n]
        rows = (_stored_row(e, entry) for e, entry in levels[n - 1].items())
        sys = IneqSystem(n - 1, tuple((a[:-1], c, s) for a, c, s in rows))
    if levels is None:
        levels = _feasible_levels(sys)
    return levels is not None and next(_points(levels, sys.dim), None) is not None


def subtract_cones(dim, base_rows, cone_hreps):
    """A witness in the base region outside every listed cone, or None.

    base_rows are normalized row triples; each cone is an (ineqs, eqs) pair
    of integer covectors. Decides exact covering of a region by cones via the
    disjoint set-difference decomposition over each cone's halfspaces.
    """
    pieces = [list(base_rows)]
    for hs in map(halfspaces, cone_hreps):
        new_pieces = []
        for piece in pieces:
            prefix = []
            for h in hs:
                cand = piece + prefix + [(tuple(-x for x in h), 0, True)]
                if is_feasible(IneqSystem(dim, tuple(cand))):
                    new_pieces.append(cand)
                prefix.append((h, 0, False))
        pieces = new_pieces
        if not pieces:
            return None
    return feasible(IneqSystem(dim, tuple(pieces[0])))
