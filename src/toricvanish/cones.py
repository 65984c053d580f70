"""Exact rational polyhedral cones: double description, duals, facets.

Cones are given either by integer generators or by integer inequality rows
{x : <a_i, x> >= 0}. Conversions run the double description method with a
tight-set rank test for extremality, exact over the integers.

A cone's dual is its H-representation, and facets and the recession cone
of an inequality system (`regions`) are read from it. Every dual comes from
the one memo of duals in the package, `_dual`: an
`lru_cache` keyed on the generator tuple and `dim`, since a dual depends on
the generators alone and not on the fan or system that holds them. Beside
the dual it keeps the facet incidence (which generators lie on each facet
normal), read by `cone_facets`, so the dot products that decide it run once
per generator tuple. It hands out tuples, so no caller can change what later
readers see. `extreme_ray_indices` is memoized the same way and builds no
dual: linearly independent generators span a pointed cone, and only about
dependent ones does it ask the exact simplex of `lp`, once whether the cone
holds a line and once per generator whether it is extreme.
"""

from functools import lru_cache

from . import lp
from .linalg import (
    dot,
    int_rank,
    primitive,
)


def _reduce(v, t, c, pivot):
    """c*v - t*pivot made primitive, where t = <a, v> and c = <a, pivot> > 0;
    v itself when t = 0."""
    if t == 0:
        return v
    return primitive(tuple(c * x - t * y for x, y in zip(v, pivot)))


def dd_cone(rows, dim):
    """Extreme rays and lineality basis of {x : <a, x> >= 0 for each row}.

    Returns (rays, lineality): primitive integer vectors; rays are extreme
    modulo the lineality space.
    """
    lin = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays = []
    processed = []

    def tight_rank(r):
        return int_rank([a for a in processed if dot(a, r) == 0])

    for a in rows:
        a = tuple(a)
        processed.append(a)
        pidx = next((i for i, l in enumerate(lin) if dot(a, l) != 0), None)
        if pidx is not None:
            pivot = lin.pop(pidx)
            c = dot(a, pivot)
            if c < 0:
                pivot = tuple(-x for x in pivot)
                c = -c
            lin = [_reduce(l, dot(a, l), c, pivot) for l in lin]
            rays = [_reduce(r, dot(a, r), c, pivot) for r in rays]
            rays.append(pivot)
            continue
        vals = [dot(a, r) for r in rays]
        pos = [(r, t) for r, t in zip(rays, vals) if t > 0]
        neg = [(r, -t) for r, t in zip(rays, vals) if t < 0]
        candidates = [r for r, _ in pos] + [r for r, t in zip(rays, vals) if t == 0]
        for rp, cp in pos:
            for rn, cn in neg:
                comb = tuple(cn * x + cp * y for x, y in zip(rp, rn))
                if any(comb):
                    candidates.append(primitive(comb))
        target = dim - len(lin) - 1
        rays = [r for r in dict.fromkeys(candidates) if tight_rank(r) >= target]
    return rays, lin


def cone_dual(gens, dim):
    """Generators of the dual cone {w : <w, g> >= 0 for all g}, memoized.

    Returns (rays, lineality) as tuples; the lineality space is the
    orthogonal complement of span(gens). Read as an H-representation of
    cone(gens): x is in the cone iff <w,x> >= 0 for w in rays and <e,x> = 0
    for e in lineality.
    """
    return _dual(tuple(map(tuple, gens)), dim)[0]


@lru_cache(maxsize=16384)
def _dual(gens, dim):
    """((rays, lineality), facet incidence) of cone(gens); see `cone_dual`
    and `cone_facets`."""
    rays, lin = dd_cone(gens, dim)
    incidence = tuple((w, tuple(i for i, g in enumerate(gens) if dot(w, g) == 0))
                      for w in rays)
    return (tuple(rays), tuple(lin)), incidence


def halfspaces(hrep):
    """Covectors w with cone = {x : <w, x> >= 0 for each w}: the
    inequalities, then each equation e as e and -e."""
    ineqs, eqs = hrep
    out = list(ineqs)
    for e in eqs:
        out += [e, tuple(-x for x in e)]
    return out


def in_cone_hrep(hrep, x):
    ineqs, eqs = hrep
    return all(dot(w, x) >= 0 for w in ineqs) and all(dot(e, x) == 0 for e in eqs)


def cone_facets(gens, dim):
    """Facets of cone(gens) as (normal, tuple of generator indices on it): the
    facet incidence that `_dual` keeps beside the dual."""
    return _dual(tuple(map(tuple, gens)), dim)[1]


@lru_cache(maxsize=16384)
def extreme_ray_indices(gens, dim, among=None):
    """Indices of the generators (a tuple of tuples) that are extreme rays of
    the pointed cone(gens), as a sorted tuple; memoized like `_dual`. Only
    the indices in `among` are asked, when it is given.

    Each distinct primitive generator is listed at its first index. When
    they are linearly independent (the cone is simplicial) the cone is
    pointed and each is extreme, since none is a combination of the others.
    Otherwise one exact simplex asks whether the cone holds a line, that is
    whether 0 is a convex combination of the distinct primitive generators,
    and one per asked generator whether the others generate it.
    """
    prim = {}
    for i, g in enumerate(gens):
        if any(g):
            prim.setdefault(primitive(g), i)
    asked = [(p, i) for p, i in prim.items() if among is None or i in among]
    if int_rank(list(prim)) == len(prim):
        return tuple(i for _, i in asked)
    if lp.in_cone((0,) * dim + (1,), [p + (1,) for p in prim]):
        raise ValueError("not strongly convex")
    return tuple(i for p, i in asked
                 if not lp.in_cone(p, [q for q in prim if q != p]))
