"""Exact rational polyhedral cones: double description, duals, facets.

Cones are given either by integer generators or by integer inequality rows
{x : <a_i, x> >= 0}. Conversions run the double description method with a
tight-set rank test for extremality, exact over the integers.
"""

from . import lp
from .linalg import (
    dot,
    int_kernel,
    int_rank,
    primitive,
)


def dd_cone(rows, dim):
    """Extreme rays and lineality basis of {x : <a, x> >= 0 for each row}.

    Returns (rays, lineality): primitive integer vectors; rays are extreme
    modulo the lineality space.
    """
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


def cone_dual(gens, dim):
    """Generators of the dual cone {w : <w, g> >= 0 for all g}.

    Returns (rays, lineality); the lineality space is the orthogonal
    complement of span(gens). Read as an H-representation of cone(gens):
    x is in the cone iff <w,x> >= 0 for w in rays and <e,x> = 0 for e in
    lineality.
    """
    return dd_cone([tuple(g) for g in gens], dim)


def in_cone_hrep(hrep, x):
    ineqs, eqs = hrep
    return all(dot(w, x) >= 0 for w in ineqs) and all(dot(e, x) == 0 for e in eqs)


def cone_dim(gens):
    if not gens:
        return 0
    return int_rank([list(g) for g in gens])


def cone_lineality(gens, dim):
    """Basis of the lineality space of cone(gens)."""
    ineqs, eqs = cone_dual(gens, dim)
    rows = [list(w) for w in ineqs] + [list(e) for e in eqs]
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    return int_kernel(rows)


def cone_is_pointed(gens, dim):
    return not cone_lineality(gens, dim)


def cone_facets(gens, dim):
    """Facets of cone(gens) as (normal, tuple of generator indices on it)."""
    normals, _ = cone_dual(gens, dim)
    out = []
    for w in normals:
        idx = tuple(i for i, g in enumerate(gens) if dot(w, g) == 0)
        out.append((w, idx))
    return out


def extreme_ray_indices(gens, dim):
    """Indices of the generators that are extreme rays of the pointed cone(gens)."""
    if not cone_is_pointed(gens, dim):
        raise ValueError("not strongly convex")
    prim = {}
    for i, g in enumerate(gens):
        if any(g):
            p = primitive(g)
            prim.setdefault(p, i)
    out = []
    for p, i in sorted(prim.items(), key=lambda kv: kv[1]):
        others = [q for q in prim if q != p]
        if not lp.in_cone(p, others):
            out.append(i)
    return sorted(out)


def extreme_rays(gens):
    """Minimal generating subset of a strongly convex cone, in input order."""
    gens = [tuple(g) for g in gens]
    nonzero = [g for g in gens if any(g)]
    if not nonzero:
        return []
    dim = len(nonzero[0])
    keep = extreme_ray_indices([g for g in gens], dim)
    return [gens[i] for i in keep]
