"""Walls, wall relations and the relative Mori cone.

On a simplicial fan with convex support the torus-invariant wall curves
generate the cone of relative curve classes. A wall curve is kept one way,
as its primitive integer wall relation b (one int per ray): b is its class,
since D.C = sum_rho b_rho a_rho / (b_u b_v) with u and v the off-wall rays,
and b is the direction of its ray in the Mori cone. b is read off the
signed maximal minors of the rays of the wall's two cones (`linalg.det_int`),
so no Smith normal form runs. `extremal_rays` reads the sign of D.C off the
Cartier data in ints, asks only the D-negative classes whether they are
extreme, restricts the relations to the rays off one full-dimensional
maximal cone, which loses nothing, and decides in Z^(rays - rank) with no
double description.

The relation is memoized per process with `lru_cache` on the rank + 1 ray
vectors of the wall's two cones (`_circuit`), not on the fan: an MMP step
changes only the cones it contracts or flips, so the next model's walls
mostly repeat a geometry the last one already solved.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import cones
from .divisors import NotQCartier, cartier_data
from .fans import facet_incidence, is_simplicial
from .linalg import det_int, dot
from .record import Record


class Wall(Record):
    # rays: ray indices of the codimension-1 cone; cone_a, cone_b: indices
    # into fan.max_cones
    __slots__ = ("rays", "cone_a", "cone_b")


def walls(fan):
    """Interior walls (codimension-1 cones with exactly two adjacent cones)."""
    if not is_simplicial(fan):
        raise ValueError("walls require a simplicial fan")
    return [Wall(facet, *adj) for facet, adj in facet_incidence(fan)
            if len(adj) == 2]


def walls_within(fan, groups):
    """The walls whose two cones lie in one group of maximal-cone indices."""
    group_of = {ci: gi for gi, g in enumerate(groups) for ci in g}
    return [w for w in walls(fan) if w.cone_a in group_of
            and group_of[w.cone_a] == group_of.get(w.cone_b)]


def _off_ray(fan, wall, cone_index):
    cone = fan.max_cones[cone_index]
    extra = [i for i in cone if i not in wall.rays]
    if len(extra) != 1:
        raise ValueError(f"wall {wall.rays} is not a facet of cone {cone}")
    return extra[0]


def wall_relation(fan, wall):
    """(b, u, v): the primitive integer relation sum_rho b_rho u_rho = 0 over
    the rays of the wall's two cones, one int per fan ray and zero off them,
    and the off-wall rays u of cone_a and v of cone_b, with b[u], b[v] > 0.
    """
    u = _off_ray(fan, wall, wall.cone_a)
    v = _off_ray(fan, wall, wall.cone_b)
    support = sorted(wall.rays + (u, v))
    if len(support) != fan.rank + 1:
        raise ValueError(f"wall {wall.rays} does not have rank - 1 rays")
    rel = _circuit(tuple(fan.rays[i] for i in support))
    if not any(rel):
        raise ValueError(f"relation of wall {wall.rays} is not one-dimensional")
    sign = -1 if rel[support.index(u)] < 0 else 1
    b = [0] * len(fan.rays)
    for i, x in zip(support, rel):
        b[i] = sign * x
    if not (b[u] > 0 and b[v] > 0):
        raise ValueError(f"cones of wall {wall.rays} lie on one side of it")
    return tuple(b), u, v


@lru_cache(maxsize=4096)
def _circuit(vectors):
    """The primitive integer relation among rank + 1 vectors, unique up to
    sign, or all zeros when their relations are not one-dimensional. A fan's
    rays are sorted, so the vectors of a wall's two cones come in one order
    in every fan that has those two cones.

    The rank x (rank + 1) matrix of the vectors has a one-dimensional kernel
    exactly when its signed maximal minors are not all zero, and then they
    span it (Cramer's rule); divided by their gcd they are its primitive
    generator.
    """
    rel = [(-1) ** j * det_int(vectors[:j] + vectors[j + 1:])
           for j in range(len(vectors))]
    g = gcd(*rel)
    return tuple(x // g for x in rel) if g else tuple(rel)


def intersect(fan, coeffs, wall):
    """D.C for the wall curve, symmetric in the two adjacent cones."""
    cd = cartier_data(fan, coeffs)
    if isinstance(cd, NotQCartier):
        raise ValueError("intersection numbers need a Q-Cartier divisor")
    b, u, v = wall_relation(fan, wall)
    ell = cd.denominator
    delta = tuple(x - y for x, y in zip(cd.numerators[wall.cone_a],
                                        cd.numerators[wall.cone_b]))
    via_b = Fraction(dot(delta, fan.rays[v]), b[u] * ell)
    via_a = Fraction(-dot(delta, fan.rays[u]), b[v] * ell)
    total = Fraction(dot(b, cd.scaled), b[u] * b[v] * ell)
    if not via_a == via_b == total:
        raise RuntimeError(f"wall {wall.rays}: D.C is {via_a}, {via_b} and {total}")
    return total


def extremal_rays(fan, coeffs):
    """The extremal rays of the cone spanned by all wall classes on which the
    Q-Cartier divisor is negative.

    Returns a list of (primitive direction, [walls whose class lies on it]),
    ordered by each ray's smallest representative wall; a wall's direction
    is its relation b.

    D.C = dot(b, A) / (b_u b_v L) with A and L of the Cartier data and b_u,
    b_v, L > 0, so the sign of D.C is the sign of dot(b, A), in ints. Only
    the D-negative classes are asked whether they are extreme, and a lone
    one is extreme without asking: it is no nonnegative combination of
    classes with D.C >= 0. Whether the cone of all classes is pointed is
    still asked. The relations are handed to `cones.extreme_ray_indices`
    restricted to the rays off one full-dimensional maximal cone: a
    relation that vanishes on those rays is a relation among that cone's
    rays, which are linearly independent, so it is 0. The restriction is
    therefore injective, extremality and pointedness do not change, and the
    cone lives in Z^(rays - rank) instead of Z^rays.
    """
    cd = cartier_data(fan, coeffs)
    if isinstance(cd, NotQCartier):
        raise ValueError("extremal rays need a Q-Cartier divisor")
    ws = walls(fan)
    if not ws:
        return []
    directions = {}
    for w in ws:
        directions.setdefault(wall_relation(fan, w)[0], []).append(w)
    ordered = sorted(directions)
    negative = tuple(i for i, d in enumerate(ordered) if dot(d, cd.scaled) < 0)
    cone = fan.max_cones[ws[0].cone_a]
    off = [i for i in range(len(fan.rays)) if i not in cone]
    gens = tuple(tuple(d[i] for i in off) for d in ordered)
    if len(negative) == 1:
        # pointedness only: a lone D-negative class is no nonnegative
        # combination of classes with D.C >= 0
        cones.extreme_ray_indices(gens, len(off), ())
        keep = negative
    else:
        keep = cones.extreme_ray_indices(gens, len(off), negative)
    out = [(ordered[i], directions[ordered[i]]) for i in keep]
    out.sort(key=lambda item: item[1][0].rays)
    return out
