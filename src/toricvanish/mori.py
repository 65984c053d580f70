"""Walls, wall relations and the relative Mori cone.

On a simplicial fan with convex support the torus-invariant wall curves
generate the cone of relative curve classes. A wall curve is kept one way,
as its primitive integer wall relation b (one int per ray): b is its class,
since D.C = sum_rho b_rho a_rho / (b_u b_v) with u and v the off-wall rays,
and b is the direction of its ray in the Mori cone. b is read off the
signed maximal minors of the rays of the wall's two cones (`linalg.det_int`),
so no Smith normal form runs.

`wall_relation` is memoized per process with `lru_cache`, as the fan-level
predicates of `fans` are: a `Fan` and a `Wall` are frozen records
compared structurally, so equal arguments give equal relations.
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


@lru_cache(maxsize=4096)
def wall_relation(fan, wall):
    """(b, u, v): the primitive integer relation sum_rho b_rho u_rho = 0 over
    the rays of the wall's two cones, one int per fan ray and zero off them,
    and the off-wall rays u of cone_a and v of cone_b, with b[u], b[v] > 0.

    The rank x (rank + 1) matrix of those rays has a one-dimensional kernel
    exactly when its signed maximal minors are not all zero, and then they
    span it (Cramer's rule); divided by their gcd they are its primitive
    generator, unique up to sign, and b[u] > 0 fixes the sign.
    """
    u = _off_ray(fan, wall, wall.cone_a)
    v = _off_ray(fan, wall, wall.cone_b)
    support = list(wall.rays) + [u, v]
    if len(support) != fan.rank + 1:
        raise ValueError(f"wall {wall.rays} does not have rank - 1 rays")
    rel = [(-1) ** j * det_int([fan.rays[i] for i in support[:j] + support[j + 1:]])
           for j in range(len(support))]
    g = gcd(*rel)
    if not g:
        raise ValueError(f"relation of wall {wall.rays} is not one-dimensional")
    if rel[-2] < 0:
        g = -g
    rel = [x // g for x in rel]
    if not (rel[-2] > 0 and rel[-1] > 0):
        raise ValueError(f"cones of wall {wall.rays} lie on one side of it")
    b = [0] * len(fan.rays)
    for i, x in zip(support, rel):
        b[i] = x
    return tuple(b), u, v


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


def extremal_rays(fan):
    """Extremal rays of the cone spanned by all wall classes.

    Returns a list of (primitive direction, [walls whose class lies on it]),
    ordered by each ray's smallest representative wall; a wall's direction
    is its relation b.
    """
    ws = walls(fan)
    if not ws:
        return []
    directions = {}
    for w in ws:
        directions.setdefault(wall_relation(fan, w)[0], []).append(w)
    extremal = cones.extreme_rays(sorted(directions))
    out = [(d, directions[d]) for d in extremal]
    out.sort(key=lambda item: item[1][0].rays)
    return out
