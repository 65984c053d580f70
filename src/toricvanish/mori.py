"""Walls, wall relations, curve classes and the relative Mori cone.

On a simplicial fan with convex support the torus-invariant wall curves
generate the cone of relative curve classes; classes are represented as
pairing functionals on divisor coefficients, D.C = sum_rho a_rho c_rho.

`wall_relation` is memoized per process with `lru_cache`, as the fan-level
predicates of `fans` are: a `Fan` and a `Wall` are frozen dataclasses
compared structurally, so equal arguments give equal relations.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import cones
from .divisors import NotQCartier, cartier_data
from .fans import facet_incidence, is_simplicial
from .linalg import dot, gcd_list, int_kernel, lcm_list


@dataclass(frozen=True)
class Wall:
    rays: tuple  # ray indices of the codimension-1 cone
    cone_a: int  # indices into fan.max_cones
    cone_b: int


def walls(fan):
    """Interior walls (codimension-1 cones with exactly two adjacent cones)."""
    if not is_simplicial(fan):
        raise ValueError("walls require a simplicial fan")
    return [Wall(facet, *adj) for facet, adj in facet_incidence(fan)
            if len(adj) == 2]


@dataclass(frozen=True)
class WallRelation:
    """Primitive integer relation sum b_i u_i = 0 over the rays of both cones.

    Keys are ray indices; the two off-wall rays carry positive coefficients.
    """

    coeffs: tuple  # tuple of (ray_index, int)

    def as_dict(self):
        return dict(self.coeffs)


def _off_ray(fan, wall, cone_index):
    cone = fan.max_cones[cone_index]
    extra = [i for i in cone if i not in wall.rays]
    if len(extra) != 1:
        raise ValueError(f"wall {wall.rays} is not a facet of cone {cone}")
    return extra[0]


@lru_cache(maxsize=4096)
def wall_relation(fan, wall):
    u = _off_ray(fan, wall, wall.cone_a)
    v = _off_ray(fan, wall, wall.cone_b)
    support = list(wall.rays) + [u, v]
    matrix = [[fan.rays[i][k] for i in support] for k in range(fan.rank)]
    kernel = int_kernel(matrix)
    if len(kernel) != 1:
        raise ValueError(f"relation of wall {wall.rays} is not one-dimensional")
    rel = list(kernel[0])
    upos = support.index(u)
    if rel[upos] < 0:
        rel = [-x for x in rel]
    if not (rel[upos] > 0 and rel[support.index(v)] > 0):
        raise ValueError(f"cones of wall {wall.rays} lie on one side of it")
    return WallRelation(tuple(zip(support, rel)))


def intersect(fan, coeffs, wall):
    """D.C for the wall curve, symmetric in the two adjacent cones."""
    cd = cartier_data(fan, coeffs)
    if isinstance(cd, NotQCartier):
        raise ValueError("intersection numbers need a Q-Cartier divisor")
    b = wall_relation(fan, wall).as_dict()
    u = _off_ray(fan, wall, wall.cone_a)
    v = _off_ray(fan, wall, wall.cone_b)
    ell = cd.denominator
    delta = tuple(x - y for x, y in zip(cd.numerators[wall.cone_a],
                                        cd.numerators[wall.cone_b]))
    via_b = Fraction(dot(delta, fan.rays[v]), b[u] * ell)
    via_a = Fraction(-dot(delta, fan.rays[u]), b[v] * ell)
    total = Fraction(sum(b[i] * cd.scaled[i] for i in b), b[u] * b[v] * ell)
    if not via_a == via_b == total:
        raise RuntimeError(f"wall {wall.rays}: D.C is {via_a}, {via_b} and {total}")
    return total


@dataclass(frozen=True)
class CurveClass:
    """Pairing functional: D.C = sum over rays of a_rho * c_rho."""

    pairing: tuple  # one Fraction per fan ray

    def pair(self, coeffs):
        return sum(c * Fraction(a) for c, a in zip(self.pairing, coeffs))


def curve_class(fan, wall):
    b = wall_relation(fan, wall).as_dict()
    u = _off_ray(fan, wall, wall.cone_a)
    v = _off_ray(fan, wall, wall.cone_b)
    denom = b[u] * b[v]
    pairing = [Fraction(0)] * len(fan.rays)
    for i, bi in b.items():
        pairing[i] = Fraction(bi, denom)
    return CurveClass(tuple(pairing))


def _primitive_direction(pairing):
    den = lcm_list([x.denominator for x in pairing])
    ints = [int(x * den) for x in pairing]
    g = gcd_list(ints)
    return tuple(x // g for x in ints)


def extremal_rays(fan):
    """Extremal rays of the cone spanned by all wall classes.

    Returns a list of (primitive direction, [walls whose class lies on it]),
    ordered by each ray's smallest representative wall.
    """
    ws = walls(fan)
    if not ws:
        return []
    directions = {}
    for w in ws:
        d = _primitive_direction(curve_class(fan, w).pairing)
        directions.setdefault(d, []).append(w)
    gens = sorted(directions)
    extremal = cones.extreme_rays(gens)
    out = []
    for d in extremal:
        out.append((d, directions[d]))
    out.sort(key=lambda item: item[1][0].rays)
    return out
