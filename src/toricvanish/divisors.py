"""Torus-invariant divisors: Cartier data, positivity, klt pairs, discrepancies.

A divisor on a fan is a tuple of exact rational coefficients, one per ray in
the fan's ray order. Transfers between fans always match rays by value, never
by index.

Cartier data is kept in integers. With m_sigma the covector of a maximal
cone sigma (<m_sigma, u_rho> = -a_rho on the rays of sigma), L is the lcm of
the denominators of every m_sigma entry and every a_rho, so L*D is Cartier
and L is the Q-Cartier index. `CartierData` holds L, the numerators
N_sigma = L*m_sigma and the scaled coefficients A_rho = L*a_rho, all ints.
There is one nef/ample loop, `_nef_test`: it compares <N_sigma, u_rho> with
-A_rho in ints for every (maximal cone, ray) pair, and `positivity` and
`semiample_witness` both read it; the same loop checks that each N_sigma
meets equality on the rays of sigma, so the semiample certificate
(multiple L, sections N_sigma) is checked wherever it is read.
Bigness is decided in ints where a certificate is at hand: every a_rho > 0
(m = 0 is interior to P_D), else a nef D on a complete fan, where
P_D = conv(m_sigma) and the centroid of the m_sigma decides; only the other
divisors run the all-strict Fourier-Motzkin feasibility call.
`mori.intersect` reads the integers and returns an exact `Fraction`.
`pullback` reads a target ray's own coefficient, solves one cone
(`_cone_covector`, shared with the Cartier data) for any other image, and
asks for Cartier data only as a non-simplicial target's Q-Cartier check.
A flip's certificate reads no Cartier data either: `cone_coordinates` gives
the coordinates lambda of a point v in the rays of the first cone that holds
it, so phi_D(v) = sum lambda_rho a_rho for any D Q-Cartier there, and
`discrepancy` is -1 + sum lambda_rho (1 - b_rho). `klt_check` solves for the
Cartier data of K+B only on a fan that is not simplicial: on a simplicial
one every Weil divisor is Q-Cartier.

`cartier_data` is memoized on (fan, coefficients), safe for the same reason
as the `fans` predicates: a `Fan` is frozen and compared structurally.
Callers ask for it by value. The memo is a small LRU because the repeats come
within one instance (hypothesis, positivity, each wall, each MMP step): a
larger one got no more hits on one instance and kept every divisor a
generator tried.
"""

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, lcm

from .fans import cone_contains, full_span, is_complete, is_simplicial
from .linalg import (
    adapted_basis,
    dot,
    int_rank,
    solve_rational,
)
from .regions import (
    IneqSystem,
    has_lattice_point,
    is_feasible,
    lattice_points,
)
from .record import Record


def coeffs_of(fan, mapping, default=Fraction(0)):
    """Divisor from a {ray vector: coefficient} mapping."""
    return tuple(Fraction(mapping.get(r, default)) for r in fan.rays)


def canonical(fan):
    """K = -(sum of all prime torus-invariant divisors)."""
    return tuple(Fraction(-1) for _ in fan.rays)


def principal(fan, m):
    """div(m) = sum <m, u_rho> D_rho for a rational covector m."""
    return tuple(Fraction(dot(m, r)) for r in fan.rays)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scale(c, a):
    return tuple(Fraction(c) * x for x in a)


def round_divisor(coeffs, direction):
    """Coefficientwise ceiling ('up') or floor ('down')."""
    if direction == "up":
        return tuple(Fraction(ceil(x)) for x in coeffs)
    if direction == "down":
        return tuple(Fraction(floor(x)) for x in coeffs)
    raise ValueError("direction must be 'up' or 'down'")


class CartierData(Record):
    """One covector per maximal cone, <m_sigma, u_rho> = -a_rho on sigma, in
    integers: `denominator` is the Q-Cartier index L, `numerators` holds
    N_sigma = L*m_sigma (one int tuple per maximal cone) and `scaled` holds
    A_rho = L*a_rho (one int per ray)."""

    __slots__ = ("denominator", "numerators", "scaled")

    @property
    def covectors(self):
        """The rational covectors m_sigma."""
        return tuple(tuple(Fraction(x, self.denominator) for x in n)
                     for n in self.numerators)


class NotQCartier(Record):
    __slots__ = ("cone_index",)


def cartier_data(fan, coeffs):
    """Solve the per-cone linear systems; NotQCartier carries the witness cone.

    On cones of less-than-full dimension the covector is the canonical one
    vanishing on an adapted-basis complement of the cone's saturated span.
    Solved once per distinct (fan, coefficients) while it stays in the memo.
    """
    return _cartier_data(fan, tuple(coeffs))


@lru_cache(maxsize=32)
def _cartier_data(fan, coeffs):
    covectors = []
    for ci, cone in enumerate(fan.max_cones):
        m = _cone_covector(fan, cone, coeffs)
        if m is None:
            return NotQCartier(ci)
        covectors.append(m)
    ell = lcm(*(x.denominator for m in covectors for x in m),
              *(a.denominator for a in coeffs))

    def scaled(values):
        return tuple(x.numerator * (ell // x.denominator) for x in values)

    return CartierData(ell, tuple(scaled(m) for m in covectors), scaled(coeffs))


def _cone_covector(fan, cone, coeffs):
    """The covector m of one cone, <m, u_rho> = -a_rho on its rays, or None
    when there is none; on a cone of less-than-full dimension, the canonical
    one vanishing on an adapted-basis complement of its saturated span."""
    rays = [fan.rays[i] for i in cone]
    rhs = [-coeffs[i] for i in cone]
    sol = solve_rational([list(r) for r in rays], rhs)
    if sol is None:
        return None
    particular, nullity = sol
    if not nullity:
        return tuple(particular)
    V, r_span = adapted_basis(rays, fan.rank)
    coords = [[sum(ray[i] * V[i][j] for i in range(fan.rank))
               for j in range(r_span)] for ray in rays]
    sub_sol = solve_rational(coords, rhs)
    if sub_sol is None:
        raise RuntimeError(f"cone {cone} has no covector on its adapted basis")
    z = sub_sol[0]
    return tuple(sum(z[j] * V[i][j] for j in range(r_span))
                 for i in range(fan.rank))


def cone_coordinates(fan, v):
    """Coordinates of v in the rays of the first maximal cone that holds it:
    one Fraction per fan ray, 0 off that cone, with sum lambda_rho u_rho = v;
    unique on a simplicial fan. A divisor that is Q-Cartier on that cone has
    the support value phi_D(v) = -<m_sigma, v> = sum lambda_rho a_rho there."""
    v = tuple(v)
    cone = next((c for c in fan.max_cones if cone_contains(fan, c, v)), None)
    if cone is None:
        raise ValueError("point outside the support")
    sol = solve_rational([[fan.rays[i][k] for i in cone] for k in range(fan.rank)], v)
    if sol is None:
        raise RuntimeError(f"cone {cone} holds {v} but does not span it")
    out = [Fraction(0)] * len(fan.rays)
    for i, x in zip(cone, sol[0]):
        out[i] = x
    return tuple(out)


class Positivity(Record):
    __slots__ = ("nef", "ample", "big")


def section_rows(fan, coeffs):
    """The rows <m, u_rho> >= -a_rho of P_D, one per ray, times the lcm of the
    coefficients' denominators, each divided by its gcd: coprime integers."""
    scale = lcm(*(c.denominator for c in coeffs))
    rows = []
    for ray, c in zip(fan.rays, coeffs):
        a = c.numerator * (scale // c.denominator)
        g = gcd(scale * gcd(*ray), a)
        rows.append((tuple([x * scale // g for x in ray]), -a // g, False))
    return tuple(rows)


def section_system(fan, coeffs):
    """P_D = {m : <m, u_rho> >= -a_rho for every ray}."""
    return IneqSystem(fan.rank, section_rows(fan, coeffs))


def polytope_dim(fan, coeffs):
    """Dimension of P_D (-1 when empty), via implicit-equality detection."""
    sys = section_system(fan, coeffs)
    if not is_feasible(sys):
        return -1
    implicit = []
    for i, row in enumerate(sys.rows):
        a, c, _ = row
        probe = IneqSystem(fan.rank, sys.rows + ((a, c, True),))
        if not is_feasible(probe):
            implicit.append(list(a))
    if not implicit:
        return fan.rank
    return fan.rank - int_rank(implicit)


def _nef_test(fan, cd):
    """The nef/ample loop, in ints, over every (maximal cone, ray) pair:
    cones in order, and rays in order within each cone.

    Returns (failure, tight). failure is the first pair (cone index, ray
    index) with <N_sigma, u_rho> < -A_rho, where D is not nef, or None; tight
    says whether some ray off a cone met <N_sigma, u_rho> = -A_rho before it,
    where D is not ample. Raises RuntimeError when N_sigma misses equality
    on a ray of sigma: then the Cartier data is no certificate.
    """
    bounds = [-a for a in cd.scaled]
    tight = False
    for ci, (cone, n) in enumerate(zip(fan.max_cones, cd.numerators)):
        for i, (ray, bound) in enumerate(zip(fan.rays, bounds)):
            val = dot(n, ray)
            if i in cone:
                if val != bound:
                    raise RuntimeError(f"section {n} of {cd.denominator}D "
                                       f"fails ray {ray} of cone {ci}")
            elif val < bound:
                return (ci, i), tight
            elif val == bound:
                tight = True
    return None, tight


def positivity(fan, coeffs):
    """Nef/ample/big verdicts for a Q-Cartier divisor.

    D is big iff P_D is full-dimensional, iff some m satisfies every section
    row <m, u_rho> >= -a_rho strictly, decided in this order:
    1. every a_rho > 0: big, since m = 0 is such a point;
    2. D nef on a complete fan: P_D = conv(m_sigma) (Cox, Little and
       Schenck, Section 6.1), so D is big iff the centroid of the k sections
       is such a point, sum_sigma <N_sigma, u_rho> > -k*A_rho on every ray;
    3. otherwise one feasibility call on the all-strict rows.
    Each step gives the same verdict as polytope_dim(fan, coeffs) == fan.rank.
    """
    cd = cartier_data(fan, coeffs)
    if isinstance(cd, NotQCartier):
        raise ValueError(f"not Q-Cartier (cone {cd.cone_index})")
    failure, tight = _nef_test(fan, cd)
    nef = failure is None
    # fans with a torus factor admit no strictly convex support function
    ample = (nef and not tight and bool(fan.max_cones) and full_span(fan)
             and len(set(cd.numerators)) == len(cd.numerators))
    if all(a > 0 for a in cd.scaled):
        big = True  # m = 0 meets every section row strictly
    elif nef and is_complete(fan):  # the centroid of the k sections
        k = len(cd.numerators)
        total = [sum(col) for col in zip(*cd.numerators)]
        big = all(dot(total, ray) > -k * a for ray, a in zip(fan.rays, cd.scaled))
    else:
        interior = tuple((a, c, True) for a, c, _ in section_rows(fan, coeffs))
        big = is_feasible(IneqSystem(fan.rank, interior))
    return Positivity(nef, ample, big)


class SemiampleWitness(Record):
    # sections: one lattice covector per maximal cone, in P_{lD}
    __slots__ = ("multiple", "sections")


class NotNef(Record):
    __slots__ = ("cone_index", "ray_index")


def semiample_witness(fan, coeffs):
    """Base-point-freeness certificate for a nef divisor: the multiple L of the
    Cartier data, and its numerators N_sigma as the sections of L*D, each
    checked by `_nef_test` (equality on sigma's rays, >= on the others)."""
    cd = cartier_data(fan, coeffs)
    if isinstance(cd, NotQCartier):
        raise ValueError(f"not Q-Cartier (cone {cd.cone_index})")
    failure, _ = _nef_test(fan, cd)
    if failure is not None:
        return NotNef(*failure)
    return SemiampleWitness(cd.denominator, cd.numerators)


def klt_check(fan, b_coeffs):
    """Toric klt criterion: K+B Q-Cartier and every coefficient in [0, 1).

    On a simplicial fan every Weil divisor is Q-Cartier (Cox, Little and
    Schenck, Prop. 4.2.7), so only the coefficients are checked there."""
    for i, b in enumerate(b_coeffs):
        if not (0 <= b < 1):
            return False, f"coefficient {b} at ray {fan.rays[i]} not in [0, 1)"
    if is_simplicial(fan):
        return True, "ok"
    cd = cartier_data(fan, add(canonical(fan), b_coeffs))
    if isinstance(cd, NotQCartier):
        return False, f"K+B not Q-Cartier on cone {fan.max_cones[cd.cone_index]}"
    return True, "ok"


def discrepancy(b_coeffs, coords):
    """Discrepancy of the pair (X, B) at the divisorial valuation of
    v = sum lambda_rho u_rho, given by its `cone_coordinates` lambda.

    a(v) = -1 + phi(v) for the piecewise-linear phi with phi(u_rho) = 1 - b_rho,
    which is linear on the cone holding v: a(v) = -1 + sum lambda_rho (1 - b_rho).
    For v equal to a ray the answer is -b_rho.
    """
    return Fraction(-1) + sum(x * (1 - b) for x, b in zip(coords, b_coeffs))


def pullback(m, coeffs):
    """Pullback of a Q-Cartier divisor along a toric morphism m (target -> source).

    The support function is a_rho at a target ray u_rho. Any other image (the
    new ray of a star subdivision, the removed ray of a divisorial
    contraction) reads the covector of the first target cone that holds it,
    solved for that cone alone. A simplicial target needs no Q-Cartier
    check; on any other the Cartier data is that check.
    """
    tgt = m.target
    coeffs = tuple(coeffs)
    if not is_simplicial(tgt) and isinstance(cartier_data(tgt, coeffs), NotQCartier):
        raise ValueError("pullback needs a Q-Cartier divisor")
    own = dict(zip(tgt.rays, coeffs))
    out = []
    for ray in m.source.rays:
        image = m.apply(ray)
        if image in own:
            out.append(Fraction(own[image]))
            continue
        cone = next((c for c in tgt.max_cones if cone_contains(tgt, c, image)), None)
        if cone is None:
            raise ValueError("point outside the support")
        out.append(-Fraction(dot(_cone_covector(tgt, cone, coeffs), image)))
    return tuple(out)


def pushforward(m, coeffs):
    """Restrict coefficients to the target's rays, matched through the map."""
    src, tgt = m.source, m.target
    images = {}
    for i, ray in enumerate(src.rays):
        img = m.apply(ray)
        if any(img):
            images[tuple(img)] = coeffs[i]
    out = []
    for ray in tgt.rays:
        if ray not in images:
            raise ValueError(f"target ray {ray} is not the image of a source ray")
        out.append(images[ray])
    return tuple(out)


ZERO = "zero"
INFINITE = "infinite"


def h0_dim(fan, coeffs):
    """dim H^0 = #(P_D & M): a count, 'zero', or 'infinite'."""
    sys = section_system(fan, coeffs)
    pts = lattice_points(sys)
    if pts is None:
        return INFINITE if has_lattice_point(sys) else ZERO
    return len(pts) if pts else ZERO


def q_cartier_index(fan, coeffs):
    """Smallest l >= 1 with l*D Cartier, or None if not Q-Cartier."""
    cd = cartier_data(fan, coeffs)
    return None if isinstance(cd, NotQCartier) else cd.denominator
