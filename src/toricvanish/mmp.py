"""Extremal contractions, flips, the common-resolution flip diagram, and the
divisor-directed minimal model program on simplicial fans with convex support.

Each step takes the first D-negative extremal ray (`negative_contractions`)
and contracts it once; a flip step hands that contraction to `flip` and
`flip_diagram` rather than contracting again. Every contraction decision is
read off the ray's integer wall relation b (sum_rho b_rho u_rho = 0), the
direction `mori.extremal_rays` gives the ray, by the sign pattern J+ = {b > 0},
J- = {b < 0} (Reid, Decomposition of toric morphisms; Fujino and Sato,
Introduction to the toric Mori theory):
- J- empty: a fibration, whose fibre spans the rays of J+;
- J- one ray: a divisorial contraction that removes that ray;
- otherwise a flipping contraction. Each merged cone is a circuit, cut into
  the cones without one ray of J+ on X and without one ray of J- after the
  flip, and the flip diagram inserts the ray sum over J+ of b_i u_i.
A failed certificate check raises RuntimeError; a caller's wrong input raises
ValueError. Each flip step carries a certificate with the discrepancy a of
the inserted divisor, the rounding defect b of the pulled-back divisor, the
flip coefficient c, and the case split on -a+b (below 1 or not), including
the unique nonnegative shift m for the low case. All of them are read off the
coordinates of the inserted ray in the cones of the two sides that hold it,
so a flip solves two small systems and asks for no Cartier data.
"""

from fractions import Fraction
from math import ceil, floor

from . import cones
from .divisors import (
    NotQCartier,
    SemiampleWitness,
    cartier_data,
    cone_coordinates,
    discrepancy,
    pullback,
    pushforward,
    round_divisor,
    semiample_witness,
)
from .fans import (
    ToricMap,
    full_span,
    identity_map,
    is_simplicial,
    make_fan,
    star_subdivide,
    support_is_convex,
    validate,
)
from .linalg import (
    adapted_basis,
    dot,
    int_rank,
    mat_vec,
    primitive,
)
from .mori import extremal_rays, intersect, walls_within
from .record import Record

STEP_CAP = 10000


class ContractionResult(Record):
    # kind: "divisorial" | "flipping" | "fibration"; removed_ray: the ray
    # vector of a divisorial contraction; merged_groups: per group, a tuple of
    # source max-cone indices; walls: those whose class spans the contracted
    # ray; relation: their integer wall relation b
    __slots__ = ("kind", "target", "map", "removed_ray", "merged_groups", "walls",
                 "relation")


def _merge_groups(fan, ray_walls):
    parent = list(range(len(fan.max_cones)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for w in ray_walls:
        a, b = find(w.cone_a), find(w.cone_b)
        if a != b:
            parent[a] = b
    groups = {}
    for i in range(len(fan.max_cones)):
        groups.setdefault(find(i), []).append(i)
    return [tuple(v) for _, v in sorted(groups.items())]


def contract(fan, extremal):
    """Contract an extremal ray of the relative Mori cone.

    `extremal` is an entry of mori.extremal_rays: (b, walls). The kind comes
    from J- = {rho : b_rho < 0}, and each merged cone is its group's rays,
    less the one ray of J- for a divisorial contraction.
    """
    b, ray_walls = extremal[0], tuple(extremal[1])
    groups = _merge_groups(fan, ray_walls)
    merged = [g for g in groups if len(g) > 1]
    if not merged:
        raise ValueError("ray contracts nothing")
    minus = {i for i, x in enumerate(b) if x < 0}
    if not minus:
        return _fibration(fan, merged, ray_walls, b)
    removed = minus if len(minus) == 1 else set()
    kind = "divisorial" if removed else "flipping"
    merged_cone_list = [tuple(sorted(set().union(*(fan.max_cones[ci] for ci in g))
                                     - removed)) for g in merged]
    for mc in merged_cone_list:
        simplicial = len(mc) == int_rank([fan.rays[i] for i in mc])
        if simplicial != (kind == "divisorial"):
            raise RuntimeError(f"merged cone {mc} does not fit a {kind} contraction")
    removed_ray = fan.rays[min(removed)] if removed else None

    untouched = [tuple(fan.max_cones[gi[0]]) for gi in groups if len(gi) == 1]
    used = sorted(set().union(*map(set, untouched + merged_cone_list)))
    reindex = {old: pos for pos, old in enumerate(used)}
    target = make_fan(fan.rank, [fan.rays[i] for i in used],
                      [tuple(reindex[i] for i in c) for c in untouched + merged_cone_list])
    defects = validate(target)
    if defects:
        raise RuntimeError("contracted structure is not a fan: " + "; ".join(defects))
    mp = identity_map(fan, target)
    return ContractionResult(kind, target, mp, removed_ray, tuple(merged), ray_walls, b)


def _fibration(fan, merged, ray_walls, b):
    V, k = adapted_basis([fan.rays[i] for i, x in enumerate(b) if x > 0], fan.rank)
    # quotient by the fibre span: keep the last rank-k adapted coordinates
    q_matrix = tuple(tuple(V[i][j] for i in range(fan.rank))
                     for j in range(k, fan.rank))
    new_rank = fan.rank - k
    image_cones = []
    for c in fan.max_cones:
        imgs = []
        for i in c:
            v = mat_vec(q_matrix, fan.rays[i])
            if any(v):
                imgs.append(primitive(v))
        image_cones.append(imgs)
    ray_list = sorted({v for imgs in image_cones for v in imgs})
    cone_sets = []
    for imgs in image_cones:
        if not imgs:
            continue
        keep = cones.extreme_ray_indices(tuple(imgs), new_rank)
        cone_sets.append(tuple(ray_list.index(imgs[i]) for i in keep))
    maximal = []
    for c in cone_sets:
        if not any(set(c) < set(o) for o in cone_sets):
            maximal.append(c)
    target = make_fan(new_rank, ray_list, maximal)
    defects = validate(target)
    if defects:
        raise RuntimeError("fibration target is not a fan: " + "; ".join(defects))
    mp = ToricMap(q_matrix, fan, target)
    return ContractionResult("fibration", target, mp, None, tuple(merged), ray_walls,
                             b)


def negative_contractions(fan, coeffs):
    """Contract, lazily and in extremal_rays order, each extremal ray on which
    the divisor is negative; the MMP step takes the first one."""
    for item in extremal_rays(fan, coeffs):
        yield contract(fan, item)


def flip(fan, contraction, coeffs):
    """The opposite small simplicial model over a flipping contraction of fan."""
    if contraction.kind != "flipping":
        raise ValueError(f"ray is {contraction.kind}, not flipping")
    if intersect(fan, coeffs, contraction.walls[0]) >= 0:
        raise ValueError("divisor is not negative on the flipping ray")
    plus = [i for i, x in enumerate(contraction.relation) if x > 0]
    minus = [j for j, x in enumerate(contraction.relation) if x < 0]
    current = {frozenset(fan.max_cones[ci]) for g in contraction.merged_groups for ci in g}
    new_cones = [tuple(c) for c in fan.max_cones
                 if frozenset(c) not in current]
    flip_families = []
    for g in contraction.merged_groups:
        idx = set().union(*(fan.max_cones[ci] for ci in g))
        group_cones = {frozenset(fan.max_cones[ci]) for ci in g}
        if group_cones != {frozenset(idx - {i}) for i in plus}:
            raise RuntimeError("merged group is not a circuit triangulation")
        family = sorted(tuple(sorted(idx - {j})) for j in minus)
        new_cones.extend(family)
        flip_families.append(family)
    flipped = make_fan(fan.rank, list(fan.rays), new_cones)
    if flipped.rays != fan.rays:
        raise RuntimeError("flipped fan does not keep the rays")
    defects = validate(flipped)
    if defects:
        raise RuntimeError("flipped structure is not a fan: " + "; ".join(defects))
    # strict transform must be ample over the contraction: positive on the
    # new wall curves inside each flipped family
    groups = [[flipped.max_cones.index(c) for c in family] for family in flip_families]
    for w in walls_within(flipped, groups):
        if intersect(flipped, coeffs, w) <= 0:
            raise RuntimeError("strict transform is not relatively ample")
    return flipped


class FlipDiagram(Record):
    # gamma: one Fraction per source ray, F.Gamma = dot(gamma, F); coords:
    # e_ray's `cone_coordinates` on the source, one Fraction per source ray
    __slots__ = ("theta", "e_ray", "gamma", "psi", "psi_prime", "coords")


def flip_diagram(x_fan, x_plus, contraction):
    """Common resolution of the two sides of a flip by one star subdivision,
    at the ray e through sum over J+ of b_i u_i for the contraction's
    relation b, and the 1-cycle Gamma with psi*F = psi'*F' - (F.Gamma) E.

    Both sides are simplicial and, as their subdivisions agree, have the
    same rays in the same order, so a pullback keeps every coefficient of F
    but the one on E, which is sum lambda_i f_i for the coordinates lambda
    of e in the first cone of X that holds it, and sum lambda+_i f_i on X+.
    Hence F.Gamma = dot(lambda+ - lambda, F), from two cone coordinates.
    """
    if contraction.kind != "flipping" or len(contraction.merged_groups) != 1:
        raise ValueError("flip diagram needs a single-circuit flip")
    plus = [(x, u) for x, u in zip(contraction.relation, x_fan.rays) if x > 0]
    e_ray = primitive(tuple(sum(x * u[k] for x, u in plus) for k in range(x_fan.rank)))
    theta, psi = star_subdivide(x_fan, e_ray)
    theta2, psi_prime = star_subdivide(x_plus, e_ray)
    if theta != theta2:
        raise RuntimeError("star subdivisions of the two sides disagree")
    psi_prime = ToricMap(psi_prime.matrix, theta, x_plus)
    coords = cone_coordinates(x_fan, e_ray)
    kappa = tuple(y - x for x, y in zip(coords, cone_coordinates(x_plus, e_ray)))
    if not any(kappa):
        raise RuntimeError("flip diagram produced a zero 1-cycle")
    return FlipDiagram(theta, e_ray, kappa, psi, psi_prime, coords)


class StepCertificate(Record):
    # kind: "divisorial" | "flip"; case: "low" | "high"
    __slots__ = ("kind", "a", "b", "c", "case", "m_shift", "exceptional", "d_y")
    _defaults = (None,) * 6


def step_certificate(x_fan, b_coeffs, d_coeffs, diagram):
    """Per-flip quantities a, b, c, the case tag and the shift m.

    a: discrepancy of (X, B) at the inserted ray; b: ceiling defect of the
    pullback of D there, sum lambda_i d_i for the inserted ray's
    coordinates lambda on X, D's own coefficients on every other ray; c:
    the flip coefficient. Raises unless a > -1, b in [0,1) and c > 0; the
    case split then implies its own bounds: a gap -a + b >= 1 gives
    0 < -a < 1 and 0 < b < 1, and a gap < 1 gives m >= 0 and gap + m in
    [0, 1).
    """
    w = diagram.e_ray
    a = discrepancy(b_coeffs, diagram.coords)
    x_val = dot(diagram.coords, d_coeffs)
    own = dict(zip(x_fan.rays, d_coeffs))
    pb = tuple(x_val if ray == w else own[ray] for ray in diagram.theta.rays)
    e_idx = diagram.theta.ray_index(w)
    b = Fraction(ceil(x_val)) - x_val
    c = -dot(diagram.gamma, d_coeffs)
    if not a > -1:
        raise RuntimeError(f"discrepancy {a} <= -1: pair is not klt")
    if not 0 <= b < 1:
        raise RuntimeError(f"ceiling defect {b} is not in [0, 1)")
    if not c > 0:
        raise RuntimeError(f"flip coefficient {c} <= 0")
    gap = -a + b
    if gap < 1:
        case = "low"
        m_shift = -floor(gap)
        d_y = tuple(x + (m_shift if i == e_idx else 0)
                    for i, x in enumerate(round_divisor(pb, "up")))
    else:
        case = "high"
        m_shift = None
        d_y = round_divisor(pb, "down")
    return StepCertificate("flip", a, b, c, case, m_shift, w, d_y)


class MMPStep(Record):
    # kind: "divisorial" | "flip" | "fibration"
    __slots__ = ("kind", "source_index", "contraction", "certificate", "diagram")
    _defaults = (None,)


class MMPRun(Record):
    # models: fans X_0 .. X_N; end: "nef" | "mori_fibre_space"; end_data: the
    # fibration contraction for an MFS end
    __slots__ = ("models", "divisors", "boundaries", "steps", "end", "end_data")
    _defaults = (None,)


def _check_mmp_input(fan, coeffs, b_coeffs):
    if len(b_coeffs) != len(fan.rays):
        raise ValueError(f"{len(b_coeffs)} boundary coefficients for {len(fan.rays)} rays")
    if not is_simplicial(fan):
        raise ValueError("the divisor-directed program needs a simplicial fan")
    if not support_is_convex(fan):
        raise ValueError("the program needs convex support")
    if fan.rays and not full_span(fan):
        raise ValueError("split off the torus factor first")
    if isinstance(cartier_data(fan, coeffs), NotQCartier):
        raise ValueError("divisor is not Q-Cartier")


def run_mmp(fan, d_coeffs, b_coeffs):
    """Run the D-directed program: contract D-negative extremal rays until
    D is nef or a Mori fibre space appears.

    D is nef where `semiample_witness` returns its checked certificate. On
    a simplicial fan with convex, full-dimensional support, which
    `_check_mmp_input` asks for and every step keeps, that is D.C >= 0 on
    every wall curve (Cox, Little and Schenck, Toric Varieties, section
    6.1).
    """
    _check_mmp_input(fan, d_coeffs, b_coeffs)
    models = [fan]
    divisors = [tuple(Fraction(x) for x in d_coeffs)]
    boundaries = [tuple(Fraction(x) for x in b_coeffs)]
    steps = []
    for _ in range(STEP_CAP):
        x_n, d_n, b_n = models[-1], divisors[-1], boundaries[-1]
        if isinstance(cartier_data(x_n, d_n), NotQCartier):
            raise RuntimeError(f"divisor on model {len(models) - 1} is not Q-Cartier")
        if isinstance(semiample_witness(x_n, d_n), SemiampleWitness):
            return MMPRun(tuple(models), tuple(divisors), tuple(boundaries),
                          tuple(steps), "nef")
        res = next(negative_contractions(x_n, d_n), None)
        if res is None:
            raise RuntimeError("negative wall but no negative extremal ray")
        if res.kind == "fibration":
            steps.append(MMPStep("fibration", len(models) - 1, res, None))
            return MMPRun(tuple(models), tuple(divisors), tuple(boundaries),
                          tuple(steps), "mori_fibre_space", res)
        if res.kind == "divisorial":
            d_next = pushforward(res.map, d_n)
            b_next = pushforward(res.map, b_n)
            pb = pullback(res.map, d_next)
            e_idx = x_n.ray_index(res.removed_ray)
            a = d_n[e_idx] - pb[e_idx]
            if not a > 0:
                raise RuntimeError(f"divisorial coefficient {a} <= 0")
            if tuple(x + (a if i == e_idx else 0) for i, x in enumerate(pb)) != d_n:
                raise RuntimeError("D is not the pullback of its pushforward plus a*E")
            cert = StepCertificate("divisorial", a, exceptional=res.removed_ray)
            steps.append(MMPStep("divisorial", len(models) - 1, res, cert))
            models.append(res.target)
            divisors.append(d_next)
            boundaries.append(b_next)
            continue
        flipped = flip(x_n, res, d_n)
        diagram = flip_diagram(x_n, flipped, res)
        cert = step_certificate(x_n, b_n, d_n, diagram)
        steps.append(MMPStep("flip", len(models) - 1, res, cert, diagram))
        models.append(flipped)
        divisors.append(tuple(d_n))
        boundaries.append(tuple(b_n))
    raise RuntimeError("step cap exceeded; the program did not terminate")
