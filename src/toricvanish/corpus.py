"""Seed fans and deterministic instance generation.

Instances instantiate the two vanishing hypotheses constructively:
mode 2 picks an ample rational A and sets D = ceil(K+A), B = D-K-A, so that
D-(K+B) = A is ample and B is a klt boundary by construction; mode 1 picks a
rational principal divisor div(s) with lattice witnesses and sets
D = ceil(K+div(s)), B = D-K-div(s), so that D - K - B is exactly principal
and B is a big klt boundary.
"""

import random
from fractions import Fraction

from .divisors import (
    NotQCartier,
    add,
    canonical,
    cartier_data,
    coeffs_of,
    klt_check,
    positivity,
    principal,
    round_divisor,
    sub,
)
from .fans import is_simplicial, make_fan, star_subdivide
from .formats import Instance
from .linalg import primitive

DRAW_BUDGET = 60  # divisor draws per fan before the fan is skipped


def projective_space(n):
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays.append(tuple([-1] * n))
    cones = [tuple(sorted(set(range(n + 1)) - {k})) for k in range(n + 1)]
    return make_fan(n, rays, cones)


def product_fan(a, b):
    rays = [r + tuple([0] * b.rank) for r in a.rays]
    rays += [tuple([0] * a.rank) + r for r in b.rays]
    off = len(a.rays)
    cones = []
    for ca in a.max_cones:
        for cb in b.max_cones:
            cones.append(tuple(ca) + tuple(off + i for i in cb))
    return make_fan(a.rank + b.rank, rays, cones)


def weighted_p112():
    return make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])


def hirzebruch_f1():
    return make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, -1)],
                    [(0, 2), (1, 2), (1, 3), (0, 3)])


def cube_face_fan():
    rays = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    faces = []
    for axis in range(3):
        for sign in (1, -1):
            faces.append(tuple(i for i, r in enumerate(rays) if r[axis] == sign))
    return make_fan(3, rays, faces)


def flip_threefold(w4=(1, 1, -2)):
    return make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), w4],
                    [(0, 1, 2), (0, 1, 3)])


def blowup_plane_origin():
    # A^2 blown up at the origin: support is the first quadrant
    return make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])


def seed_fans(rank):
    p1 = projective_space(1)
    if rank == 2:
        return [
            ("p2", projective_space(2)),
            ("p1xp1", product_fan(p1, p1)),
            ("p112", weighted_p112()),
            ("f1", hirzebruch_f1()),
            ("bl-a2", blowup_plane_origin()),
        ]
    if rank == 3:
        from .fans import q_factorialize

        cube = cube_face_fan()
        return [
            ("p3", projective_space(3)),
            ("p1x3", product_fan(product_fan(p1, p1), p1)),
            ("p1xp2", product_fan(p1, projective_space(2))),
            ("cubeq", q_factorialize(cube)[0]),
            ("cube", cube),
            ("flip2", flip_threefold((1, 1, -2))),
            ("flop", flip_threefold((1, 1, -1))),
        ]
    raise ValueError("corpus generation supports ranks 2 and 3 only")


def _random_interior_point(rng, fan):
    for _ in range(40):
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        weights = [rng.randint(1, 2) for _ in cone]
        v = tuple(sum(w * fan.rays[i][k] for w, i in zip(weights, cone))
                  for k in range(fan.rank))
        if not any(v):
            continue
        v = primitive(v)
        if v in fan.rays:
            continue
        return v
    return None


def mutate(rng, fan, max_rays, steps):
    for _ in range(steps):
        if len(fan.rays) >= max_rays:
            break
        v = _random_interior_point(rng, fan)
        if v is None:
            break
        fan, _ = star_subdivide(fan, v)
    return fan


def _random_fraction(rng, lo_num, hi_num, dens=(2, 3, 4, 5)):
    den = rng.choice(dens)
    num = rng.randint(lo_num * den + 1, hi_num * den - 1)
    return Fraction(num, den)


def _mode2_divisors(rng, fan):
    """(D, B, A): A ample, D = ceil(K+A), B = D-K-A in [0,1)."""
    k = canonical(fan)
    simplicial = is_simplicial(fan)
    for _ in range(DRAW_BUDGET):
        if simplicial:
            a = tuple(_random_fraction(rng, 0, 3) for _ in fan.rays)
        else:
            c = _random_fraction(rng, 0, 3)
            a = tuple(c for _ in fan.rays)  # multiple of -K stays Q-Cartier
        if (isinstance(cartier_data(fan, a), NotQCartier)
                or not positivity(fan, a).ample):
            continue
        d = round_divisor(add(k, a), "up")
        b = sub(sub(d, k), a)
        if not all(0 <= x < 1 for x in b):
            raise RuntimeError("rounding left a boundary coefficient outside [0, 1)")
        ok, _ = klt_check(fan, b)
        if not ok:
            continue
        if isinstance(cartier_data(fan, d), NotQCartier):
            continue
        return d, b, a
    return None


def _mode1_divisors(rng, fan):
    """(D, B, witness): D - K - B = sum q div(m) with B a big klt boundary."""
    k = canonical(fan)
    for _ in range(DRAW_BUDGET):
        m = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
        if not any(m):
            continue
        q = Fraction(1, rng.choice((2, 3, 4, 5)))
        div_s = tuple(q * x for x in principal(fan, m))
        d = round_divisor(add(k, div_s), "up")
        b = sub(sub(d, k), div_s)
        if any(x == 0 for x in b):
            continue  # keep B big on complete fans (0 interior to P_B)
        if not all(0 < x < 1 for x in b):
            raise RuntimeError("rounding left a boundary coefficient outside (0, 1)")
        if isinstance(cartier_data(fan, d), NotQCartier):
            continue
        ok, _ = klt_check(fan, b)
        if not ok:
            continue
        if not positivity(fan, b).big:
            continue
        return d, b, ((q, m),)
    return None


def gen_corpus(seed, rank, max_rays=12, count=10):
    """Deterministic instance list for one rank; see the module docstring."""
    if rank not in (2, 3):
        raise ValueError("rank must be 2 or 3")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if max_rays > 14:
        raise ValueError("max_rays must be at most 14")
    rng = random.Random(f"corpus:{seed}:{rank}")
    seeds = seed_fans(rank)
    smallest = min(len(fan.rays) for _, fan in seeds)
    if max_rays < smallest:
        raise ValueError(f"max_rays must be at least {smallest}, the rays of the "
                         f"smallest rank-{rank} seed fan")
    out = []
    skipped = []
    i = 0
    while len(out) < count and i < 20 * count:
        name, base = seeds[i % len(seeds)]
        i += 1
        fan = base
        if is_simplicial(base) and rng.random() < 0.6:
            fan = mutate(rng, base, max_rays, rng.randint(1, 2))
        if len(fan.rays) > max_rays:  # the seed fan itself is too large
            skipped.append(name)
            continue
        mode = 1 if (is_simplicial(fan) and i % 3 == 0) else 2
        made = _mode1_divisors(rng, fan) if mode == 1 else None
        if made is not None:
            d, b, witness = made
        else:
            mode = 2
            made2 = _mode2_divisors(rng, fan)
            if made2 is None:
                skipped.append(name)
                continue
            d, b, _ = made2
            witness = ()
        label = f"r{rank}-s{seed}-{len(out):03d}-{name}-m{mode}"
        out.append(Instance(label, fan, b, d, mode, witness))
    return out, skipped


def curated_instances():
    """Hand-picked instances, including negative controls and flip exercisers."""
    p2 = projective_space(2)
    out = []
    # negative control: D = K with no boundary; h^2 = 1
    out.append(("control-p2-canonical",
                Instance("control-p2-canonical", p2, coeffs_of(p2, {}),
                         canonical(p2), 2, ())))
    # mode-1 instance with D = -H: exercises a Mori fibre space end
    b = tuple(Fraction(2, 3) for _ in p2.rays)
    d = coeffs_of(p2, {(1, 0): -1})
    out.append(("p2-minus-h",
                Instance("p2-minus-h", p2, b, d, 1,
                         ((Fraction(1, 3), (-2, 1)),))))
    # relative flip instance on the (1,1,-2) threefold: A = D-(K+B) is nef
    # and big over the affine base while D is negative on the flipping wall
    fl = flip_threefold()
    b = coeffs_of(fl, {(1, 0, 0): Fraction(3, 4), (0, 1, 0): Fraction(3, 4),
                       (1, 1, -2): Fraction(1, 4)})
    d = coeffs_of(fl, {(1, 0, 0): 1, (0, 1, 0): 1})
    out.append(("flip2-relative",
                Instance("flip2-relative", fl, b, d, 2, ())))
    # complete threefold whose program flops a cube-face diagonal (high case:
    # -a+b >= 1), then contracts a divisor and ends nef
    from .fans import q_factorialize

    qf = q_factorialize(cube_face_fan())[0]
    d = tuple(Fraction(x) for x in (-1, 1, 0, 2, 2, 2, 0, 1))
    b = tuple(Fraction(n, m) for n, m in
              ((3, 4), (1, 2), (1, 4), (1, 4), (3, 4), (0, 1), (0, 1), (3, 4)))
    out.append(("cubeq-flop", Instance("cubeq-flop", qf, b, d, 2, ())))
    return out
