"""Fans of strongly convex rational polyhedral cones and toric morphisms.

A fan stores primitive ray generators plus maximal cones as ray-index sets.
Rays are kept lexicographically sorted and cone index sets sorted, so fan
equality is structural.

Which maximal cones share a facet is decided in one place,
`facet_incidence`: completeness and the walls of `mori` both read it, so
`is_complete` runs no Fourier-Motzkin (FM). `support_is_convex` reads the
same facet normals: a support is convex iff every ray lies on the inner side
of every boundary facet, so it runs no FM either, and `star_subdivide` finds
the facets through a new ray by <w, v> = 0. No fan predicate takes a set
difference of cones; only `check_map`'s properness test does. These, the
torus-factor test `full_span` and the per-cone dimensions, are memoized
per process with `lru_cache`. This is
safe because a `Fan` is a frozen record compared structurally: equal fans
give equal answers, and no fan changes after it is built. Each cone's
H-representation (`cones.cone_dual`) and its facet incidence (which of its
generators lie on each facet, `cones.cone_facets`, read by `_facets` and the
pair test) come off one memo of `cones` keyed on its generators.

`validate` decides a fan whose maximal cones are all simplicial and
full-dimensional by a certificate (`_is_triangulation`): the facet matching
that `is_complete` reads, opposite sides across each facet, and one generic
point in exactly one cone. Every other fan, and one that fails the
certificate, goes through the pairwise loop, which alone writes defects: its
common-face test of each pair of maximal cones (`_common_face`) is memoized
on the two generator tuples, and runs FM only on the pairs that no sum of
facet normals separates.
"""

from collections import Counter
from functools import lru_cache
from itertools import count
from math import gcd

from . import cones
from .linalg import (
    det_int,
    dot,
    int_rank,
    mat_vec,
    primitive,
    snf_diagonal,
)
from .record import Record
from .regions import IneqSystem, is_feasible, subtract_cones


class Fan(Record):
    __slots__ = ("rank", "rays", "max_cones")

    def ray_index(self, v):
        return self.rays.index(tuple(v))


def make_fan(rank, rays, max_cones):
    """Build a normalized Fan: rays sorted, index sets remapped and sorted."""
    rays = [tuple(int(x) for x in r) for r in rays]
    for r in rays:
        if len(r) != rank:
            raise ValueError("ray length does not match rank")
        if gcd(*r) != 1:
            raise ValueError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    remap = {old: new for new, old in enumerate(order)}
    sorted_rays = tuple(rays[i] for i in order)
    new_cones = sorted({tuple(sorted(remap[i] for i in set(c))) for c in max_cones})
    return Fan(rank, sorted_rays, tuple(new_cones))


@lru_cache(maxsize=16384)
def _cone_dim(fan, cone):
    return int_rank([fan.rays[i] for i in cone])


def cone_contains(fan, cone, v):
    return cones.in_cone_hrep(cones.cone_dual([fan.rays[i] for i in cone], fan.rank), v)


def _facets(fan, cone):
    """Facets of a maximal cone as tuples of ray indices."""
    facets = cones.cone_facets([fan.rays[i] for i in cone], fan.rank)
    return [(w, tuple(cone[i] for i in idx)) for w, idx in facets]


def validate(fan):
    """Every Fan invariant; returns a list of defects (empty when valid)."""
    defects = []
    used = set()
    for c in fan.max_cones:
        used.update(c)
        gens = tuple(fan.rays[i] for i in c)
        if not c:
            defects.append("empty cone listed")
            continue
        try:
            extreme = set(cones.extreme_ray_indices(gens, fan.rank))
        except ValueError:
            defects.append(f"cone {c} is not strongly convex")
            continue
        if extreme != set(range(len(gens))):
            bad = [c[i] for i in range(len(gens)) if i not in extreme]
            defects.append(f"cone {c} lists non-extreme rays {bad}")
    if set(range(len(fan.rays))) - used:
        missing = sorted(set(range(len(fan.rays))) - used)
        defects.append(f"rays {missing} appear in no cone")
    if defects or _is_triangulation(fan):
        return defects
    for ai in range(len(fan.max_cones)):
        for bi in range(ai + 1, len(fan.max_cones)):
            ca, cb = fan.max_cones[ai], fan.max_cones[bi]
            if set(ca) <= set(cb) or set(cb) <= set(ca):
                defects.append(f"cone {ca} is a face of cone {cb}")
                continue
            if not _common_face(tuple(fan.rays[i] for i in ca),
                                tuple(fan.rays[i] for i in cb), fan.rank):
                defects.append(f"intersection of cones {ca} and {cb} is not a face")
    return defects


def _is_triangulation(fan):
    """Whether the maximal cones, all simplicial and full-dimensional with
    rank >= 2, certainly form a complete fan; False when that certificate
    does not apply or fails, and the pairwise test then decides.

    The certificate: each facet lies in exactly two maximal cones, whose
    off-facet rays lie strictly on opposite sides of it, and one generic
    point is interior to exactly one cone. This is the pseudo-manifold and
    interior-point characterization of triangulations (De Loera, Rambau and
    Santos, Triangulations, 2010):
    - Along a path in general position, which meets cone boundaries only in
      relative interiors of facets, crossing a facet leaves one of its two
      cones and enters the other. So every point off the boundaries lies in
      as many cones as the generic point: one. The cones cover R^rank with
      disjoint interiors.
    - Near a point of the relative interior of a face G, the boundaries of
      the union of the cones through G lie in faces of codimension 2, since
      every facet through G is matched; they do not disconnect a small
      ball, so those cones cover it, and no other cone meets G there. Hence
      a cone that meets the relative interior of a face G of another has G
      as a face, and two cones meet in a common face.

    The generic point is sum_i t^i r_i over the first cone's rays r_i, for
    t = 1, 2, ...: it lies on a facet hyperplane for at most rank - 1 values
    of t per hyperplane, since the first cone is full-dimensional.
    """
    if fan.rank < 2 or not (is_simplicial(fan) and is_complete(fan)):
        return False
    normals = {}
    for c in fan.max_cones:
        for w, f in _facets(fan, c):
            normals.setdefault(f, w)
    for f, (a, b) in facet_incidence(fan):
        (off,) = set(fan.max_cones[b]) - set(f)
        if dot(normals[f], fan.rays[off]) >= 0:
            return False
    first = [fan.rays[i] for i in fan.max_cones[0]]
    hreps = [cones.cone_dual([fan.rays[i] for i in c], fan.rank)[0]
             for c in fan.max_cones]
    for t in count(1):
        p = [sum(t ** i * r[k] for i, r in enumerate(first)) for k in range(fan.rank)]
        signs = [min(dot(w, p) for w in ws) for ws in hreps]
        if 0 not in signs:
            return sum(x > 0 for x in signs) == 1


@lru_cache(maxsize=16384)
def _common_face(ga, gb, dim):
    """Whether cone(ga) and cone(gb) meet in a face of each (Cox, Little and
    Schenck, Lemma 1.2.13), with S the shared generators.

    Each cone's facets through S must cut out exactly cone(S), which the
    facet incidence of `cones.cone_facets` decides without a dot product.
    The sum t of one cone's facet normals through S is then >= 0 on that
    cone and zero on it exactly on cone(S), so the cones meet in cone(S)
    iff no common point has t > 0. The certificate comes first: if t <= 0
    on every generator of the other cone, for either cone's t, no common
    point has t > 0. Only when neither sum separates the cones does one
    Fourier-Motzkin feasibility system look for such a point.
    """
    shared = set(ga) & set(gb)
    sums = []
    for gens in (ga, gb):
        on_shared = {i for i, g in enumerate(gens) if g in shared}
        zero = [(w, idx) for w, idx in cones.cone_facets(gens, dim)
                if on_shared.issubset(idx)]
        if set(range(len(gens))).intersection(*(idx for _, idx in zero)) != on_shared:
            return False
        sums.append(tuple(map(sum, zip(*(w for w, _ in zero)))) or (0,) * dim)
    ta, tb = sums
    if all(dot(ta, g) <= 0 for g in gb) or all(dot(tb, g) <= 0 for g in ga):
        return True
    rows = [(w, 0, False) for gens in (ga, gb)
            for w in cones.halfspaces(cones.cone_dual(gens, dim))]
    return not is_feasible(IneqSystem(dim, tuple(rows) + ((ta, 0, True),)))


class FanProperties(Record):
    __slots__ = ("simplicial", "smooth", "complete", "support_convex",
                 "q_gorenstein_index_of_K")


def _is_simplicial_cone(fan, cone):
    return len(cone) == _cone_dim(fan, cone)


def _is_smooth_cone(fan, cone):
    if not _is_simplicial_cone(fan, cone):
        return False
    divs = snf_diagonal([list(fan.rays[i]) for i in cone])
    return all(d == 1 for d in divs)


def is_simplicial(fan):
    return all(_is_simplicial_cone(fan, c) for c in fan.max_cones)


@lru_cache(maxsize=4096)
def facet_incidence(fan):
    """Each facet of a full-dimensional maximal cone, as its sorted ray-index
    tuple, with the ascending indices of the full-dimensional maximal cones
    that have it: a tuple of (facet, cone indices) pairs sorted by facet."""
    seen = {}
    for ci, c in enumerate(fan.max_cones):
        if _cone_dim(fan, c) == fan.rank:
            for _, fidx in _facets(fan, c):
                seen.setdefault(fidx, []).append(ci)
    return tuple((f, tuple(seen[f])) for f in sorted(seen))


@lru_cache(maxsize=4096)
def support_is_convex(fan):
    """Whether the union of cones equals the cone generated by all rays.

    A convex support of dimension d is a union of its d-dimensional cones,
    so a maximal cone of another dimension rules it out. Otherwise, with a
    boundary facet one that lies in a single maximal cone, the support is
    convex iff every ray lies on the inner side of every boundary facet
    (Tietze-Nakajima; Cox, Little and Schenck, Toric Varieties, section
    6.1). (=>) A convex support lies on the inner side of each boundary
    facet's hyperplane. (<=) A generic segment from an interior point to a
    point of the rays' cone outside the support leaves it through the
    relative interior of a boundary facet, so that point, and hence some
    ray, lies on the outer side. When every cone is lower-dimensional, the
    normals `_facets` reads are exact on the span, and the same test holds.
    """
    if not fan.max_cones or is_complete(fan):
        return True
    span = int_rank(fan.rays)
    if any(_cone_dim(fan, c) != span for c in fan.max_cones):
        return False
    facets = [wf for c in fan.max_cones for wf in _facets(fan, c)]
    seen = Counter(f for _, f in facets)
    return all(dot(w, r) >= 0 for w, f in facets if seen[f] == 1 for r in fan.rays)


@lru_cache(maxsize=4096)
def full_span(fan):
    """Whether the fan has rays and they span R^rank, so that it has no torus
    factor."""
    return bool(fan.rays) and int_rank(fan.rays) == fan.rank


@lru_cache(maxsize=4096)
def is_complete(fan):
    """Whether the support of a valid fan (`validate` finds no defect) is all
    of R^rank: rank 0, or some maximal cone, every maximal cone
    full-dimensional, and every facet in exactly two maximal cones.

    In a valid fan two full-dimensional cones that share a facet lie on
    opposite sides of it, so a point in the relative interior of such a
    facet is interior to the support. The boundary of the support then lies
    in the cones of codimension at least 2, which do not disconnect R^rank;
    a nonempty support with interior is therefore everything (Cox, Little
    and Schenck, Toric Varieties, section 3.1).
    """
    if fan.rank == 0:
        return True
    return (bool(fan.max_cones)
            and all(_cone_dim(fan, c) == fan.rank for c in fan.max_cones)
            and all(len(adj) == 2 for _, adj in facet_incidence(fan)))


def properties(fan):
    from .divisors import canonical, q_cartier_index

    defects = validate(fan)
    if defects:
        raise ValueError("invalid fan: " + "; ".join(defects))
    return FanProperties(
        simplicial=is_simplicial(fan),
        smooth=all(_is_smooth_cone(fan, c) for c in fan.max_cones),
        complete=is_complete(fan),
        support_convex=support_is_convex(fan),
        q_gorenstein_index_of_K=q_cartier_index(fan, canonical(fan)),
    )


class ToricMap(Record):
    """Lattice homomorphism (matrix rows act as x -> M @ x) between fans."""

    __slots__ = ("matrix", "source", "target")

    def apply(self, v):
        return mat_vec(self.matrix, v)


def identity_map(source, target):
    n = source.rank
    return ToricMap(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
                    source, target)


def star_subdivide(fan, v):
    """Star subdivision at a primitive vector in the support (new ray v)."""
    v = tuple(v)
    if primitive(v) != v:
        raise ValueError("subdivision point must be primitive")
    if v in fan.rays:
        raise ValueError("already a ray")
    holding = [c for c in fan.max_cones if cone_contains(fan, c, v)]
    if not holding:
        raise ValueError("point outside the support")
    # v lies on the facet of a cone that holds it iff <w, v> = 0
    new_cones = [c for c in fan.max_cones if c not in holding]
    new_cones += [f + (len(fan.rays),) for c in holding
                  for w, f in _facets(fan, c) if dot(w, v)]
    out = make_fan(fan.rank, list(fan.rays) + [v], new_cones)
    return out, identity_map(out, fan)


def _pull_triangulate(fan, cone):
    """Pulling triangulation of a cone at its lowest-index ray, recursively."""
    if _is_simplicial_cone(fan, cone):
        return [tuple(sorted(cone))]
    r0 = min(cone)
    pieces = []
    for _, fidx in _facets(fan, cone):
        if r0 in fidx:
            continue
        for sub in _pull_triangulate(fan, fidx):
            pieces.append(tuple(sorted(set(sub) | {r0})))
    return pieces


def q_factorialize(fan):
    """Simplicial subdivision on the same rays (small): pulling triangulation."""
    if is_simplicial(fan):
        return fan, identity_map(fan, fan)
    new_cones = []
    for c in fan.max_cones:
        new_cones.extend(_pull_triangulate(fan, c))
    out = make_fan(fan.rank, list(fan.rays), new_cones)
    return out, identity_map(out, fan)


def _hreps(fan):
    """H-representations of the maximal cones; the zero cone's when none."""
    if fan.max_cones:
        return [cones.cone_dual([fan.rays[i] for i in c], fan.rank) for c in fan.max_cones]
    return [cones.cone_dual([], fan.rank)]


def check_map(m):
    """Well-definedness, properness and birationality of a toric morphism."""
    src, tgt = m.source, m.target
    tgt_hreps = _hreps(tgt)
    well = True
    for c in src.max_cones:
        images = [m.apply(src.rays[i]) for i in c]
        if not any(all(cones.in_cone_hrep(h, im) for im in images) for h in tgt_hreps):
            well = False
            break
    proper = well
    if proper:
        # preimage of each target cone must be covered by the source cones
        src_hreps = _hreps(src)
        cols = list(zip(*m.matrix)) if m.matrix else [() for _ in range(src.rank)]
        for h in tgt_hreps:
            rows = [(tuple(dot(w, col) for col in cols), 0, False)
                    for w in cones.halfspaces(h)]
            if subtract_cones(src.rank, rows, src_hreps) is not None:
                proper = False
                break
    unimodular = (src.rank == tgt.rank and len(m.matrix) == src.rank
                  and abs(det_int([list(r) for r in m.matrix])) == 1)
    return {"well_defined": well, "proper": proper,
            "birational": bool(unimodular and proper)}
