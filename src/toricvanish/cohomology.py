"""Combinatorial sheaf cohomology of torus-invariant divisors.

The degree-m piece of H^p(X, O(D)) on a simplicial fan is the reduced
(co)homology in degree p-1 of the full subcomplex of the incidence complex
induced on the rays where the section inequality <m, u_rho> >= -a_rho fails.
Chambers of constant sign pattern are enumerated exactly; homology is read
off integer boundary matrices once and reduced to any coefficient field via
their invariant factors (Q: nonzero ones; F_p: those not divisible by p).
A field is `parse_field`'s result: None for Q, or the prime p. A chamber is
its sign pattern and region. A neg complex that is Z-acyclic (invariant
factors all 1, no Q-homology) has no homology over any field, so its
chambers are dropped once per (fan, D). `coh_dims` and `vanishing_higher`
take a tuple of fields and walk the rest once, reading every field's
homology off each chamber and deciding its lattice points at most once.

Most neg complexes are shown Z-acyclic from their faces alone, before any
boundary matrix is built. The tests read, per ray v, the minimal faces F of
the incidence complex for which F + {v} is not a face (`_apex_obstructions`,
once per fan): v is an apex of the full subcomplex K_S on a ray set S (in
every maximal face, so K_S is a cone) iff v is in S and no such F lies in S.
- apex: some ray of the neg set is an apex of its complex. This holds on
  any fan.
- dual apex: only on a complete fan (simplicial, as every chamber fan is).
  Its incidence complex is then a triangulated (r-1)-sphere on the rays
  that lie in a maximal cone. For a set I of them whose complex K_I and
  complement complex K_{I^c} are both nonempty, Alexander duality gives
  H~_j(K_I) = H~^{r-2-j}(K_{I^c}), which vanishes when K_{I^c} is a cone.
  The empty complex (H~_-1 = Z) and the whole sphere (H~_{r-1} = Z) are
  never decided. On a fan that is not complete there is no sphere, and the
  dual test would be wrong.
Only the rest go through integer boundary matrices and their SNF.

Chambers are built as a binary tree over the rays: each cell of the first i
rays splits on ray i into the side where the section inequality holds and
the side where it fails, and a child survives iff its region is nonempty.
A cell carries the incremental elimination levels of its rows, so a split
decides each child by extending its parent's levels by one row
(`regions.extend_levels`): no system is eliminated from scratch and no
witness point is built. The side where the inequality fails is extended
first; when it is empty the inequality holds on the whole cell, so the
other child keeps the cell's levels, which describe the same region, and
the split costs one elimination. The rows are `divisors.section_rows`, and a
strict row is the negation of its weak one.

`chambers` walks the whole tree. `_homology_chambers` drops a cell before
eliminating it when `_cone_certificate` decides every chamber below it. A
cell with N decided negative and P decided positive has below it only neg
sets S with N <= S <= ~P, and a face of K_S is a face of K_~P:
- apex: some v in N with every obstruction meeting P is an apex of K_~P,
  so of every K_S.
- dual apex: on a complete fan, N holds a vertex and some w in P has every
  obstruction meeting N: w is an apex of the complement complex of every S.
Both tests only gain as N and P grow, and at a leaf, with every ray
decided, they decide whether the chamber's own neg complex is a cone (or has
one for complement); so the walk drops exactly the chambers that leaf test
would, and the rest come out in the same order.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import isqrt

from .divisors import section_rows
from .fans import is_complete, is_simplicial, support_is_convex
from .linalg import dot, snf_diagonal
from .regions import (
    IneqSystem,
    empty_levels,
    extend_levels,
    has_lattice_point,
    lattice_points,
)
from .record import Record


def parse_field(name):
    """'q' -> None (rationals), 'f<p>' -> the prime p. A composite p names
    no field: ranks mod p would not be homology over any field."""
    if name in (None, "q", "Q"):
        return None
    s = str(name).lower()
    if s.startswith("f") and s[1:].isdigit():
        p = int(s[1:])
        if p >= 2 and all(p % d for d in range(2, isqrt(p) + 1)):
            return p
    raise ValueError(f"unknown field {name!r}")


def neg_complex(fan, neg):
    """Maximal faces of the full subcomplex induced on the given ray set."""
    neg = frozenset(neg)
    faces = sorted({neg.intersection(c) for c in fan.max_cones} - {frozenset()},
                   key=len, reverse=True)
    # largest first, so a face inside another lies inside a kept one
    maximal = []
    for f in faces:
        if not any(f <= g for g in maximal):
            maximal.append(f)
    return tuple(sorted(tuple(sorted(f)) for f in maximal))


def _faces_by_dim(maximal_faces):
    by_dim = {}
    for f in maximal_faces:
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                by_dim.setdefault(k - 1, set()).add(sub)
    return {k: sorted(v) for k, v in by_dim.items()}


@lru_cache(maxsize=65536)
def _boundary_divisors(maximal_faces):
    """Per-degree (n_k, invariant factors of the boundary matrix d_k)."""
    faces = _faces_by_dim(maximal_faces)
    top = max(faces) if faces else -1
    out = {}
    n0 = len(faces.get(0, []))
    # augmentation d_0 : C_0 -> C_{-1}
    out[0] = (n0, (1,) if n0 else ())
    for k in range(1, top + 1):
        rows = {f: i for i, f in enumerate(faces[k - 1])}
        cols = faces[k]
        matrix = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1:]
                matrix[rows[sub]][j] = (-1) ** drop
        out[k] = (len(cols), tuple(snf_diagonal(matrix)) if matrix else ())
    return out


def _rank_over(divisors, field):
    if field is None:
        return len(divisors)
    return len([d for d in divisors if d % field])


def homology_dims(maximal_faces, field, top_degree):
    """Reduced homology dimensions in degrees -1..top_degree over the field."""
    data = _boundary_divisors(maximal_faces)
    r = {k: _rank_over(divs, field) for k, (_, divs) in data.items()}
    n = {k: nk for k, (nk, _) in data.items()}
    dims = {-1: 1 - r.get(0, 0)}
    for k in range(0, top_degree + 1):
        dims[k] = n.get(k, 0) - r.get(k, 0) - r.get(k + 1, 0)
    return dims


class ChamberReport(Record):
    # pattern: sorted ray indices with <m, u> < -a; region: an IneqSystem
    __slots__ = ("pattern", "region")


def _chamber_key(fan, coeffs):
    if not is_simplicial(fan):
        raise ValueError("chamber decomposition requires a simplicial fan")
    return tuple(Fraction(c) for c in coeffs)


def _walk(fan, coeffs, cut=lambda neg, pos: None):
    """(pattern, rows) of each feasible chamber, in binary order over the
    rays; see the module docstring. A cell whose `cut(neg, pos)`, given the
    masks of the rays decided negative and positive, is true is dropped
    before it is eliminated."""
    n = len(fan.rays)
    if n > 20:
        raise ValueError("too many rays for subset enumeration")
    # a cell is (neg, rows, levels); the last ray's children keep no levels
    cells = [(0, (), empty_levels(fan.rank))]
    for i, weak in enumerate(section_rows(fan, coeffs)):
        strict = (tuple([-x for x in weak[0]]), -weak[1], True)
        bit, last = 1 << i, i == n - 1
        new_cells = []
        for neg, rows, levels in cells:
            pos = (bit - 1) & ~neg
            strict_cut = cut(neg | bit, pos)
            below = None if strict_cut else extend_levels(levels, (strict,))
            if not cut(neg, pos | bit):
                # an empty strict side implies the weak row: same region
                above = (extend_levels(levels, (weak,))
                         if strict_cut or below is not None else levels)
                if above is not None:
                    new_cells.append((neg, rows + (weak,), None if last else above))
            if below is not None:
                new_cells.append((neg | bit, rows + (strict,), None if last else below))
        cells = new_cells
    return [(tuple(i for i in range(n) if neg >> i & 1), rows) for neg, rows, _ in cells]


def chambers(fan, coeffs):
    """Feasible sign-pattern chambers of D, in binary order over the rays."""
    return [ChamberReport(pattern, IneqSystem(fan.rank, rows))
            for pattern, rows in _walk(fan, _chamber_key(fan, coeffs))]


def _z_acyclic(maximal_faces):
    """No reduced homology over any field: invariant factors 1, Q-dims 0."""
    data = _boundary_divisors(maximal_faces)
    return (all(d == 1 for _, divs in data.values() for d in divs)
            and not any(homology_dims(maximal_faces, None, max(data)).values()))


@lru_cache(maxsize=512)
def _apex_obstructions(fan):
    """(vertices, obstructions): the mask of the rays in some maximal cone,
    and per ray v the masks of the minimal faces F of the incidence complex
    for which F + {v} is not a face (F = 0 when v is in no maximal cone)."""
    faces = {0}
    for cone in fan.max_cones:
        mask = sub = sum(1 << i for i in cone)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    ordered = sorted(faces)
    obstructions = tuple(
        tuple(f for f in ordered if not f & (1 << v) and f | (1 << v) not in faces
              and all((f & ~(1 << x)) | (1 << v) in faces
                      for x in range(f.bit_length()) if f >> x & 1))
        for v in range(len(fan.rays)))
    return sum(1 << v for v, obs in enumerate(obstructions) if 0 not in obs), obstructions


def _cone_certificate(obstructions, sphere, neg, pos):
    """("apex", v), ("dual apex", w) or None: why every neg complex K_S with
    neg <= S <= ~pos (masks of rays) is a cone, or has one for complement.
    `sphere` is the vertex mask on a complete fan, and 0 on any other."""
    for v, obs in enumerate(obstructions):
        if neg >> v & 1 and all(map(pos.__and__, obs)):
            return "apex", v
    if neg & sphere:
        for w, obs in enumerate(obstructions):
            if pos >> w & 1 and all(map(neg.__and__, obs)):
                return "dual apex", w
    return None


@lru_cache(maxsize=512)
def _homology_chambers(fan, coeffs):
    """(chamber, neg complex), in chamber order, where that is not Z-acyclic;
    the walk drops every cell `_cone_certificate` decides, and SNF runs only
    on the chambers left. Memoized: `verify_kv` and then `verify_mmp` on one
    instance each build the first model's table, and without the memo the
    second walks its chambers again."""
    vertices, obstructions = _apex_obstructions(fan)
    sphere = vertices if is_complete(fan) else 0
    walk = _walk(fan, coeffs, partial(_cone_certificate, obstructions, sphere))
    pairs = ((ChamberReport(p, IneqSystem(fan.rank, rows)), neg_complex(fan, p))
             for p, rows in walk)
    return tuple(p for p in pairs if not _z_acyclic(p[1]))


def coh_dims(fan, coeffs, fields=(None,)):
    """h^0..h^rank of O(D) on a complete simplicial fan, one tuple per field.

    Graded pieces are indexed by lattice points, so only chambers containing
    lattice points contribute; a chamber with nonzero homology, a lattice
    point and an unbounded region would make the totals infinite and raises.
    """
    if not is_complete(fan):
        raise ValueError("coh_dims requires a complete fan; use vanishing_higher")
    dims = [[0] * (fan.rank + 1) for _ in fields]
    for ch, cx in _homology_chambers(fan, _chamber_key(fan, coeffs)):
        homs = [homology_dims(cx, field, fan.rank - 1) for field in fields]
        if not any(any(hom.values()) for hom in homs):
            continue
        pts = lattice_points(ch.region)
        if pts is None:
            if has_lattice_point(ch.region):
                raise RuntimeError("unbounded chamber with nonzero homology "
                                   "and lattice points on a complete fan")
            continue
        for out, hom in zip(dims, homs):
            for p in range(fan.rank + 1):
                out[p] += len(pts) * hom.get(p - 1, 0)
    return tuple(map(tuple, dims))


def vanishing_higher(fan, coeffs, fields=(None,)):
    """Whether the degree->=1 cohomology vanishes, chamber by chamber, per field.

    Works on any simplicial fan with convex support; boundedness of chambers
    is not required. Only chambers holding a lattice point can contribute a
    graded piece. Returns (True, None) or (False, (pattern, degree)) per
    field, at the first chamber where it fails.
    """
    verdicts = [(True, None)] * len(fields)
    for ch, cx in _homology_chambers(fan, _chamber_key(fan, coeffs)):
        degrees = [next((p for p in range(1, fan.rank + 1) if hom.get(p - 1, 0)), None)
                   for hom in (homology_dims(cx, f, fan.rank - 1) for f in fields)]
        bad = [i for i, d in enumerate(degrees) if d is not None and verdicts[i][0]]
        if bad and has_lattice_point(ch.region):
            for i in bad:
                verdicts[i] = (False, (ch.pattern, degrees[i]))
    return tuple(verdicts)


def model_cohomology(fan, coeffs, fields):
    """(mode, payload) of one model over field names such as "q" and "f2":
    ("complete", each field's dim list) on a complete fan, else ("relative",
    each field's `vanishing_higher` verdict) on a support-convex fan."""
    parsed = tuple(parse_field(f) for f in fields)
    if is_complete(fan):
        return "complete", dict(zip(fields, map(list, coh_dims(fan, coeffs, parsed))))
    if not support_is_convex(fan):
        raise ValueError("fan is neither complete nor support-convex")
    return "relative", dict(zip(fields, vanishing_higher(fan, coeffs, parsed)))


def pattern_of(fan, coeffs, m):
    return tuple(i for i, ray in enumerate(fan.rays)
                 if Fraction(dot(m, ray)) < -Fraction(coeffs[i]))


def graded_piece(fan, coeffs, m, field=None):
    """Chamber-formula dimensions of the degree-m piece, h^0..h^rank."""
    coeffs = _chamber_key(fan, coeffs)
    hom = homology_dims(neg_complex(fan, pattern_of(fan, coeffs, m)),
                        field, fan.rank - 1)
    return tuple(hom.get(p - 1, 0) for p in range(fan.rank + 1))


def cech_graded(fan, coeffs, m, field=None):
    """Independent oracle: degree-m piece of the Cech complex on the cover
    by maximal-cone charts; dimensions for degrees 0..rank."""
    if not is_simplicial(fan):
        raise ValueError("cech_graded requires a simplicial fan")
    ncones = len(fan.max_cones)

    def admits(subset):
        common = set(fan.max_cones[subset[0]])
        for i in subset[1:]:
            common &= set(fan.max_cones[i])
        return all(Fraction(dot(m, fan.rays[i])) >= -Fraction(coeffs[i])
                   for i in common)

    basis = {p: [s for s in combinations(range(ncones), p + 1) if admits(s)]
             for p in range(fan.rank + 2)}
    ranks = {}
    for p in range(fan.rank + 1):
        rows = {s: i for i, s in enumerate(basis[p + 1])}
        cols = basis[p]
        if not rows or not cols:
            ranks[p] = 0
            continue
        matrix = [[0] * len(cols) for _ in rows]
        col_index = {s: j for j, s in enumerate(cols)}
        for s, i in rows.items():
            for drop in range(len(s)):
                sub = s[:drop] + s[drop + 1:]
                j = col_index.get(sub)
                if j is not None:
                    matrix[i][j] += (-1) ** drop
        ranks[p] = _rank_over(snf_diagonal(matrix), field)
    return tuple(len(basis[p]) - ranks.get(p, 0) - ranks.get(p - 1, 0)
                 for p in range(fan.rank + 1))
