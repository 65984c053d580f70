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
chambers are dropped once per (fan, D) and each field walks the rest;
`coh_dims` counts lattice points, and so decides boundedness, only there.

Most neg complexes are shown Z-acyclic from their maximal faces alone, before
any boundary matrix is built (`_acyclic_witness`):
- apex: some vertex lies in every maximal face, so the complex is a cone.
  This holds on any fan.
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
witness point is built.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .fans import is_complete, is_simplicial
from .linalg import dot, snf_diagonal
from .regions import (
    IneqSystem,
    empty_levels,
    extend_levels,
    has_lattice_point,
    lattice_points,
    make_row,
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


@lru_cache(maxsize=65536)
def _pattern_homology(fan, pattern):
    return neg_complex(fan, pattern)


class ChamberReport(Record):
    # pattern: sorted ray indices with <m, u> < -a; region: an IneqSystem
    __slots__ = ("pattern", "region")


def _chamber_key(fan, coeffs):
    if not is_simplicial(fan):
        raise ValueError("chamber decomposition requires a simplicial fan")
    return tuple(Fraction(c) for c in coeffs)


def chambers(fan, coeffs):
    """Feasible sign-pattern chambers of D, in binary order over the rays."""
    coeffs = _chamber_key(fan, coeffs)
    n = len(fan.rays)
    if n > 20:
        raise ValueError("too many rays for subset enumeration")
    # a cell is (pattern, rows, levels); the last ray's children keep no levels
    cells = [((), (), empty_levels(fan.rank))]
    for i, ray in enumerate(fan.rays):
        a = coeffs[i]
        last = i == n - 1
        row_pos = make_row(ray, -a, False)
        row_neg = make_row([-x for x in ray], a, True)
        new_cells = []
        for pattern, rows, levels in cells:
            for pat, row in ((pattern, row_pos), (pattern + (i,), row_neg)):
                child = extend_levels(levels, (row,))
                if child is not None:
                    new_cells.append((pat, rows + (row,), None if last else child))
        cells = new_cells
    return [ChamberReport(pattern, IneqSystem(fan.rank, rows))
            for pattern, rows, _ in cells]


@lru_cache(maxsize=4096)
def _lattice_count(region):
    """Lattice points of a chamber region, or None when it is unbounded;
    decided once per process, as `coh_dims` asks for the same chamber once
    per coefficient field."""
    pts = lattice_points(region)
    return None if pts is None else len(pts)


@lru_cache(maxsize=4096)
def _has_lattice_point(region):
    """Whether a chamber region holds a lattice point, bounded or not; decided
    once per process, as `vanishing_higher` asks about the same chamber once
    per coefficient field."""
    return has_lattice_point(region)


def _z_acyclic(maximal_faces):
    """No reduced homology over any field: invariant factors 1, Q-dims 0."""
    data = _boundary_divisors(maximal_faces)
    return (all(d == 1 for _, divs in data.values() for d in divs)
            and not any(homology_dims(maximal_faces, None, max(data)).values()))


def _apex(maximal_faces):
    """The least vertex lying in every maximal face, or None."""
    if not maximal_faces:
        return None
    return min(set(maximal_faces[0]).intersection(*maximal_faces[1:]), default=None)


def _acyclic_witness(fan, pattern, complete):
    """Why the neg complex of the pattern is Z-acyclic, read off maximal faces
    only: ("apex", v), ("dual apex", v), or None when neither test decides.

    The dual test needs `complete`, i.e. `is_complete(fan)` on this simplicial
    fan, whose incidence complex is then a triangulated sphere.
    """
    cx = _pattern_homology(fan, pattern)
    v = _apex(cx)
    if v is not None:
        return "apex", v
    if not complete or not cx:
        return None
    vertices = set().union(*fan.max_cones)
    v = _apex(_pattern_homology(fan, tuple(sorted(vertices.difference(pattern)))))
    return None if v is None else ("dual apex", v)


@lru_cache(maxsize=512)
def _homology_chambers(fan, coeffs):
    """(chamber, neg complex), in chamber order, where that is not Z-acyclic;
    SNF runs only where `_acyclic_witness` does not decide."""
    complete = is_complete(fan)
    pairs = ((ch, _pattern_homology(fan, ch.pattern)) for ch in chambers(fan, coeffs)
             if _acyclic_witness(fan, ch.pattern, complete) is None)
    return tuple(p for p in pairs if not _z_acyclic(p[1]))


def coh_dims(fan, coeffs, field=None):
    """h^0..h^rank of O(D) on a complete simplicial fan over the field.

    Graded pieces are indexed by lattice points, so only chambers containing
    lattice points contribute; a chamber with nonzero homology, a lattice
    point and an unbounded region would make the totals infinite and raises.
    """
    if not is_complete(fan):
        raise ValueError("coh_dims requires a complete fan; use vanishing_higher")
    dims = [0] * (fan.rank + 1)
    for ch, cx in _homology_chambers(fan, _chamber_key(fan, coeffs)):
        hom = homology_dims(cx, field, fan.rank - 1)
        if not any(hom.values()):
            continue
        count = _lattice_count(ch.region)
        if count is None:
            if _has_lattice_point(ch.region):
                raise RuntimeError("unbounded chamber with nonzero homology "
                                   "and lattice points on a complete fan")
            continue
        for p in range(fan.rank + 1):
            dims[p] += count * hom.get(p - 1, 0)
    return tuple(dims)


def vanishing_higher(fan, coeffs, field=None):
    """Whether the degree->=1 cohomology vanishes, chamber by chamber.

    Works on any simplicial fan with convex support; boundedness of chambers
    is not required. Only chambers holding a lattice point can contribute a
    graded piece. Returns (True, None) or (False, (pattern, degree)).
    """
    for ch, cx in _homology_chambers(fan, _chamber_key(fan, coeffs)):
        hom = homology_dims(cx, field, fan.rank - 1)
        bad = next((p for p in range(1, fan.rank + 1) if hom.get(p - 1, 0)), None)
        if bad is not None and _has_lattice_point(ch.region):
            return False, (ch.pattern, bad)
    return True, None


def pattern_of(fan, coeffs, m):
    return tuple(i for i, ray in enumerate(fan.rays)
                 if Fraction(dot(m, ray)) < -Fraction(coeffs[i]))


def graded_piece(fan, coeffs, m, field=None):
    """Chamber-formula dimensions of the degree-m piece, h^0..h^rank."""
    coeffs = _chamber_key(fan, coeffs)
    hom = homology_dims(_pattern_homology(fan, pattern_of(fan, coeffs, m)),
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
