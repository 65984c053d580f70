import random
from fractions import Fraction

import pytest

from conftest import (
    cube_fan,
    f1_fan,
    flip_side_a,
    flip_side_b,
    make_row,
    mmp_models,
    p1xp1_fan,
    p2_fan,
    p3_fan,
    p112_fan,
    ray_divisor,
    reference_fans,
)
from toricvanish import cohomology, regions
from toricvanish.cohomology import (
    ChamberReport,
    cech_graded,
    chambers,
    coh_dims,
    graded_piece,
    homology_dims,
    model_cohomology,
    neg_complex,
    parse_field,
    vanishing_higher,
)
from toricvanish.corpus import (
    curated_instances,
    mutate,
    product_fan,
    projective_space,
    seed_fans,
)
from toricvanish.divisors import (
    add,
    canonical,
    coeffs_of,
    principal,
    q_cartier_index,
    scale,
    sub,
)
from toricvanish.fans import (
    full_span,
    is_complete,
    is_simplicial,
    make_fan,
    properties,
    q_factorialize,
    star_subdivide,
    support_is_convex,
)
from toricvanish.mori import intersect, walls
from toricvanish.regions import (
    IneqSystem,
    count_lattice_points,
    feasible,
    has_lattice_point,
    lattice_points,
)
from toricvanish.verify import DEFAULT_FIELDS

FIELDS = [None, 2, 3, 5, 7]


def reduced_homology(maximal_faces, field):
    """Reduced homology of an abstract simplicial complex given by facets."""
    faces = tuple(sorted(tuple(sorted(set(f))) for f in maximal_faces if f))
    top = max((len(f) for f in faces), default=0) - 1
    return homology_dims(faces, field, max(top, 0))


def euler_characteristic(dims):
    return sum((-1) ** i * d for i, d in enumerate(dims))


def test_parse_field():
    assert parse_field("q") is None
    assert parse_field("f2") == 2
    assert parse_field("f7") == 7
    assert parse_field("f13") == 13
    for name in ("f1", "f4", "f6", "f9", "r"):
        with pytest.raises(ValueError):
            parse_field(name)


def test_neg_complex(p2, f1):
    full = neg_complex(p2, (0, 1, 2))
    assert full == ((0, 1), (0, 2), (1, 2))
    assert neg_complex(p2, ()) == ()
    # two opposite rays of F1 span no common cone: two isolated points
    two = neg_complex(f1, (f1.ray_index((1, 1)), f1.ray_index((-1, -1))))
    assert len(two) == 2 and all(len(f) == 1 for f in two)


def test_reduced_homology_examples():
    circle = ((0, 1), (1, 2), (0, 2))
    hom = reduced_homology(circle, None)
    assert hom[1] == 1 and hom[0] == 0 and hom[-1] == 0
    empty = reduced_homology((), None)
    assert empty[-1] == 1
    solid = ((0, 1, 2),)
    hom2 = reduced_homology(solid, None)
    assert all(v == 0 for v in hom2.values())
    for p in (2, 3, 5, 7):
        assert reduced_homology(circle, p)[1] == 1


def test_chambers_p2_canonical(p2):
    K = canonical(p2)
    chs = chambers(p2, K)
    allneg = next(c for c in chs if c.pattern == (0, 1, 2))
    from toricvanish.regions import lattice_points, recession_is_zero

    assert recession_is_zero(allneg.region)
    assert lattice_points(allneg.region) == [(0, 0)]
    # the all-positive pattern is infeasible for K
    assert not any(c.pattern == () for c in chs)


def test_chambers_zero_divisor(p2):
    chs = chambers(p2, coeffs_of(p2, {}))
    assert any(c.pattern == () for c in chs)
    assert all(c.pattern != (0, 1, 2) for c in chs)


def test_chambers_ray_guard():
    from toricvanish.fans import make_fan

    rays = []
    # a valid fan is not even needed to trip the guard; use a fake with 21 rays
    fan = p2_fan()
    big = fan.__class__(2, tuple((1, k) for k in range(21)), ())
    with pytest.raises(ValueError, match="too many rays"):
        chambers(big, tuple(Fraction(0) for _ in range(21)))


def _reference_chambers(fan, coeffs):
    """The witness enumerator: split each cell on each ray, hand the cell's
    witness to the child it satisfies and solve the other child afresh."""
    cells = [((), (), tuple(Fraction(0) for _ in range(fan.rank)))]
    for i, ray in enumerate(fan.rays):
        a = Fraction(coeffs[i])
        row_pos = make_row(ray, -a, False)
        row_neg = make_row([-x for x in ray], a, True)
        new_cells = []
        for pattern, rows, witness in cells:
            pos = sum(Fraction(r) * w for r, w in zip(ray, witness)) + a >= 0
            for pat, row, wit in ((pattern, row_pos, witness if pos else None),
                                  (pattern + (i,), row_neg, None if pos else witness)):
                if wit is None:
                    wit = feasible(IneqSystem(fan.rank, rows + (row,)))
                    if wit is None:
                        continue
                new_cells.append((pat, rows + (row,), wit))
        cells = new_cells
    return [ChamberReport(pattern, IneqSystem(fan.rank, rows))
            for pattern, rows, _ in cells]


def _rank4_fans():
    """P^4, and P1^4 with four successive star subdivisions."""
    p1 = projective_space(1)
    fan = product_fan(product_fan(p1, p1), product_fan(p1, p1))
    out = [projective_space(4), fan]
    for v in ((1, 1, 0, 0), (1, 1, 1, 0), (0, -1, -1, 0), (1, 1, 1, 1)):
        fan, _ = star_subdivide(fan, v)
        out.append(fan)
    return out


def _chamber_fans():
    fans = [p2_fan(), p1xp1_fan(), f1_fan(), p112_fan(), p3_fan(),
            q_factorialize(cube_fan())[0], flip_side_a(), flip_side_b(),
            flip_side_a((1, 1, -1)), flip_side_b((1, 1, -1))]
    fans += [inst.fan for _, inst in curated_instances()]
    seeds = [fan for rank in (2, 3) for _, fan in seed_fans(rank)]
    fans += seeds
    rng = random.Random(11)
    fans += [mutate(rng, fan, 12, rng.randint(1, 3)) for fan in seeds
             if is_simplicial(fan) for _ in range(2)]
    fans += _rank4_fans()
    return [fan if is_simplicial(fan) else q_factorialize(fan)[0] for fan in fans]


def test_chambers_match_the_witness_enumerator():
    rng = random.Random(5)
    checked = 0
    for fan in _chamber_fans():
        ints = tuple(rng.randint(-3, 3) for _ in fan.rays)
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
                      for _ in fan.rays)
        for D in (canonical(fan), coeffs_of(fan, {}), ints, fracs):
            want = _reference_chambers(fan, D)
            assert chambers(fan, D) == want, (fan, D)
            checked += 1
    assert checked >= 200


def test_chambers_solve_no_system_from_scratch(monkeypatch):
    # every split extends its parent cell's levels by its one row: no witness
    # and no elimination of a whole system
    from toricvanish import cohomology, regions

    calls = []
    real = regions.extend_levels

    def extend(levels, rows):
        calls.append(len(rows))
        return real(levels, rows)

    def unexpected(*args):
        raise AssertionError("a chamber system was solved from scratch")

    monkeypatch.setattr(cohomology, "extend_levels", extend)
    monkeypatch.setattr(regions, "feasible", unexpected)
    monkeypatch.setattr(regions, "_feasible_levels", unexpected)
    inst = dict(curated_instances())["cubeq-flop"]
    assert len(chambers(inst.fan, inst.d_coeffs)) > 1
    assert calls and set(calls) == {1}


def test_coh_dims_p2(p2):
    threeH = scale(3, ray_divisor(p2, (1, 0)))
    assert coh_dims(p2, threeH)[0] == (10, 0, 0)
    K = canonical(p2)
    assert coh_dims(p2, K)[0] == (0, 0, 1)
    assert coh_dims(p2, K, (2,))[0] == (0, 0, 1)
    assert coh_dims(p2, coeffs_of(p2, {}))[0] == (1, 0, 0)


def test_coh_dims_all_fields(p2, p1xp1, p3):
    for fan, D, expected in [
        (p2, scale(-1, ray_divisor(p2, (1, 0))), (0, 0, 0)),
        (p1xp1, scale(-1, ray_divisor(p1xp1, (0, 1))), (0, 0, 0)),
        (p3, canonical(p3), (0, 0, 0, 1)),
    ]:
        assert coh_dims(fan, D, FIELDS) == (expected,) * len(FIELDS)


def test_coh_requires_complete():
    with pytest.raises(ValueError, match="complete"):
        coh_dims(flip_side_a(), coeffs_of(flip_side_a(), {}))[0]


def test_vanishing_higher(p2):
    ok, witness = vanishing_higher(p2, coeffs_of(p2, {}))[0]
    assert ok and witness is None
    bad, witness = vanishing_higher(p2, canonical(p2))[0]
    assert not bad
    pattern, degree = witness
    assert pattern == (0, 1, 2) and degree == 2


def test_vanishing_higher_flip_sides():
    a = flip_side_a()
    ok, _ = vanishing_higher(a, coeffs_of(a, {}))[0]
    assert ok
    b = flip_side_b()
    ok_b, _ = vanishing_higher(b, coeffs_of(b, {}))[0]
    assert ok_b


def test_cech_examples(p2):
    threeH = scale(3, ray_divisor(p2, (1, 0)))
    interior = (-1, 1)  # inside P_{3H}
    assert cech_graded(p2, threeH, interior, None) == (1, 0, 0)
    K = canonical(p2)
    assert cech_graded(p2, K, (0, 0), None) == (0, 0, 1)
    p1 = __import__("toricvanish.fans", fromlist=["make_fan"]).make_fan(
        1, [(1,), (-1,)], [(0,), (1,)])
    minus_one = coeffs_of(p1, {(1,): -1})
    for m in [(-2,), (-1,), (0,), (1,)]:
        assert cech_graded(p1, minus_one, m, None) == (0, 0)


def test_cech_oracle_equivalence(p2, f1, p1xp1, p112, p3):
    rng = random.Random(37)
    fans = [p2, f1, p1xp1, p112, p3, flip_side_a(), flip_side_b()]
    checked = 0
    for fan in fans:
        for _ in range(8):
            D = tuple(Fraction(rng.randint(-3, 3)) for _ in fan.rays)
            m = tuple(rng.randint(-4, 4) for _ in range(fan.rank))
            for field in (None, 2):
                assert cech_graded(fan, D, m, field) == graded_piece(fan, D, m, field)
            checked += 1
    assert checked >= 50


def test_linear_equivalence_invariance(p2, f1):
    rng = random.Random(41)
    for fan in (p2, f1):
        for _ in range(4):
            D = tuple(Fraction(rng.randint(-3, 3)) for _ in fan.rays)
            m = (rng.randint(-2, 2), rng.randint(-2, 2))
            shifted = add(D, principal(fan, m))
            for field in (None, 3):
                assert coh_dims(fan, D, (field,)) == coh_dims(fan, shifted, (field,))


def test_serre_duality(p2, f1, p1xp1, p3):
    rng = random.Random(43)
    for fan in (p2, f1, p1xp1, p3):
        K = canonical(fan)
        for _ in range(4):
            D = tuple(Fraction(rng.randint(-2, 2)) for _ in fan.rays)
            hd = coh_dims(fan, D)[0]
            hk = coh_dims(fan, sub(K, D))[0]
            assert hd == tuple(reversed(hk))


def test_euler_characteristic_of_structure_sheaf(p2, f1, p1xp1, p112, p3):
    for fan in (p2, f1, p1xp1, p112, p3):
        dims = coh_dims(fan, coeffs_of(fan, {}))[0]
        assert euler_characteristic(dims) == 1
        assert dims[0] == 1


def _complete_simplicial_fans():
    """The distinct complete simplicial fans of `reference_fans`, ranks 2-4,
    with at most 10 rays."""
    return [fan for fan in dict.fromkeys(reference_fans())
            if is_complete(fan) and is_simplicial(fan) and len(fan.rays) <= 10]


def test_snapper_euler_characteristic_is_a_polynomial_of_degree_at_most_rank():
    # Snapper: on a complete X with H Cartier, t -> chi(O(D + tH)) is a
    # polynomial of degree at most r, so its (r+1)-th finite differences over
    # t = -1..r+1 vanish; H = L(-K) with L the Cartier index of K, and D is 0
    # or drawn. Each chi runs the chamber walk, `lattice_points` and its
    # boundedness test end to end.
    rng = random.Random(12)
    fans = _complete_simplicial_fans()
    assert {fan.rank for fan in fans} == {2, 3, 4}
    for fan in fans:
        K = canonical(fan)
        H = scale(-q_cartier_index(fan, K), K)
        for D in (coeffs_of(fan, {}),
                  tuple(Fraction(rng.randint(-2, 2)) for _ in fan.rays)):
            diffs = [euler_characteristic(coh_dims(fan, add(D, scale(t, H)))[0])
                     for t in range(-1, fan.rank + 2)]
            for _ in range(fan.rank + 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            assert diffs == [0, 0], (fan, D)


def test_riemann_roch_on_smooth_complete_surfaces():
    # chi(O(D)) = 1 + (D.D - D.K)/2 (Fulton, Introduction to Toric Varieties,
    # section 5.3), with D.D_rho the intersection number on the wall of ray
    # rho, so D.D = sum_rho a_rho D.D_rho and D.K = -sum_rho D.D_rho; the
    # surfaces are the smooth reference ones and their blowups at the torus
    # fixed point of their first cone, once and twice
    rng = random.Random(5)
    surfaces = [fan for fan in _complete_simplicial_fans()
                if fan.rank == 2 and properties(fan).smooth]
    for fan in surfaces[:]:
        for _ in range(2):
            u, v = (fan.rays[i] for i in fan.max_cones[0])
            fan, _ = star_subdivide(fan, (u[0] + v[0], u[1] + v[1]))
            surfaces.append(fan)
    assert len(surfaces) == 9 and all(properties(fan).smooth for fan in surfaces)
    for fan in surfaces:
        wall_of = {w.rays: w for w in walls(fan)}
        for _ in range(6):
            D = tuple(Fraction(rng.randint(-3, 3)) for _ in fan.rays)
            on_rays = [intersect(fan, D, wall_of[(i,)]) for i in range(len(fan.rays))]
            dd = sum(a * x for a, x in zip(D, on_rays))
            dk = -sum(on_rays)
            assert euler_characteristic(coh_dims(fan, D)[0]) == 1 + (dd - dk) / 2, (fan, D)


def test_unimodular_invariance(p2):
    from toricvanish.fans import make_fan
    from toricvanish.linalg import mat_vec

    T = [[1, 1], [0, 1]]
    rng = random.Random(47)
    rays2 = [tuple(mat_vec(T, r)) for r in p2.rays]
    fan2 = make_fan(2, rays2, [tuple(c) for c in p2.max_cones])
    # coefficients follow the rays by value
    for _ in range(4):
        coeffs = {tuple(r): Fraction(rng.randint(-3, 3)) for r in p2.rays}
        D1 = coeffs_of(p2, coeffs)
        D2 = coeffs_of(fan2, {tuple(mat_vec(T, r)): v for r, v in coeffs.items()})
        assert coh_dims(p2, D1)[0] == coh_dims(fan2, D2)[0]


def test_demazure_vanishing(p2, f1, p1xp1, p112):
    from toricvanish.divisors import h0_dim, positivity

    rng = random.Random(53)
    found = 0
    for fan in (p2, f1, p1xp1, p112):
        for _ in range(12):
            D = tuple(Fraction(rng.randint(0, 3)) for _ in fan.rays)
            from toricvanish.divisors import NotQCartier, cartier_data

            if isinstance(cartier_data(fan, D), NotQCartier):
                continue
            if not positivity(fan, D).nef:
                continue
            if any(x.denominator != 1 for x in D):
                continue
            found += 1
            for field in FIELDS:
                dims = coh_dims(fan, D, (field,))[0]
                assert dims[0] == h0_dim(fan, D) if h0_dim(fan, D) != "zero" else dims[0] == 0
                assert all(d == 0 for d in dims[1:])
    assert found >= 20


def _table_with_counts(monkeypatch, fan, coeffs):
    """`model_cohomology(fan, coeffs, DEFAULT_FIELDS)`, with the number of
    chamber lists it asked for, the (function, chamber) of each lattice point
    question it asked, and the chambers the walk kept. A chamber is named by
    its region where a question takes the region, and by the `id` of its
    levels where the count reads them."""
    key = tuple(Fraction(a) for a in coeffs)
    kept = [(ch.region, id(levels))
            for ch, _, levels in cohomology._homology_chambers(fan, key)]
    walks, asked = [], []
    real_walk = cohomology._homology_chambers

    def walk(fan, key):
        walks.append(key)
        return real_walk(fan, key)

    def recording(name, real, name_of=lambda arg: arg):
        def ask(arg, *rest):
            asked.append((name, name_of(arg)))
            return real(arg, *rest)
        return ask

    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_homology_chambers", walk)
        patch.setattr(cohomology, "has_lattice_point",
                      recording("has_lattice_point", regions.has_lattice_point))
        patch.setattr(cohomology, "count_lattice_points",
                      recording("count_lattice_points", regions.count_lattice_points, id))
        table = model_cohomology(fan, coeffs, DEFAULT_FIELDS)
    return table, len(walks), asked, kept


def test_coh_dims_decides_boundedness_only_where_homology_is_nonzero(p2, monkeypatch):
    # of the 7 chambers of K on P2 only the all-negative one has homology;
    # its points are counted once for every field, off the levels the walk
    # kept, which also decide its boundedness: no recession cone is dualized
    counts, duals = [], []
    real_count, real_zero = cohomology.count_lattice_points, regions.recession_is_zero

    def counting(levels, n):
        counts.append(n)
        return real_count(levels, n)

    def dualizing(region):
        duals.append(region)
        return real_zero(region)

    monkeypatch.setattr(cohomology, "count_lattice_points", counting)
    monkeypatch.setattr(regions, "recession_is_zero", dualizing)
    K = canonical(p2)
    assert coh_dims(p2, K, FIELDS) == ((0, 0, 1),) * len(FIELDS)
    assert len(chambers(p2, K)) == 7
    assert counts == [2]
    assert duals == []


@pytest.mark.parametrize("fan, coeffs, asked", [
    (flip_side_a(), (0, 0, 0, -1), 1),
    # the first quadrant cut by the rays (1,1), (1,2) and (3,2)
    (make_fan(2, [(0, 1), (1, 0), (1, 1), (1, 2), (3, 2)],
              [(0, 3), (1, 4), (2, 3), (2, 4)]), (0, 0, 0, 0, -1), 2),
    # the fan of P^2 in a plane of R^3: a torus factor, so every chamber is
    # unbounded
    (make_fan(3, [(-1, -1, 0), (0, 1, 0), (1, 0, 0)], [(0, 1), (0, 2), (1, 2)]),
     (-3, -2, 3), 1),
])
def test_relative_cohomology_asks_for_lattice_points_once_per_chamber(
        fan, coeffs, asked, monkeypatch):
    # every field reads the same chambers with higher homology in one pass,
    # which decides each one's lattice point once: counted off the levels
    # the walk kept, and asked of the region only where that count finds the
    # chamber unbounded
    (mode, payload), walks, questions, kept = _table_with_counts(monkeypatch, fan, coeffs)
    assert mode == "relative"
    assert all(payload[f] == (True, None) for f in DEFAULT_FIELDS)
    assert walks == 1
    counted = [levels for name, levels in questions if name == "count_lattice_points"]
    assert len(counted) == len(set(counted)) == asked
    assert set(counted) <= {levels for _, levels in kept}
    key = tuple(Fraction(a) for a in coeffs)
    by_id = {id(levels): (ch.region, levels)
             for ch, _, levels in cohomology._homology_chambers(fan, key)}
    unbounded = [by_id[i][0] for i in counted
                 if count_lattice_points(by_id[i][1], fan.rank) is None]
    assert [region for name, region in questions if name == "has_lattice_point"] \
        == unbounded
    assert bool(unbounded) == (not full_span(fan))


def _reference_coh_dims(fan, coeffs, field):
    """`coh_dims` as it walked every chamber, Z-acyclic ones included."""
    dims = [0] * (fan.rank + 1)
    for ch in chambers(fan, coeffs):
        hom = homology_dims(neg_complex(fan, ch.pattern), field, fan.rank - 1)
        if not any(hom.values()):
            continue
        pts = lattice_points(ch.region)
        if pts is None:
            if has_lattice_point(ch.region):
                raise RuntimeError("unbounded chamber with nonzero homology "
                                   "and lattice points on a complete fan")
            continue
        for p in range(fan.rank + 1):
            dims[p] += len(pts) * hom.get(p - 1, 0)
    return tuple(dims)


def _reference_vanishing_higher(fan, coeffs, field):
    """`vanishing_higher` as it walked every chamber."""
    for ch in chambers(fan, coeffs):
        hom = homology_dims(neg_complex(fan, ch.pattern), field, fan.rank - 1)
        bad = next((p for p in range(1, fan.rank + 1) if hom.get(p - 1, 0)), None)
        if bad is not None and has_lattice_point(ch.region):
            return False, (ch.pattern, bad)
    return True, None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return str(exc)


def test_homology_chambers_match_the_all_chambers_loop():
    rng = random.Random(17)
    checked = 0
    for fan in _chamber_fans():
        if fan.rank > 3:
            continue
        ints = tuple(rng.randint(-3, 3) for _ in fan.rays)
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                      for _ in fan.rays)
        for D in (canonical(fan), ints, fracs):
            for field in FIELDS:
                assert vanishing_higher(fan, D, (field,))[0] == \
                    _reference_vanishing_higher(fan, D, field), (fan, D, field)
                if is_complete(fan):
                    expect = _outcome(_reference_coh_dims, fan, D, field)
                    assert _outcome(coh_dims, fan, D, (field,)) == \
                        (expect if isinstance(expect, str) else (expect,)), (fan, D, field)
                    checked += 1
    assert checked >= 200


RP2 = tuple(sorted([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]))


def test_z_acyclic_rejects_a_complex_with_torsion_only():
    # the 6-vertex real projective plane: no Q-homology, but H_1 = H_2 = F_2
    assert not any(homology_dims(RP2, None, 2).values())
    hom2 = homology_dims(RP2, 2, 2)
    assert hom2[1] == 1 and hom2[2] == 1
    assert all(not any(homology_dims(RP2, p, 2).values()) for p in (3, 5, 7))
    assert not cohomology._z_acyclic(RP2)
    assert cohomology._z_acyclic(((0, 1, 2),))
    assert cohomology._z_acyclic(((0, 1), (1, 2)))
    assert not cohomology._z_acyclic(())  # the empty complex: reduced H_-1
    assert not cohomology._z_acyclic(((0, 1), (0, 2), (1, 2)))
    assert not cohomology._z_acyclic(((0,), (1,)))


def test_each_field_reads_one_list_of_homology_chambers(p2, monkeypatch):
    # the Z-acyclic chambers are dropped once per (fan, D), and the table of
    # every field asks for that list once and counts the one kept chamber's
    # lattice points once, off the levels the walk kept
    K = canonical(p2)
    (mode, payload), walks, questions, kept = _table_with_counts(monkeypatch, p2, K)
    assert mode == "complete"
    assert payload == {f: [0, 0, 1] for f in DEFAULT_FIELDS}
    assert walks == 1
    assert questions == [("count_lattice_points", kept[0][1])] and len(kept) == 1
    assert vanishing_higher(p2, K, FIELDS) == ((False, ((0, 1, 2), 2)),) * len(FIELDS)
    assert len(chambers(p2, K)) == 7


def test_model_cohomology_matches_the_per_field_references(monkeypatch):
    # on complete and relative fans, each field's entry of the one-pass table
    # is the all-chambers loop's answer over that field, and the pass asks
    # for one chamber list and about each kept chamber's lattice points once
    rng = random.Random(19)
    fields = [parse_field(f) for f in DEFAULT_FIELDS]
    seen = set()
    for fan in [f for f in _chamber_fans() if f.rank <= 3] + _relative_chamber_fans():
        ints = tuple(rng.randint(-3, 3) for _ in fan.rays)
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                      for _ in fan.rays)
        for D in (canonical(fan), ints, fracs):
            if is_complete(fan):
                expect = [_outcome(_reference_coh_dims, fan, D, f) for f in fields]
                if any(isinstance(e, str) for e in expect):
                    with pytest.raises(RuntimeError):
                        model_cohomology(fan, D, DEFAULT_FIELDS)
                    continue
                expect = ("complete", {n: list(e) for n, e in zip(DEFAULT_FIELDS, expect)})
            else:
                expect = ("relative", {n: _reference_vanishing_higher(fan, D, f)
                                       for n, f in zip(DEFAULT_FIELDS, fields)})
            table, walks, questions, kept = _table_with_counts(monkeypatch, fan, D)
            assert table == expect, (fan, D)
            assert walks == 1 and len(questions) == len(set(questions)), (fan, D)
            assert {arg for _, arg in questions} <= {x for pair in kept for x in pair}, (fan, D)
            seen.add(expect[0])
    assert seen == {"complete", "relative"}


def test_graded_piece_requires_a_simplicial_fan(cube):
    with pytest.raises(ValueError, match="simplicial"):
        graded_piece(cube, canonical(cube), (0, 0, 0))


def _upper_half_plane():
    return make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])


def _acyclic_witness(fan, pattern, complete):
    """Why the neg complex of the pattern is Z-acyclic, read off its faces
    only: ("apex", v), ("dual apex", w), or None when neither test decides.
    It is the leaf form of `cohomology._cone_certificate`, with every ray
    decided, and the reference the walk's pruning is checked against.

    The dual test needs `complete`, i.e. `is_complete(fan)` on this simplicial
    fan, whose incidence complex is then a triangulated sphere.
    """
    vertices, obstructions = cohomology._apex_obstructions(fan)
    neg = sum(1 << i for i in pattern)
    return cohomology._cone_certificate(obstructions, vertices if complete else 0,
                                        neg, ~neg)


def _pairs(homology_chambers):
    """The (chamber, neg complex) pairs of `_homology_chambers`, without the
    levels each chamber's points are counted from."""
    return tuple((ch, cx) for ch, cx, _ in homology_chambers)


def _reference_homology_chambers(fan, coeffs):
    """`_homology_chambers` as it filtered every chamber by SNF alone."""
    pairs = ((ch, neg_complex(fan, ch.pattern)) for ch in chambers(fan, coeffs))
    return tuple(p for p in pairs if not cohomology._z_acyclic(p[1]))


def test_acyclic_witnesses_hold_and_drop_only_z_acyclic_chambers():
    rng = random.Random(29)
    decided = {"apex": 0, "dual apex": 0}
    for fan in reference_fans() + [_upper_half_plane()]:
        if not is_simplicial(fan):
            fan = q_factorialize(fan)[0]
        complete = is_complete(fan)
        vertices = set().union(*fan.max_cones)
        ints = tuple(rng.randint(-3, 3) for _ in fan.rays)
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                      for _ in fan.rays)
        for D in (canonical(fan), coeffs_of(fan, {}), ints, fracs):
            for ch in chambers(fan, D):
                witness = _acyclic_witness(fan, ch.pattern, complete)
                if witness is None:
                    continue
                kind, v = witness
                cx = neg_complex(fan, ch.pattern)
                if kind == "apex":
                    faces = cx
                else:
                    assert kind == "dual apex" and complete and cx, (fan, ch.pattern)
                    faces = neg_complex(fan, vertices.difference(ch.pattern))
                assert faces and all(v in f for f in faces), (fan, ch.pattern, witness)
                assert cohomology._z_acyclic(cx), (fan, ch.pattern, witness)
                decided[kind] += 1
            key = tuple(Fraction(a) for a in D)
            assert _pairs(cohomology._homology_chambers(fan, key)) == \
                _reference_homology_chambers(fan, D), (fan, D)
    assert decided["apex"] >= 1000 and decided["dual apex"] >= 100, decided


def test_dual_apex_test_waits_for_a_complete_fan(monkeypatch):
    # on the upper half-plane the chamber where both horizontal rays fail is
    # two points, and its complement is the one ray (0, 1): a cone, but no
    # sphere surrounds them, so the dual test would wrongly call it acyclic
    fan = _upper_half_plane()
    assert support_is_convex(fan) and not is_complete(fan)
    D = coeffs_of(fan, {(1, 0): -1, (-1, 0): -1})
    pattern = (fan.ray_index((-1, 0)), fan.ray_index((1, 0)))
    assert pattern == (0, 2)
    assert neg_complex(fan, pattern) == ((0,), (2,))
    assert homology_dims(neg_complex(fan, pattern), None, 1)[0] == 1
    assert _acyclic_witness(fan, pattern, False) is None
    assert _acyclic_witness(fan, pattern, True) == ("dual apex", 1)
    cohomology._homology_chambers.cache_clear()
    assert vanishing_higher(fan, D)[0] == (False, ((0, 2), 1))
    monkeypatch.setattr(cohomology, "is_complete", lambda fan: True)
    cohomology._homology_chambers.cache_clear()
    assert vanishing_higher(fan, D)[0] == (True, None)
    cohomology._homology_chambers.cache_clear()


def test_boundary_matrices_only_for_chambers_no_cone_test_decides(monkeypatch):
    # verify_instance on cubeq-flop: the walk's cone tests drop most cells
    # before they are eliminated, every chamber it keeps is one that neither
    # the apex nor the dual test decides, and every complex that reaches
    # `_boundary_divisors` is one of those
    from toricvanish import verify

    undecided, decided, boundary = set(), 0, set()
    real_certificate = cohomology._cone_certificate
    real_neg_complex = cohomology.neg_complex
    real_boundary = cohomology._boundary_divisors

    def recording_certificate(obstructions, sphere, neg, pos):
        nonlocal decided
        certificate = real_certificate(obstructions, sphere, neg, pos)
        decided += certificate is not None
        return certificate

    def recording_neg_complex(fan, pattern):
        assert _acyclic_witness(fan, pattern, is_complete(fan)) is None
        undecided.add(real_neg_complex(fan, pattern))
        return real_neg_complex(fan, pattern)

    def recording_boundary(maximal_faces):
        boundary.add(maximal_faces)
        return real_boundary(maximal_faces)

    monkeypatch.setattr(cohomology, "_cone_certificate", recording_certificate)
    monkeypatch.setattr(cohomology, "neg_complex", recording_neg_complex)
    monkeypatch.setattr(cohomology, "_boundary_divisors", recording_boundary)
    cohomology._homology_chambers.cache_clear()
    verify.verify_instance(dict(curated_instances())["cubeq-flop"])
    cohomology._homology_chambers.cache_clear()
    assert decided > 4 * len(undecided) > 0
    assert boundary == undecided


def _reference_witness_homology_chambers(fan, coeffs):
    """`_homology_chambers` as it walked every chamber, then dropped those the
    apex or dual-apex test decided on their maximal faces, then ran SNF."""
    complete = is_complete(fan)
    vertices = set().union(*fan.max_cones)

    def has_apex(faces):
        return bool(faces) and bool(set(faces[0]).intersection(*faces[1:]))

    out = []
    for ch in chambers(fan, coeffs):
        cx = neg_complex(fan, ch.pattern)
        if has_apex(cx) or (complete and cx and has_apex(
                neg_complex(fan, vertices.difference(ch.pattern)))):
            continue
        if not cohomology._z_acyclic(cx):
            out.append((ch, cx))
    return tuple(out)


def _relative_chamber_fans():
    """Simplicial fans with convex support that are not complete."""
    fans = reference_fans() + [_upper_half_plane()] + [f for f, _ in mmp_models()]
    out = []
    for fan in fans:
        if (is_simplicial(fan) and fan not in out and support_is_convex(fan)
                and not is_complete(fan)):
            out.append(fan)
    return out


def test_pruned_walk_keeps_the_chambers_of_the_full_walk():
    rng = random.Random(31)
    relative = _relative_chamber_fans()
    assert len(relative) >= 5
    checked = 0
    for fan in _chamber_fans() + relative:
        ints = tuple(rng.randint(-3, 3) for _ in fan.rays)
        fracs = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
                      for _ in fan.rays)
        for D in (canonical(fan), coeffs_of(fan, {}), ints, fracs):
            key = tuple(Fraction(a) for a in D)
            assert _pairs(cohomology._homology_chambers(fan, key)) == \
                _reference_witness_homology_chambers(fan, D), (fan, D)
            checked += 1
    assert checked >= 250


def test_apex_obstructions_are_the_minimal_non_faces_through_each_ray(p2):
    # on P^2 the one non-face is {0, 1, 2}; on the upper half-plane (rays
    # (-1, 0), (0, 1), (1, 0)) the one non-face is {0, 2}, and (0, 1) lies
    # in both maximal cones, so nothing obstructs it
    assert cohomology._apex_obstructions(p2) == (0b111, ((0b110,), (0b101,), (0b011,)))
    assert cohomology._apex_obstructions(_upper_half_plane()) == \
        (0b111, ((0b100,), (), (0b001,)))
    # a ray in no maximal cone is obstructed by the empty face, and no vertex
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1)])
    i = fan.ray_index((-1, 0))
    vertices, obstructions = cohomology._apex_obstructions(fan)
    assert obstructions[i] == (0,) and vertices == 0b111 & ~(1 << i)


def test_pruned_walk_eliminates_fewer_cells_and_asks_no_leaf_witness(monkeypatch):
    # on cubeq-flop the cone tests drop cells before they are eliminated, so
    # the leaves need no witness of their own: the leaf witness
    # `_acyclic_witness` lives in this file only, as the pruning's reference
    inst = dict(curated_instances())["cubeq-flop"]
    key = tuple(Fraction(a) for a in inst.d_coeffs)
    calls = {"extend": 0}
    real_extend = cohomology.extend_levels

    def extend(levels, rows):
        calls["extend"] += 1
        return real_extend(levels, rows)

    monkeypatch.setattr(cohomology, "extend_levels", extend)
    cohomology._homology_chambers.cache_clear()
    kept = cohomology._homology_chambers(inst.fan, key)
    cohomology._homology_chambers.cache_clear()
    pruned = calls["extend"]
    assert not hasattr(cohomology, "_acyclic_witness")
    full = chambers(inst.fan, inst.d_coeffs)
    assert len(full) > len(kept)
    assert 0 < pruned < calls["extend"] - pruned
