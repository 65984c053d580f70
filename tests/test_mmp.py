import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, floor
from pathlib import Path

import pytest

from conftest import (
    flip_side_a,
    flip_side_b,
    int_kernel,
    mmp_models,
    mmp_runs,
    p2_fan,
    ray_divisor,
    reference_curve_class,
    reference_discrepancy,
    reference_extremal_rays,
    reference_fans,
    reference_pair,
    reference_primitive_direction,
)
from toricvanish import cones, divisors, fans, lp, mmp
from toricvanish.cones import cone_dual
from toricvanish.corpus import curated_instances, gen_corpus, seed_fans
from toricvanish.divisors import (
    NotQCartier,
    canonical,
    cartier_data,
    coeffs_of,
    pullback,
    pushforward,
    scale,
)
from toricvanish.fans import (
    ToricMap,
    check_map,
    full_span,
    identity_map,
    is_simplicial,
    make_fan,
    star_subdivide,
    support_is_convex,
    validate,
)
from toricvanish.mmp import flip, flip_diagram, negative_contractions, run_mmp
from toricvanish.linalg import adapted_basis, dot, int_rank, mat_vec, primitive
from toricvanish.mori import intersect, walls, walls_within
from toricvanish.verify import _q_factorial_model, verify_flip_diagram_for


def test_contract_f1_divisorial(f1, p2):
    E = ray_divisor(f1, (1, 1))
    res = next(negative_contractions(f1, E))
    assert res.kind == "divisorial"
    assert res.removed_ray == (1, 1)
    assert res.target == p2
    cm = check_map(res.map)
    assert cm["proper"] and cm["birational"]


def test_contract_flip_side_a():
    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    res = next(negative_contractions(fan, D), None)
    assert res is not None
    assert res.kind == "flipping"
    assert len(res.target.max_cones) == 1
    assert len(res.target.max_cones[0]) == 4
    assert res.target.rays == fan.rays


def test_contract_p2_fibration(p2):
    D = canonical(p2)
    res = next(negative_contractions(p2, D))
    assert res.kind == "fibration"
    assert res.target.rank == 0
    cm = check_map(res.map)
    assert cm["well_defined"] and cm["proper"]


def test_contract_p1xp1_fibration(p1xp1):
    D = scale(-1, ray_divisor(p1xp1, (0, 1)))
    res = next(negative_contractions(p1xp1, D))
    assert res.kind == "fibration"
    assert res.target.rank == 1
    assert len(res.target.rays) == 2


def test_flip_sides():
    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    flipped = flip(fan, next(negative_contractions(fan, D)), D)
    assert flipped == flip_side_b()
    # D becomes positive on the new wall
    (w,) = walls(flipped)
    assert intersect(flipped, D, w) > 0


def test_flip_involution_flop():
    fan = flip_side_a((1, 1, -1))
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    flipped = flip(fan, next(negative_contractions(fan, D)), D)
    assert flipped == flip_side_b((1, 1, -1))
    # flipping again with the negated strict transform undoes the flip
    D_back = scale(-1, D)
    back = flip(flipped, next(negative_contractions(flipped, D_back)), D_back)
    assert back == fan


def test_flip_non_flipping_ray_errors(f1):
    E = ray_divisor(f1, (1, 1))
    with pytest.raises(ValueError, match="not flipping"):
        flip(f1, next(negative_contractions(f1, E)), E)


def test_run_mmp_rejects_a_boundary_of_another_length(p2):
    with pytest.raises(ValueError, match="4 boundary coefficients for 3 rays"):
        run_mmp(p2, canonical(p2), (Fraction(0),) * 4)


def test_failed_flip_certificate_is_a_runtime_error(monkeypatch):
    # a flipped fan that fails validation is a failed certificate; the
    # caller's preconditions stay ValueErrors
    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    res = next(negative_contractions(fan, D))
    with pytest.raises(ValueError, match="not negative on the flipping ray"):
        flip(fan, res, scale(-1, D))
    monkeypatch.setattr(mmp, "validate", lambda fan: ["planted defect"])
    with pytest.raises(RuntimeError, match="flipped structure is not a fan: planted"):
        flip(fan, res, D)


def test_flip_diagram_flop():
    fan = flip_side_a((1, 1, -1))
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    res = next(negative_contractions(fan, D))
    flipped = flip(fan, res, D)
    dia = flip_diagram(fan, flipped, res)
    assert dia.e_ray == (1, 1, 0)
    assert is_simplicial(dia.theta)
    assert len(dia.theta.rays) == len(fan.rays) + 1
    assert validate(dia.theta) == []
    for mp in (dia.psi, dia.psi_prime):
        cm = check_map(mp)
        assert cm["proper"] and cm["birational"]
    # kappa agrees with the wall pairing up to a positive multiple
    (w,) = walls(fan)
    cc = reference_curve_class(fan, w)
    for i in range(len(fan.rays)):
        probe = tuple(Fraction(1) if j == i else Fraction(0) for j in range(len(fan.rays)))
        k_val = dot(dia.gamma, probe)
        w_val = reference_pair(cc, probe)
        assert (k_val == 0) == (w_val == 0)
        if w_val:
            ratio = k_val / w_val
            assert ratio > 0


def test_flip_diagram_equation_exact():
    for w4 in ((1, 1, -1), (1, 1, -2)):
        fan = flip_side_a(w4)
        D = scale(-1, ray_divisor(fan, (0, 0, 1)))
        res = next(negative_contractions(fan, D))
        flipped = flip(fan, res, D)
        dia = flip_diagram(fan, flipped, res)
        e_idx = dia.theta.ray_index(dia.e_ray)
        for i in range(len(fan.rays)):
            F = tuple(Fraction(1) if j == i else Fraction(0)
                      for j in range(len(fan.rays)))
            Fp = pushforward_strict(fan, flipped, F)
            lhs = pullback(dia.psi, F)
            rhs = pullback(dia.psi_prime, Fp)
            kappa = dot(dia.gamma, F)
            assert lhs == tuple(r - (kappa if j == e_idx else 0)
                                for j, r in enumerate(rhs))


def pushforward_strict(src, dst, coeffs):
    by_ray = {src.rays[i]: coeffs[i] for i in range(len(src.rays))}
    return tuple(by_ray[r] for r in dst.rays)


def test_run_mmp_f1_divisorial(f1, p2):
    D = ray_divisor(f1, (1, 1))
    run = run_mmp(f1, D, coeffs_of(f1, {}))
    assert run.end == "nef"
    assert len(run.steps) == 1
    assert run.steps[0].kind == "divisorial"
    assert run.steps[0].certificate.a == 1
    assert run.models[-1] == p2
    assert run.divisors[-1] == coeffs_of(p2, {})


def test_run_mmp_p2_nef(p2):
    run = run_mmp(p2, scale(-1, canonical(p2)), coeffs_of(p2, {}))
    assert run.end == "nef" and len(run.steps) == 0


def test_run_mmp_p2_mfs(p2):
    run = run_mmp(p2, canonical(p2), coeffs_of(p2, {}))
    assert run.end == "mori_fibre_space"
    assert run.steps[-1].kind == "fibration"
    assert run.end_data.target.rank == 0


def test_run_mmp_flip():
    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    run = run_mmp(fan, D, coeffs_of(fan, {}))
    assert run.end == "nef"
    assert [s.kind for s in run.steps] == ["flip"]
    cert = run.steps[0].certificate
    assert cert.kind == "flip"
    assert cert.a > -1 and 0 <= cert.b < 1 and cert.c > 0
    assert run.models[-1] == flip_side_b()


def test_flip_certificate_values():
    # B = 0 and D = -D_{u3} on the (1,1,-2) side: phi(w) = 2 at w = u1+u2
    # gives a = 1; the pullback of D is integral at w, so b = 0 and the gap
    # -a+b = -1 forces the shift m = 1; Gamma is twice the wall curve, c = 2
    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    run = run_mmp(fan, D, coeffs_of(fan, {}))
    cert = run.steps[0].certificate
    assert cert.exceptional == (1, 1, 0)
    assert cert.a == 1
    assert cert.b == 0
    assert cert.case == "low"
    assert cert.m_shift == 1
    assert cert.c == 2
    (w,) = walls(fan)
    ratio = cert.c / -intersect(fan, D, w)
    assert ratio == 2  # Gamma = 2 * [wall curve]
    # D_Y = ceil(psi*D) + m E carries the shift at the new ray only
    e_idx = run.steps[0].diagram.theta.ray_index((1, 1, 0))
    assert cert.d_y[e_idx] == 1


def test_high_case_certificate():
    # circuit u1+u2 = 2u3+2u4 with gcd 2: fractional pullback at the new ray
    fan = make_fan(3, [(2, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
                   [(0, 1, 2), (0, 1, 3)])
    B = coeffs_of(fan, {(2, 1, 0): Fraction(3, 5), (0, 1, 0): Fraction(3, 5)})
    D = ray_divisor(fan, (2, 1, 0))
    run = run_mmp(fan, D, B)
    assert [s.kind for s in run.steps] == ["flip"]
    cert = run.steps[0].certificate
    assert cert.case == "high"
    assert cert.a == Fraction(-3, 5)
    assert cert.b == Fraction(1, 2)
    assert 0 < -cert.a < 1 and 0 < cert.b < 1
    assert cert.c > 0


def test_mmp_models_stay_valid():
    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    run = run_mmp(fan, D, coeffs_of(fan, {}))
    from toricvanish.fans import support_is_convex

    for model in run.models:
        assert validate(model) == []
        assert is_simplicial(model)
        assert support_is_convex(model)


def test_run_mmp_rejects_torus_factor():
    fan = make_fan(2, [(1, 0)], [(0,)])
    with pytest.raises(ValueError, match="torus factor"):
        run_mmp(fan, coeffs_of(fan, {}), coeffs_of(fan, {}))


def test_flip_strict_transform_through_resolution():
    # pushing D through the common resolution both ways matches the strict
    # transform (identical coefficients on the shared rays)
    from fractions import Fraction as Fr

    for w4 in ((1, 1, -1), (1, 1, -2)):
        fan = flip_side_a(w4)
        D = coeffs_of(fan, {(0, 0, 1): -1, (1, 0, 0): Fr(2)})
        if intersect(fan, D, walls(fan)[0]) >= 0:
            D = scale(-1, D)
        res = next(negative_contractions(fan, D))
        flipped = flip(fan, res, D)
        dia = flip_diagram(fan, flipped, res)
        up = pullback(dia.psi, D)
        down = pushforward(dia.psi_prime, up)
        strict = pushforward_strict(fan, flipped, D)
        assert down == strict


def test_flip_diagram_kills_principal_divisors():
    # a divisor pulled back from the base pairs to zero with Gamma, and the
    # two resolution pullbacks then agree on the nose
    from toricvanish.divisors import principal

    fan = flip_side_a()
    D = scale(-1, ray_divisor(fan, (0, 0, 1)))
    res = next(negative_contractions(fan, D))
    flipped = flip(fan, res, D)
    dia = flip_diagram(fan, flipped, res)
    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)):
        F = principal(fan, m)
        assert dot(dia.gamma, F) == 0
        Fp = pushforward_strict(fan, flipped, F)
        assert pullback(dia.psi, F) == pullback(dia.psi_prime, Fp)


def test_star_subdivide_maps_always_proper_birational():
    from conftest import p112_fan, p3_fan
    from toricvanish.fans import star_subdivide

    cases = [
        (p2_fan(), (1, 1)),
        (p2_fan(), (-1, 0)),
        (p112_fan(), (1, 1)),
        (p3_fan(), (1, 1, 1)),
        (flip_side_a(), (1, 1, 0)),
        (flip_side_a(), (1, 1, -1)),
    ]
    for fan, v in cases:
        out, m = star_subdivide(fan, v)
        assert validate(out) == []
        cm = check_map(m)
        assert cm["well_defined"] and cm["proper"] and cm["birational"]


def _count_contract(monkeypatch):
    calls = []
    real = mmp.contract

    def counting(fan, extremal):
        calls.append(extremal[0])
        return real(fan, extremal)

    monkeypatch.setattr(mmp, "contract", counting)
    return calls


def _curated(label):
    return dict(curated_instances())[label]


def test_run_mmp_contracts_once_per_step(monkeypatch):
    inst = _curated("cubeq-flop")
    calls = _count_contract(monkeypatch)
    run = run_mmp(inst.fan, inst.d_coeffs, inst.b_coeffs)
    assert [s.kind for s in run.steps] == ["flip", "divisorial"]
    assert len(calls) == len(run.steps) == 2


def test_run_mmp_intersects_only_to_pick_and_check_rays(monkeypatch):
    # the nef stop is semiample_witness's integer loop, not one intersection
    # number per wall: on cubeq-flop, 34 intersect calls became 11; and the
    # sign of D.C that picks a ray is read in ints by extremal_rays, so only
    # the flip's own checks ask: 11 became 2
    inst = _curated("cubeq-flop")
    calls = []
    real = mmp.intersect

    def counting(fan, coeffs, wall):
        calls.append(wall)
        return real(fan, coeffs, wall)

    monkeypatch.setattr(mmp, "intersect", counting)
    run = run_mmp(inst.fan, inst.d_coeffs, inst.b_coeffs)
    assert run.end == "nef"
    assert len(calls) == 2


def test_flip_diagram_verifier_contracts_once(monkeypatch):
    inst = _curated("flip2-relative")
    calls = _count_contract(monkeypatch)
    verdict = verify_flip_diagram_for(inst.fan, inst.d_coeffs)
    assert verdict.passed
    assert len(calls) == 1


def test_flip_diagram_asks_for_no_cartier_data_on_simplicial_sides():
    # the two sides of a flip are simplicial, so Gamma is read off the new
    # ray's coordinates in one cone of each side, with no Cartier data
    inst = dict(curated_instances())["cubeq-flop"]
    run = next(r for r in mmp_runs() if r.models[0] == _q_factorial_model(inst)[0])
    (step,) = [s for s in run.steps if s.kind == "flip"]
    x_fan, x_plus = run.models[step.source_index], run.models[step.source_index + 1]
    assert is_simplicial(x_fan) and is_simplicial(x_plus)
    divisors._cartier_data.cache_clear()
    diagram = flip_diagram(x_fan, x_plus, step.contraction)
    info = divisors._cartier_data.cache_info()
    assert info.hits == info.misses == 0
    assert diagram == step.diagram


def _merge_groups_rescan(fan, direction):
    """Reference grouping: rescan every wall and keep those whose curve class
    lies on the given ray."""
    parent = list(range(len(fan.max_cones)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    on_ray = []
    for w in walls(fan):
        if reference_primitive_direction(reference_curve_class(fan, w)) == direction:
            on_ray.append(w)
            a, b = find(w.cone_a), find(w.cone_b)
            if a != b:
                parent[a] = b
    groups = {}
    for i in range(len(fan.max_cones)):
        groups.setdefault(find(i), []).append(i)
    return [tuple(v) for _, v in sorted(groups.items())], on_ray


def _outcome(fan, item):
    try:
        res = mmp.contract(fan, item)
    except ValueError as exc:
        return str(exc)
    return res.kind, res.target, res.merged_groups, res.removed_ray


def test_contract_walls_from_entry_match_a_rescan(monkeypatch):
    from conftest import cube_fan, f1_fan, p1xp1_fan, p112_fan, p3_fan

    fans = [p2_fan(), p1xp1_fan(), f1_fan(), p112_fan(), p3_fan(), cube_fan(),
            flip_side_a(), flip_side_b(), flip_side_a((1, 1, -1))]
    fans += [fan for rank in (2, 3) for _, fan in seed_fans(rank)]
    fans += [inst.fan for _, inst in curated_instances()]
    checked = 0
    for fan in fans:
        if not is_simplicial(fan):
            continue
        for item in reference_extremal_rays(fan):
            groups, on_ray = _merge_groups_rescan(fan, item[0])
            assert list(item[1]) == on_ray
            got = _outcome(fan, item)
            with monkeypatch.context() as m:
                m.setattr(mmp, "_merge_groups", lambda f, _w: groups)
                expected = _outcome(fan, item)
            assert got == expected
            if not isinstance(got, str):
                assert got[2] == tuple(g for g in groups if len(g) > 1)
            checked += 1
    assert checked >= 20


def test_divisorial_pullback_check_survives_python_O():
    # a pushforward that moves one coefficient keeps a > 0 but breaks
    # D = pullback(pushforward(D)) + a*E; the check is a raise, not an assert
    script = ("from toricvanish import mmp\n"
              "from toricvanish.divisors import coeffs_of, pushforward\n"
              "from toricvanish.fans import make_fan\n"
              "f1 = make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, -1)],\n"
              "              [(0, 2), (1, 2), (1, 3), (0, 3)])\n"
              "def shifted(m, coeffs):\n"
              "    out = pushforward(m, coeffs)\n"
              "    return (out[0] + 1,) + out[1:]\n"
              "mmp.pushforward = shifted\n"
              "try:\n"
              "    mmp.run_mmp(f1, coeffs_of(f1, {(1, 1): 1}), coeffs_of(f1, {}))\n"
              "except RuntimeError as exc:\n"
              "    print('raised:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: D is not the pullback of its pushforward")


def test_flip_certificate_range_check_survives_python_O():
    # a discrepancy of -1 is out of the klt range; the check is a raise, not
    # an assert
    script = ("from toricvanish import mmp\n"
              "from toricvanish.corpus import curated_instances\n"
              "inst = dict(curated_instances())['flip2-relative']\n"
              "mmp.discrepancy = lambda *args: -1\n"
              "try:\n"
              "    mmp.run_mmp(inst.fan, inst.d_coeffs, inst.b_coeffs)\n"
              "except RuntimeError as exc:\n"
              "    print('raised:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: discrepancy -1 <= -1: pair is not klt")


def _reference_lineality(gens, dim):
    """Basis of the lineality space of cone(gens), read off its dual as
    `cones.cone_lineality` read it."""
    ineqs, eqs = cone_dual(gens, dim)
    rows = ineqs + eqs
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    return int_kernel(rows)


def _reference_circuit(fan, ray_indices):
    kernel = int_kernel([[fan.rays[i][k] for i in ray_indices] for k in range(fan.rank)])
    if len(kernel) != 1:
        raise ValueError("merged cone is not a circuit")
    return kernel[0]


def _reference_contract(fan, extremal):
    """`mmp.contract` as it decided the kind by each merged cone's lineality
    and its extreme rays (one exact simplex per generator of a
    non-simplicial cone), not by the relation's sign pattern. Returns
    (kind, target, map, merged_groups, removed_ray)."""
    groups = mmp._merge_groups(fan, tuple(extremal[1]))
    merged = [g for g in groups if len(g) > 1]
    if not merged:
        raise ValueError("ray contracts nothing")
    group_rays, lineal = [], []
    for g in merged:
        idx = sorted(set().union(*(fan.max_cones[ci] for ci in g)))
        group_rays.append(idx)
        lineal.extend(_reference_lineality([fan.rays[i] for i in idx], fan.rank))
    if lineal:
        V, k = adapted_basis(lineal, fan.rank)
        q_matrix = tuple(tuple(V[i][j] for i in range(fan.rank))
                         for j in range(k, fan.rank))
        image_cones = [[primitive(v) for v in (mat_vec(q_matrix, fan.rays[i]) for i in c)
                        if any(v)] for c in fan.max_cones]
        ray_list = sorted({v for imgs in image_cones for v in imgs})
        cone_sets = [tuple(ray_list.index(imgs[i])
                           for i in cones.extreme_ray_indices(tuple(imgs), fan.rank - k))
                     for imgs in image_cones if imgs]
        maximal = [c for c in cone_sets if not any(set(c) < set(o) for o in cone_sets)]
        target = make_fan(fan.rank - k, ray_list, maximal)
        if validate(target):
            raise ValueError("fibration target is not a fan")
        return "fibration", target, ToricMap(q_matrix, fan, target), tuple(merged), None
    removed, new_cones = set(), []
    for idx in group_rays:
        extreme = cones.extreme_ray_indices(tuple(fan.rays[i] for i in idx), fan.rank)
        removed.update(idx[k] for k in range(len(idx)) if k not in extreme)
        new_cones.append(tuple(idx[k] for k in extreme))
    simplicial = [len(mc) == int_rank([fan.rays[i] for i in mc]) for mc in new_cones]
    if removed and (len(removed) != 1 or not all(simplicial)):
        raise ValueError("not an extremal contraction")
    if not removed and any(simplicial):
        raise ValueError("merged cone is simplicial; nothing to flip")
    untouched = [tuple(fan.max_cones[g[0]]) for g in groups if len(g) == 1]
    used = sorted(set().union(*map(set, untouched + new_cones)))
    reindex = {old: pos for pos, old in enumerate(used)}
    target = make_fan(fan.rank, [fan.rays[i] for i in used],
                      [tuple(reindex[i] for i in c) for c in untouched + new_cones])
    if validate(target):
        raise ValueError("contracted structure is not a fan")
    kind = "divisorial" if removed else "flipping"
    removed_ray = fan.rays[next(iter(removed))] if removed else None
    return kind, target, identity_map(fan, target), tuple(merged), removed_ray


def _reference_flip(fan, merged_groups, coeffs):
    """`mmp.flip` as it solved each merged group's circuit again and tried
    both of its sides."""
    current = {frozenset(fan.max_cones[ci]) for g in merged_groups for ci in g}
    new_cones = [tuple(c) for c in fan.max_cones if frozenset(c) not in current]
    families = []
    for g in merged_groups:
        idx = sorted(set().union(*(fan.max_cones[ci] for ci in g)))
        rel = _reference_circuit(fan, idx)
        t_plus = {frozenset(set(idx) - {i}) for i, r in zip(idx, rel) if r > 0}
        t_minus = {frozenset(set(idx) - {j}) for j, r in zip(idx, rel) if r < 0}
        group_cones = {frozenset(fan.max_cones[ci]) for ci in g}
        if group_cones not in (t_plus, t_minus):
            raise ValueError("merged group is not a circuit triangulation")
        other = t_minus if group_cones == t_plus else t_plus
        if len(other) < 2:
            raise ValueError("opposite side is divisorial, not a flip")
        families.append([tuple(sorted(s)) for s in sorted(other, key=sorted)])
        new_cones.extend(families[-1])
    flipped = make_fan(fan.rank, list(fan.rays), new_cones)
    if flipped.rays != fan.rays or validate(flipped):
        raise ValueError("flipped structure is not a fan")
    groups = [[flipped.max_cones.index(c) for c in family] for family in families]
    if any(intersect(flipped, coeffs, w) <= 0 for w in walls_within(flipped, groups)):
        raise ValueError("strict transform is not relatively ample")
    return flipped


def _reference_flip_diagram(x_fan, x_plus, z_fan):
    """`mmp.flip_diagram` as it rescanned the contracted fan for its one
    non-simplicial cone and solved that circuit again: (theta, e_ray, gamma)."""
    non_simplicial = [c for c in z_fan.max_cones
                      if len(c) != int_rank([z_fan.rays[i] for i in c])]
    if len(non_simplicial) != 1:
        raise ValueError("flip diagram needs a single-circuit flip")
    idx = non_simplicial[0]
    rel = _reference_circuit(z_fan, idx)
    e_ray = primitive(tuple(sum(r * z_fan.rays[i][k] for i, r in zip(idx, rel) if r > 0)
                            for k in range(z_fan.rank)))
    theta, psi = star_subdivide(x_fan, e_ray)
    theta2, psi_prime = star_subdivide(x_plus, e_ray)
    if theta != theta2:
        raise ValueError("star subdivisions of the two sides disagree")
    e_idx = theta.ray_index(e_ray)
    gamma = []
    for i, ray in enumerate(x_fan.rays):
        pb = pullback(psi, tuple(Fraction(int(j == i)) for j in range(len(x_fan.rays))))
        pb_plus = pullback(ToricMap(psi_prime.matrix, theta, x_plus),
                           tuple(Fraction(int(r == ray)) for r in x_plus.rays))
        if any(pb[j] != pb_plus[j] for j in range(len(theta.rays)) if j != e_idx):
            raise ValueError("pullbacks differ away from the exceptional ray")
        gamma.append(pb_plus[e_idx] - pb[e_idx])
    return theta, e_ray, tuple(gamma)


def _reference_certificate(x_fan, x_plus, contraction, b_coeffs, d_coeffs):
    """(kappa, a, b, c, case, m, D_Y) of a flip as `flip_diagram` and
    `step_certificate` read them before they read two cone coordinates:
    kappa off 2n pullbacks of unit divisors, a off the Cartier data of
    -(K+B) on every cone, and b and D_Y off the pullback of D."""
    theta, e_ray, kappa = _reference_flip_diagram(x_fan, x_plus, contraction.target)
    pb = pullback(star_subdivide(x_fan, e_ray)[1], d_coeffs)
    e_idx = theta.ray_index(e_ray)
    a = reference_discrepancy(x_fan, b_coeffs, e_ray)
    b = ceil(pb[e_idx]) - pb[e_idx]
    gap = -a + b
    if gap < 1:
        m = -floor(gap)
        d_y = tuple(ceil(x) + (m if j == e_idx else 0) for j, x in enumerate(pb))
    else:
        m, d_y = None, tuple(floor(x) for x in pb)
    return kappa, a, b, -dot(kappa, d_coeffs), "low" if gap < 1 else "high", m, d_y


def _seed_corpus_flips():
    """(source, flipped fan, contraction, B, D, diagram, certificate) of
    every flip step of the MMP runs of the curated instances and of the
    corpora of seeds 1, 7, 13, 42 and 101, each on its small
    Q-factorialization."""
    insts = [inst for _, inst in curated_instances()]
    insts += [inst for seed in (1, 7, 13, 42, 101) for rank in (2, 3)
              for inst in gen_corpus(seed, rank)[0]]
    for inst in insts:
        if isinstance(cartier_data(inst.fan, inst.d_coeffs), NotQCartier):
            continue
        fan, b, d, _ = _q_factorial_model(inst)
        run = run_mmp(fan, d, b)
        for step in run.steps:
            if step.kind == "flip":
                i = step.source_index
                yield (run.models[i], run.models[i + 1], step.contraction,
                       run.boundaries[i], run.divisors[i], step.diagram,
                       step.certificate)


def _drawn_flips():
    """The same for each flipping ray of `_sign_pattern_fans()`, twice, with
    a drawn D, negated where needed so that D.C < 0, and a drawn B in
    [0, 1)."""
    rng = random.Random(53)
    for fan in _sign_pattern_fans():
        for item in 2 * reference_extremal_rays(fan):
            res = mmp.contract(fan, item)
            if res.kind != "flipping" or len(res.merged_groups) != 1:
                continue
            D = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in fan.rays)
            if intersect(fan, D, item[1][0]) >= 0:
                D = scale(-1, D)
            if not intersect(fan, D, item[1][0]):
                continue
            B = tuple(Fraction(rng.randint(0, 5), 6) for _ in fan.rays)
            flipped = flip(fan, res, D)
            diagram = flip_diagram(fan, flipped, res)
            yield (fan, flipped, res, B, D, diagram,
                   _or_error(mmp.step_certificate, fan, B, D, diagram))


def test_flip_certificates_match_the_pullback_and_cartier_reference():
    # kappa = lambda+ - lambda, a = -1 + sum lambda_i (1 - b_i) and the
    # pulled-back coefficient sum lambda_i d_i, from the inserted ray's
    # coordinates on the two sides, equal the reference on every flip
    counts = Counter()
    for source, cases in (("corpus", _seed_corpus_flips()), ("drawn", _drawn_flips())):
        for x_fan, x_plus, res, B, D, diagram, cert in cases:
            expected = _or_error(_reference_certificate, x_fan, x_plus, res, B, D)
            got = (diagram.gamma, cert.a, cert.b, cert.c, cert.case, cert.m_shift,
                   cert.d_y) if not isinstance(cert, str) else cert
            assert got == expected, (x_fan, B, D)
            counts[source, "low" if isinstance(cert, str) else cert.case] += 1
    assert counts == {("corpus", "low"): 6, ("corpus", "high"): 1,
                      ("drawn", "low"): 99, ("drawn", "high"): 11}


def _sign_pattern_fans():
    """The distinct simplicial, convex, full-span fans of `reference_fans()`
    and `mmp_models()`."""
    chosen = [f for f in reference_fans()
              if f.rays and is_simplicial(f) and support_is_convex(f) and full_span(f)]
    return list(dict.fromkeys(chosen + [f for f, _ in mmp_models()]))


def _or_error(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return str(exc)


def test_sign_pattern_matches_the_reference_contraction_flip_and_diagram():
    # every extremal ray of 44 fans: the kind, target, map, merged groups and
    # removed ray, and on each flipping ray the flip of D = -D_u (u an
    # off-wall ray, so D.C < 0) and its diagram, agree with the old path
    kinds = Counter()
    for fan in _sign_pattern_fans():
        for item in reference_extremal_rays(fan):
            res = mmp.contract(fan, item)
            expected = _reference_contract(fan, item)
            assert (res.kind, res.target, res.map, res.merged_groups,
                    res.removed_ray) == expected
            kinds[res.kind] += 1
            if res.kind != "flipping":
                continue
            w = item[1][0]
            u = next(i for i in fan.max_cones[w.cone_a] if i not in w.rays)
            D = scale(-1, ray_divisor(fan, fan.rays[u]))
            flipped = flip(fan, res, D)
            assert flipped == _reference_flip(fan, res.merged_groups, D)
            got = _or_error(flip_diagram, fan, flipped, res)
            if not isinstance(got, str):
                got = got.theta, got.e_ray, got.gamma
            assert got == _or_error(_reference_flip_diagram, fan, flipped, res.target)
    assert kinds == {"divisorial": 72, "flipping": 56, "fibration": 18}


def test_contract_asks_the_simplex_only_through_validate(monkeypatch):
    # on each extremal ray of the distinct fans of mmp_models(), from cold
    # memos, contract makes exactly the lp.in_cone calls that validating its
    # target alone makes: no merged circuit cone reaches the simplex
    calls = []
    real = lp.in_cone

    def counting(*args):
        calls.append(args)
        return real(*args)

    def cold_calls(fn, *args):
        for memo in (cones._dual, cones.extreme_ray_indices, fans._common_face):
            memo.cache_clear()
        del calls[:]
        out = fn(*args)
        return out, len(calls)

    monkeypatch.setattr(lp, "in_cone", counting)
    rays = 0
    for fan in dict.fromkeys(f for f, _ in mmp_models()):
        for item in reference_extremal_rays(fan):
            res, inside = cold_calls(mmp.contract, fan, item)
            _, alone = cold_calls(validate, res.target)
            assert inside == alone, (res.kind, inside, alone)
            rays += 1
    assert rays == 73
