"""Acceptance criteria, one test per criterion, each printing a verdict line.

Expected values here are frozen from independent derivations: closed-form
lattice counts, hand-solved Cartier data, and the brute-force style oracles
exercised in the unit-test modules.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from conftest import f1_fan, mat_mul, p2_fan, ray_divisor, reference_smith_normal_form
from toricvanish.cli import suite
from toricvanish.cohomology import cech_graded, coh_dims, graded_piece, parse_field
from toricvanish.corpus import (
    cube_face_fan,
    curated_instances,
    flip_threefold,
    gen_corpus,
    product_fan,
    projective_space,
    weighted_p112,
)
from toricvanish.divisors import (
    ZERO,
    NotQCartier,
    canonical,
    cartier_data,
    h0_dim,
    positivity,
    principal,
    scale,
    sub,
)
from toricvanish.fans import check_map, is_complete, is_simplicial, q_factorialize, validate
from toricvanish.formats import canonical_json
from toricvanish.linalg import smith_normal_form
from toricvanish.mmp import run_mmp
from toricvanish.mori import intersect, walls
from toricvanish.verify import (
    check_hypothesis,
    verify_flip_diagram_for,
    verify_kv,
    verify_mfs,
    verify_mmp,
)

ALL_FIELDS = ("q", "f2", "f3", "f5", "f7")
FIELDS = tuple(parse_field(f) for f in ALL_FIELDS)


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=None)
def _corpus():
    """The acceptance corpus, generated once per session."""
    instances = []
    for rank, count in ((2, 45), (3, 40)):
        gen, _ = gen_corpus(42, rank, max_rays=12, count=count)
        instances.extend(gen)
    return tuple(instances)


def test_criterion_1_kv_vanishing_suite():
    start = time.time()
    instances = [i for i in _corpus() if i.mode == 2]
    assert len(instances) >= 50, f"only {len(instances)} hypothesis-(2) instances"
    failures = []
    for inst in instances:
        ok, reason = check_hypothesis(inst)
        if not ok:
            failures.append((inst.label, reason))
            continue
        verdict = verify_kv(inst, ALL_FIELDS)
        if not (verdict.passed and all(verdict.vanishing.values())):
            failures.append((inst.label, verdict.notes))
    elapsed = time.time() - start
    _report("criterion-1 kv-vanishing-suite",
            not failures and elapsed < 600,
            f"{len(instances)} instances, {elapsed:.1f}s, failures={failures[:3]}")


def test_criterion_2_negative_control():
    p2 = p2_fan()
    h_k = coh_dims(p2, canonical(p2))[0]
    control = dict(curated_instances())["control-p2-canonical"]
    hyp_ok, _ = check_hypothesis(control)
    h_3h = coh_dims(p2, scale(3, ray_divisor(p2, (1, 0))))[0]
    _report("criterion-2 negative-control",
            h_k == (0, 0, 1) and not hyp_ok and h_3h == (10, 0, 0),
            f"h(K)={h_k}, h(3H)={h_3h}")


def test_criterion_3_oracle_equivalence():
    rng = random.Random("acceptance-oracle")
    p1 = projective_space(1)
    fans = [p2_fan(), f1_fan(), product_fan(p1, p1), weighted_p112(),
            projective_space(3), flip_threefold((1, 1, -2)),
            flip_threefold((1, 1, -1))]
    mismatches = 0
    checked = 0
    for fan in fans:
        for _ in range(30):
            D = tuple(Fraction(rng.randint(-3, 3)) for _ in fan.rays)
            m = tuple(rng.randint(-4, 4) for _ in range(fan.rank))
            for field in ("q", "f2"):
                f = parse_field(field)
                if cech_graded(fan, D, m, f) != graded_piece(fan, D, m, f):
                    mismatches += 1
            checked += 1
    _report("criterion-3 oracle-equivalence",
            checked >= 200 and mismatches == 0,
            f"{checked} triples, {mismatches} mismatches")


def test_criterion_4_demazure_nef():
    rng = random.Random("acceptance-nef")
    p1 = projective_space(1)
    fans = [p2_fan(), f1_fan(), product_fan(p1, p1), weighted_p112(),
            projective_space(3)]
    found = 0
    bad = []
    while found < 20:
        fan = fans[found % len(fans)]
        D = tuple(Fraction(rng.randint(0, 4)) for _ in fan.rays)
        cd = cartier_data(fan, D)
        if isinstance(cd, NotQCartier):
            continue
        if any(x.denominator != 1 for m in cd.covectors for x in m):
            continue  # Cartier only
        if not positivity(fan, D).nef:
            continue
        found += 1
        sections = h0_dim(fan, D)
        expected_h0 = 0 if sections == ZERO else sections
        for field, dims in zip(ALL_FIELDS, coh_dims(fan, D, FIELDS)):
            if dims[0] != expected_h0 or any(dims[1:]):
                bad.append((fan.rank, D, field, dims))
    _report("criterion-4 demazure-nef", found >= 20 and not bad,
            f"{found} nef Cartier divisors, bad={bad[:2]}")


def test_criterion_5_serre_duality():
    rng = random.Random("acceptance-serre")
    p1 = projective_space(1)
    fans = [p2_fan(), product_fan(p1, p1), f1_fan(), projective_space(3)]
    checked = 0
    bad = []
    for fan in fans:
        K = canonical(fan)
        for _ in range(3):
            D = tuple(Fraction(rng.randint(-2, 2)) for _ in fan.rays)
            hd = coh_dims(fan, D)[0]
            hk = coh_dims(fan, sub(K, D))[0]
            if hd != tuple(reversed(hk)):
                bad.append((fan.rank, D, hd, hk))
            checked += 1
    _report("criterion-5 serre-duality", checked >= 10 and not bad,
            f"{checked} divisors, bad={bad[:2]}")


def _all_runs():
    instances = [inst for _, inst in curated_instances()
                 if inst.label != "control-p2-canonical"]
    instances += _corpus()
    runs = []
    for inst in instances:
        ok, _ = check_hypothesis(inst)
        if not ok:
            continue
        if isinstance(cartier_data(inst.fan, inst.d_coeffs), NotQCartier):
            continue
        fan, b, d = inst.fan, inst.b_coeffs, inst.d_coeffs
        if not is_simplicial(fan):
            qf, mp = q_factorialize(fan)
            from toricvanish.divisors import pullback

            d = pullback(mp, d)
            b = pullback(mp, b)
            fan = qf
        runs.append((inst, run_mmp(fan, d, b)))
    return runs


@pytest.fixture(scope="module")
def corpus_runs():
    return _all_runs()


def test_criterion_6_mmp_step_invariance(corpus_runs):
    bad = []
    step_kinds = {"divisorial": 0, "flip": 0, "fibration": 0}
    for inst, run in corpus_runs:
        verdict = verify_mmp(inst, ALL_FIELDS)
        if not verdict.passed:
            bad.append((inst.label, verdict.notes))
        for step in run.steps:
            step_kinds[step.kind] += 1
            cert = step.certificate
            if step.kind == "divisorial" and not cert.a > 0:
                bad.append((inst.label, "divisorial a <= 0"))
            if step.kind == "flip":
                if not (cert.a > -1 and 0 <= cert.b < 1 and cert.c > 0):
                    bad.append((inst.label, "flip certificate out of range"))
    nontrivial = step_kinds["divisorial"] >= 1 and step_kinds["flip"] >= 1
    _report("criterion-6 mmp-step-invariance", not bad and nontrivial,
            f"runs={len(corpus_runs)}, steps={step_kinds}, bad={bad[:2]}")


def test_criterion_7_flip_diagram(corpus_runs):
    bad = []
    count = 0
    for w4 in ((1, 1, -1), (1, 1, -2)):
        fan = flip_threefold(w4)
        D = scale(-1, ray_divisor(fan, (0, 0, 1)))
        v = verify_flip_diagram_for(fan, D)
        count += 1
        if not v.passed:
            bad.append((w4, v.notes))
    for inst, run in corpus_runs:
        for i, step in enumerate(run.steps):
            if step.kind != "flip":
                continue
            model, div = run.models[step.source_index], run.divisors[step.source_index]
            v = verify_flip_diagram_for(model, div)
            count += 1
            if not v.passed:
                bad.append((inst.label, v.notes))
    _report("criterion-7 flip-diagram", count >= 3 and not bad,
            f"{count} diagrams verified, bad={bad[:2]}")


def test_criterion_8_mori_fibre_space(corpus_runs):
    bad = []
    count = 0
    for inst, run in corpus_runs:
        if run.end != "mori_fibre_space":
            continue
        count += 1
        v = verify_mfs(run.models[-1], run.divisors[-1], run.end_data, ALL_FIELDS)
        if not v.passed:
            bad.append((inst.label, v.notes))
        if is_complete(run.models[-1]):
            for field, dims in zip(ALL_FIELDS,
                                   coh_dims(run.models[-1], run.divisors[-1], FIELDS)):
                if any(dims):
                    bad.append((inst.label, f"nonzero dims over {field}"))
    _report("criterion-8 mori-fibre-space", count >= 1 and not bad,
            f"{count} fibration ends, bad={bad[:2]}")


def test_criterion_9_q_factorialization():
    cube = cube_face_fan()
    qf, mp = q_factorialize(cube)
    cm = check_map(mp)
    structural = (is_simplicial(qf) and qf.rays == cube.rays
                  and len(qf.rays) == 8 and validate(qf) == []
                  and cm["proper"] and cm["birational"])
    corpus_ok = True
    details = []
    for inst in _corpus():
        if is_simplicial(inst.fan):
            continue
        v = verify_kv(inst, ALL_FIELDS)
        note_ok = any("Q-factorialization" in n for n in v.notes)
        if not (v.passed and v.hypothesis_ok and note_ok):
            corpus_ok = False
            details.append(inst.label)
    non_simplicial_count = sum(1 for i in _corpus() if not is_simplicial(i.fan))
    _report("criterion-9 q-factorialization",
            structural and corpus_ok and non_simplicial_count >= 1,
            f"{non_simplicial_count} non-simplicial corpus instances, bad={details[:2]}")


def test_criterion_10_exactness_determinism(corpus_runs):
    r1, c1 = suite(seed=42, ranks=(2,), count=6, fields=("q", "f2"), quiet=True)
    r2, c2 = suite(seed=42, ranks=(2,), count=6, fields=("q", "f2"), quiet=True)
    deterministic = canonical_json(r1) == canonical_json(r2) and c1 == c2 == 0

    rng = random.Random("acceptance-snf")
    snf_ok = True
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        S, V = smith_normal_form(A)
        S_ref, U, V_ref = reference_smith_normal_form(A)
        if (S, V) != (S_ref, V_ref) or mat_mul(mat_mul(U, A), V) != S:
            snf_ok = False
        diag = [S[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a and b % a:
                snf_ok = False

    principal_ok = True
    nef_ok = True
    for inst, run in corpus_runs:
        fan = run.models[0]
        ws = walls(fan)
        for j in range(fan.rank):
            m = tuple(1 if i == j else 0 for i in range(fan.rank))
            div = principal(fan, m)
            if any(intersect(fan, div, w) != 0 for w in ws):
                principal_ok = False
        D = run.divisors[0]
        nef_walls = all(intersect(fan, D, w) >= 0 for w in ws)
        if nef_walls != positivity(fan, D).nef:
            nef_ok = False
    _report("criterion-10 exactness-determinism",
            deterministic and snf_ok and principal_ok and nef_ok,
            f"deterministic={deterministic} snf={snf_ok} "
            f"principal={principal_ok} nef={nef_ok}")
