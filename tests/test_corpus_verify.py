import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ray_divisor
from toricvanish.cli import suite
from toricvanish.corpus import (
    curated_instances,
    gen_corpus,
    product_fan,
    projective_space,
    seed_fans,
)
from toricvanish import cones, verify
from toricvanish.divisors import (
    NotQCartier,
    canonical,
    cartier_data,
    klt_check,
    positivity,
    sub,
)
from toricvanish.fans import properties, validate
from toricvanish.formats import Instance, canonical_json, instance_to_obj
from toricvanish.mmp import run_mmp
from toricvanish.verify import (
    check_hypothesis,
    verify_flip_diagram_for,
    verify_kv,
    verify_mfs,
    verify_mmp,
)


def test_seed_fans_valid():
    for rank in (2, 3):
        for name, fan in seed_fans(rank):
            assert validate(fan) == [], name
            p = properties(fan)
            assert p.complete or p.support_convex, name


def test_projective_space_products():
    p1 = projective_space(1)
    p1xp1 = product_fan(p1, p1)
    assert len(p1xp1.rays) == 4 and len(p1xp1.max_cones) == 4
    assert properties(p1xp1).smooth


def test_gen_corpus_deterministic():
    a, _ = gen_corpus(42, 2, count=6)
    b, _ = gen_corpus(42, 2, count=6)
    assert [canonical_json(instance_to_obj(x)) for x in a] == \
        [canonical_json(instance_to_obj(y)) for y in b]
    c, _ = gen_corpus(43, 2, count=6)
    assert [i.label for i in a] != [i.label for i in c]


def test_gen_corpus_postconditions():
    for rank in (2, 3):
        instances, skipped = gen_corpus(42, rank, count=8)
        assert len(instances) == 8
        for inst in instances:
            assert len(inst.fan.rays) <= 12
            ok, reason = check_hypothesis(inst)
            assert ok, (inst.label, reason)
            okb, _ = klt_check(inst.fan, inst.b_coeffs)
            assert okb
            if inst.mode == 2:
                rest = sub(sub(inst.d_coeffs, canonical(inst.fan)), inst.b_coeffs)
                pos = positivity(inst.fan, rest)
                assert pos.nef and pos.big


def test_gen_corpus_rank_guard():
    with pytest.raises(ValueError):
        gen_corpus(1, 4)


def test_gen_corpus_rejects_a_negative_count_and_too_few_rays():
    with pytest.raises(ValueError, match="count must be nonnegative"):
        gen_corpus(42, 2, count=-1)
    # the smallest seed fans have 3 rays at rank 2 (P^2) and 4 at rank 3 (P^3)
    with pytest.raises(ValueError, match="at least 3"):
        gen_corpus(42, 2, max_rays=2)
    with pytest.raises(ValueError, match="at least 4"):
        gen_corpus(42, 3, max_rays=3)


def test_gen_corpus_skips_a_seed_fan_with_more_than_max_rays():
    # at rank 3 and max_rays 4 only P^3 and the two 4-ray flip threefolds fit;
    # a draw of a larger seed fan is skipped under its name
    instances, skipped = gen_corpus(42, 3, max_rays=4, count=6)
    assert len(instances) == 6
    assert all(len(inst.fan.rays) <= 4 for inst in instances)
    assert {"p1x3", "p1xp2", "cubeq", "cube"} <= set(skipped)
    assert {"p1x3", "p1xp2", "cubeq", "cube"}.isdisjoint(
        inst.label.split("-")[3] for inst in instances)


def test_curated_control():
    insts = dict(curated_instances())
    control = insts["control-p2-canonical"]
    ok, reason = check_hypothesis(control)
    assert not ok
    v = verify_kv(control, ("q",))
    assert not v.hypothesis_ok
    assert v.dims["q"][0] == [0, 0, 1]
    assert v.passed  # vacuous: hypothesis fails, so no vanishing is owed


def test_bigness_is_sharp_on_p1xp1(monkeypatch):
    # drop bigness alone: D - (K+B) = 2 D_(1,0) is nef, not big, and D has
    # h^1 = 1, so vanishing fails exactly where bigness fails. The centroid
    # of the sections decides it, with no Fourier-Motzkin call
    from toricvanish import divisors
    from toricvanish.cohomology import coh_dims
    from toricvanish.formats import Instance

    p1 = projective_space(1)
    fan = product_fan(p1, p1)
    assert list(fan.rays) == sorted(fan.rays)
    d = tuple(Fraction(x) for x in (-1, -1, -1, 1))
    inst = Instance("control-p1xp1-not-big", fan, (Fraction(0),) * 4, d, 2, ())
    monkeypatch.setattr(divisors, "is_feasible", None)
    assert check_hypothesis(inst) == (False, "D-(K+B) is not big")
    assert coh_dims(fan, d) == ((0, 1, 0),)


@pytest.mark.parametrize("mode, b, d, reason", [
    # formats refuses a non-integral D at parse time, so only a library call
    # reaches this reason
    (2, (0, 0, 0), (Fraction(1, 2), 0, 0), "D is not a Z-divisor"),
    # D - K = (-3, 1, 1) has degree -1
    (2, (0, 0, 0), (-4, 0, 0), "D-(K+B) is not nef"),
    # no witness, and D - K = (1, 1, 1) is not 0
    (1, (0, 0, 0), (0, 0, 0), "witness does not realize D - K - B as a principal divisor"),
    (1, (0, 0, 0), (-1, -1, -1), "B is not big"),
])
def test_check_hypothesis_refuses_with_its_reason(mode, b, d, reason):
    inst = Instance("x", projective_space(2), tuple(map(Fraction, b)),
                    tuple(map(Fraction, d)), mode, ())
    assert check_hypothesis(inst) == (False, reason)


def test_curated_minus_h_runs_to_fibration():
    insts = dict(curated_instances())
    inst = insts["p2-minus-h"]
    ok, reason = check_hypothesis(inst)
    assert ok, reason
    v = verify_mmp(inst, ("q", "f2"))
    assert v.passed
    assert v.certificates == ({"kind": "fibration"},)
    kv = verify_kv(inst, ("q", "f2", "f3"))
    assert kv.passed and all(kv.vanishing.values())


def test_curated_flip_instance():
    insts = dict(curated_instances())
    inst = insts["flip2-relative"]
    ok, reason = check_hypothesis(inst)
    assert ok, reason
    v = verify_mmp(inst, ("q", "f2"))
    assert v.passed, v.notes
    kinds = [c["kind"] for c in v.certificates]
    assert kinds == ["flip"]
    d = verify_flip_diagram_for(inst.fan, inst.d_coeffs)
    assert d.passed, d.notes


def test_curated_complete_flop():
    # complete fan: full dimension vectors must agree across the flip and the
    # divisorial step; the flip is a high-case one (-a+b >= 1)
    insts = dict(curated_instances())
    inst = insts["cubeq-flop"]
    ok, reason = check_hypothesis(inst)
    assert ok, reason
    v = verify_mmp(inst, ("q", "f2", "f5"))
    assert v.passed, v.notes
    kinds = [c["kind"] for c in v.certificates]
    assert kinds == ["flip", "divisorial"]
    flip_cert = v.certificates[0]
    assert flip_cert["case"] == "high"
    assert flip_cert["a"] == "-3/4" and flip_cert["b"] == "1/2"
    for f in ("q", "f2", "f5"):
        table = v.dims[f]
        assert len(table) == 3
        assert table[0] == table[1] == table[2] == [1, 0, 0, 0]


def test_verify_mfs_negative_control(p2):
    from toricvanish.divisors import scale
    from toricvanish.mmp import contract
    from toricvanish.mori import extremal_rays

    D = scale(-1, ray_divisor(p2, (1, 0)))
    res = contract(p2, extremal_rays(p2)[0])
    v = verify_mfs(p2, D, res, ("q", "f2"))
    assert v.passed
    # D = 0 is not relatively negative: precondition error
    with pytest.raises(ValueError, match="not relatively ample"):
        verify_mfs(p2, tuple(Fraction(0) for _ in p2.rays), res, ("q",))


def test_suite_deterministic_bytes(tmp_path):
    r1, c1 = suite(seed=42, ranks=(2,), count=4, fields=("q", "f2"), quiet=True)
    r2, c2 = suite(seed=42, ranks=(2,), count=4, fields=("q", "f2"), quiet=True)
    assert c1 == c2 == 0
    assert canonical_json(r1) == canonical_json(r2)


def test_suite_exit_codes():
    report, code = suite(seed=7, ranks=(2,), count=3, fields=("q",), quiet=True)
    assert code == 0
    labels = [e["label"] for e in report["instances"]]
    assert "control-p2-canonical" in labels
    control = next(e for e in report["instances"]
                   if e["label"] == "control-p2-canonical")
    assert control["verdict"] == "expected-fail"


def _two_verifier_entry(inst, fields):
    """Reference: the suite entry rebuilt from the public verifiers with the
    merge rule the suite used before it made one pass per instance."""
    kv = verify_kv(inst, fields)
    entry = kv.to_obj()
    if not isinstance(cartier_data(inst.fan, inst.d_coeffs), NotQCartier):
        mmp = verify_mmp(inst, fields)
        entry["mmp"] = list(mmp.certificates)
        entry["mmp_pass"] = bool(mmp.passed)
        if any(mmp.dims.values()):
            entry["dims"] = {k: v for k, v in sorted(mmp.dims.items())}
        entry["pass"] = bool(kv.passed and mmp.passed)
    return entry


def test_one_pass_agrees_with_public_verifiers():
    fields = ("q", "f2")
    report, _ = suite(seed=7, ranks=(2, 3), count=3, fields=fields, quiet=True)
    instances = {inst.label: inst for _, inst in curated_instances()}
    for rank in (2, 3):
        instances.update((inst.label, inst)
                         for inst in gen_corpus(7, rank, count=3)[0])
    assert sorted(instances) == [e["label"] for e in report["instances"]]
    for entry in report["instances"]:
        expect = _two_verifier_entry(instances[entry["label"]], fields)
        for key in ("hypothesis_ok", "vanishing", "dims", "mmp", "mmp_pass", "pass"):
            assert entry.get(key) == expect.get(key), (entry["label"], key)
        # the KV notes come first, and a note shared with the MMP verdict
        # (the Q-factorialization) appears once
        assert entry["notes"][:len(expect["notes"])] == expect["notes"]
        assert len(set(entry["notes"])) == len(entry["notes"])


def test_suite_reports_why_the_mmp_check_failed(monkeypatch):
    inst = dict(curated_instances())["cubeq-flop"]
    flipped = run_mmp(inst.fan, inst.d_coeffs, inst.b_coeffs).models[1]
    real = verify.model_cohomology

    def one_step_changes_h0(fan, coeffs, fields):
        mode, payload = real(fan, coeffs, fields)
        if fan == flipped:
            payload = {f: [dims[0] + 1] + dims[1:] for f, dims in payload.items()}
        return mode, payload

    monkeypatch.setattr(verify, "model_cohomology", one_step_changes_h0)
    report, code = suite(ranks=(), fields=("q",), quiet=True)
    entry = next(e for e in report["instances"] if e["label"] == "cubeq-flop")
    assert code == 1
    assert entry["verdict"] == "fail" and entry["mmp_pass"] is False
    assert "q: dims changed at step 0" in entry["notes"]
    assert "q: dims changed at step 1" in entry["notes"]


def test_suite_records_an_instance_error_and_goes_on(monkeypatch):
    # the hypothesis check of p2-minus-h and the MMP of flip2-relative raise:
    # each becomes an "error" entry with its stage and message, every other
    # instance is still verified, and the suite exits 1. The MMP of the
    # control raises too, but its hypothesis fails, so no MMP certificate is
    # owed: the failure is a note and the control still fails as predicted
    real_run, real_check = verify.run_mmp, verify.check_hypothesis
    calls = []

    def failing_run(*args):
        calls.append(1)
        if len(calls) <= 2:
            raise RuntimeError("injected certificate failure")
        return real_run(*args)

    def failing_check(inst):
        if inst.label == "p2-minus-h":
            raise ValueError("injected input failure")
        return real_check(inst)

    monkeypatch.setattr(verify, "run_mmp", failing_run)
    monkeypatch.setattr(verify, "check_hypothesis", failing_check)
    report, code = suite(ranks=(), fields=("q",), quiet=True)
    entries = {e["label"]: e for e in report["instances"]}
    assert code == 1
    control = entries["control-p2-canonical"]
    assert control["verdict"] == "expected-fail" and control["mmp"] == []
    assert "mmp: injected certificate failure" in control["notes"]
    assert entries["p2-minus-h"] == {
        "label": "p2-minus-h", "verdict": "error", "stage": "kv",
        "error": "injected input failure"}
    assert entries["flip2-relative"] == {
        "label": "flip2-relative", "verdict": "error", "stage": "mmp",
        "error": "injected certificate failure"}
    assert entries["cubeq-flop"]["verdict"] == "pass"


@pytest.mark.parametrize("error", [RecursionError, NotImplementedError])
def test_suite_entry_names_an_engine_error(error, monkeypatch):
    # an engine error is an "error" entry that names its type, as `cli.main`
    # prints it, and the suite goes on to the next instance and exits 1
    def failing_run(*args):
        raise error("maximum recursion depth exceeded")

    monkeypatch.setattr(verify, "run_mmp", failing_run)
    report, code = suite(ranks=(), fields=("q",), quiet=True)
    assert code == 1
    assert len(report["instances"]) == 4
    for entry in report["instances"]:
        assert entry["verdict"] == "error" and entry["stage"] == "mmp"
        assert entry["error"] == f"{error.__name__}: maximum recursion depth exceeded"


def test_cubeq_flop_computes_each_cone_dual_once(monkeypatch):
    # a dual depends on its generators alone, so within one verification no
    # generator list reaches the double description through cone_dual twice
    seen = {}
    real = cones.dd_cone

    def counted(rows, dim):
        if sys._getframe(1).f_globals is vars(cones):
            key = (tuple(map(tuple, rows)), dim)
            seen[key] = seen.get(key, 0) + 1
        return real(rows, dim)

    cones._dual.cache_clear()
    monkeypatch.setattr(cones, "dd_cone", counted)
    verify.verify_instance(dict(curated_instances())["cubeq-flop"])
    assert seen and max(seen.values()) == 1


def test_verify_kv_never_runs_the_mmp(monkeypatch):
    def no_mmp(*args, **kwargs):
        raise AssertionError("verify_kv ran the MMP")

    monkeypatch.setattr(verify, "run_mmp", no_mmp)
    for label, inst in curated_instances():
        assert verify_kv(inst).label == label
    with pytest.raises(AssertionError, match="ran the MMP"):
        verify_mmp(dict(curated_instances())["p2-minus-h"])


def test_verify_instance_skips_a_d_that_is_not_q_cartier():
    from toricvanish.corpus import cube_face_fan
    from toricvanish.formats import Instance

    cube = cube_face_fan()
    d = ray_divisor(cube, cube.rays[0])
    inst = Instance("cube-d1", cube, tuple(0 * x for x in d), d, 2, ())
    kv, mmp = verify.verify_instance(inst)
    assert mmp is None
    assert kv.notes == ("cohomology skipped: D is not Q-Cartier",)
    assert verify_mmp(inst) == kv == verify_kv(inst)
    # vacuous: the hypothesis fails, so no vanishing is owed
    assert verify.report_entry(kv, mmp)["verdict"] == "pass"


@pytest.mark.parametrize("draw", ["_mode1_divisors", "_mode2_divisors"])
def test_boundary_range_checks_survive_python_O(draw):
    # rounding D one step too high puts every coefficient of B in [1, 2);
    # the range check is a raise, not an assert
    script = ("import random\n"
              "from toricvanish import corpus\n"
              "real = corpus.round_divisor\n"
              "corpus.round_divisor = lambda c, mode: tuple(x + 1 for x in real(c, mode))\n"
              "try:\n"
              f"    corpus.{draw}(random.Random(0), corpus.projective_space(2))\n"
              "except RuntimeError as exc:\n"
              "    print('raised:', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: rounding left a boundary coefficient outside")
