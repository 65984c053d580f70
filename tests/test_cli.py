import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import NON_CANONICAL_RATIONALS, p2_fan, ray_divisor
from toricvanish.cli import main
from toricvanish.formats import fan_to_obj, fraction_to_str, save

GOLDEN_SUITE_42 = "5987fc0e612ecc18466ee186965d2237b8ac882f9ff6733afb66beacca8c4a57"
GOLDEN_SUITES = {
    1: "53438f750cd7877799f025516f263896530373b45f90a5f5deac67f5433fa09f",
    7: "5964fa5285c4ff04ea361bd8abf8e9ae7a09e33aba8ed248798712ed5bcad6e2",
    13: "9de2f8941bd65cff32225aff83b90e6c1f53008e57711bc9b2979e2367da1a63",
    101: "cf61468e5bdafef10de1fcb8e0dbe221c9f22f475f9c4ac2e45c20592d3d8e7a",
}
# sha256 of `verify kv|mmp` stdout on each curated instance, default fields
GOLDEN_VERIFY = {
    ("control-p2-canonical", "kv"):
        "4ad52c3d9f3dbbed887f2b31c11f6901e95f4f69b90192d2c9cc816dfc376e71",
    ("control-p2-canonical", "mmp"):
        "c7982673c2dc066d448779388dc4b37d1622670766accf0f0d919b69bb66ceaa",
    ("p2-minus-h", "kv"):
        "36a052e09483c59e34993e46f1b644c91eb4018a18b5bbab731608667564c7b1",
    ("p2-minus-h", "mmp"):
        "bd60ff5eda728caa429b97ac582e70e6e731502d9f953eb0449193c27a0a96a5",
    ("flip2-relative", "kv"):
        "c7f58ce229abec7acede0b0d921dc5d8baf35ddb0fff649683d924e61b1bbc10",
    ("flip2-relative", "mmp"):
        "efd921f1f6b30fb9f8fe04d657bfb5d91b5c8acadd7787ff9451aeb6f3090856",
    ("cubeq-flop", "kv"):
        "cc8e3ddd6b81ead05c06da25d46f94ddba075148707c6390d2caf22e7a17b3fb",
    ("cubeq-flop", "mmp"):
        "17ddf445c60f79fd1f4e1634c787fab1622477cbb4598635d0ea0451998c3015",
}


@pytest.fixture
def p2_files(tmp_path):
    p2 = p2_fan()
    fan_path = tmp_path / "p2.json"
    save(fan_path, fan_to_obj(p2))
    div_path = tmp_path / "k.json"
    save(div_path, {"fan": "p2.json", "coeffs": ["-1", "-1", "-1"]})
    h3_path = tmp_path / "h3.json"
    coeffs = ["0", "0", "0"]
    coeffs[p2.rays.index((1, 0))] = "3"
    save(h3_path, {"fan": "p2.json", "coeffs": coeffs})
    return fan_path, div_path, h3_path


def test_fan_info(p2_files, capsys):
    fan_path, _, _ = p2_files
    assert main(["fan", "info", str(fan_path)]) == 0
    out = capsys.readouterr().out
    assert "complete:        True" in out
    assert "smooth:          True" in out


def test_div_check(p2_files, capsys):
    _, k_path, _ = p2_files
    assert main(["div", "check", str(k_path)]) == 0
    out = capsys.readouterr().out
    assert "nef:        False" in out
    assert "h0:         zero" in out


def test_coh_dims_cli(p2_files, capsys):
    _, k_path, h3_path = p2_files
    assert main(["coh", "dims", str(h3_path)]) == 0
    assert capsys.readouterr().out.strip() == "10 0 0"
    for field, expect in [("q", "0 0 1"), ("f2", "0 0 1"), ("f5", "0 0 1")]:
        assert main(["coh", "dims", str(k_path), "--field", field]) == 0
        assert capsys.readouterr().out.strip() == expect


def test_mmp_run_cli(p2_files, capsys):
    _, k_path, _ = p2_files
    assert main(["mmp", "run", str(k_path)]) == 0
    out = capsys.readouterr().out
    assert "fibration" in out and "end: mori_fibre_space" in out


def test_verify_mfs_cli(p2_files, capsys, tmp_path):
    save(tmp_path / "mh.json", {"fan": "p2.json", "coeffs": ["0", "0", "-1"]})
    assert main(["verify", "mfs", str(tmp_path / "mh.json")]) == 0


def test_verify_flip_cli(tmp_path, capsys):
    from toricvanish.corpus import curated_instances

    inst = dict(curated_instances())["flip2-relative"]
    save(tmp_path / "fan.json", fan_to_obj(inst.fan))
    save(tmp_path / "d.json",
         {"fan": "fan.json", "coeffs": [fraction_to_str(c) for c in inst.d_coeffs]})
    assert main(["verify", "flip", str(tmp_path / "d.json")]) == 0


def test_verify_kv_cli(tmp_path, capsys):
    from toricvanish.corpus import curated_instances
    from toricvanish.formats import instance_to_obj

    inst = dict(curated_instances())["p2-minus-h"]
    save(tmp_path / "inst.json", instance_to_obj(inst))
    assert main(["verify", "kv", str(tmp_path / "inst.json"),
                 "--field", "q", "--field", "f2"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["pass"] is True and obj["hypothesis_ok"] is True


def test_verify_mmp_cli_skips_cohomology_when_d_is_not_q_cartier(tmp_path, capsys):
    # a well-formed instance is a verdict, not an input error, for both verifiers
    from toricvanish.corpus import cube_face_fan
    from toricvanish.formats import Instance, instance_to_obj

    cube = cube_face_fan()
    d = ray_divisor(cube, cube.rays[0])
    zero = tuple(0 * x for x in d)
    save(tmp_path / "inst.json",
         instance_to_obj(Instance("cube-d1", cube, zero, d, 2, ())))
    outs = []
    for what in ("kv", "mmp"):
        assert main(["verify", what, str(tmp_path / "inst.json")]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    obj = json.loads(outs[0])
    assert obj["hypothesis_reason"] == "D is not Q-Cartier"
    assert obj["notes"] == ["cohomology skipped: D is not Q-Cartier"]


def test_verify_passes_a_klt_pair_whose_boundary_is_not_q_cartier(tmp_path, capsys):
    # klt asks only that K+B be Q-Cartier: on this one-cone fan K is not, B is
    # not, K+B is, and the small Q-factorialization keeps B's coefficients
    from toricvanish.fans import is_simplicial, make_fan
    from toricvanish.formats import Instance, instance_to_obj
    from toricvanish.verify import instance_entry

    fan = make_fan(3, [(-1, 0, 1), (0, -1, 2), (0, 1, 1), (1, 0, 1)], [(0, 1, 2, 3)])
    assert not is_simplicial(fan)
    half, zero = Fraction(1, 2), Fraction(0)
    inst = Instance("klt-b-not-q-cartier", fan, (half, zero, half, half),
                    (zero,) * 4, 2, ())
    save(tmp_path / "inst.json", instance_to_obj(inst))
    for what in ("kv", "mmp"):
        assert main(["verify", what, str(tmp_path / "inst.json")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["hypothesis_ok"] is True and obj["pass"] is True
    assert instance_entry(inst)["verdict"] == "pass"


def test_suite_cli_deterministic(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ["--quiet", "suite", "--seed", "42", "--rank", "2", "--count", "3",
            "--field", "q"]
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_suite_seed_42_report_is_golden(tmp_path):
    # byte-level guard on the default suite: any change to a verdict, a
    # certificate or the report format moves this digest
    report = tmp_path / "r.json"
    assert main(["--quiet", "suite", "--seed", "42", "--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == GOLDEN_SUITE_42


def test_suite_seed_42_report_is_golden_under_python_O(tmp_path):
    # python -O strips asserts: no cached or reported value may hang on one
    report = tmp_path / "r.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "toricvanish.cli", "--quiet",
                           "suite", "--seed", "42", "--report", str(report)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_SUITE_42


@pytest.mark.parametrize("seed", sorted(GOLDEN_SUITES))
def test_suite_report_is_golden_on_more_seeds(seed, tmp_path):
    report = tmp_path / "r.json"
    assert main(["--quiet", "suite", "--seed", str(seed), "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_SUITES[seed]


def test_verify_kv_and_mmp_json_is_golden(tmp_path, capsys):
    from toricvanish.corpus import curated_instances
    from toricvanish.formats import instance_to_obj

    for label, inst in curated_instances():
        path = tmp_path / f"{label}.json"
        save(path, instance_to_obj(inst))
        for what in ("kv", "mmp"):
            assert main(["verify", what, str(path)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[label, what]


@pytest.mark.parametrize("coeffs, expect", [
    (["0", "0", "0", "0"], "higher cohomology vanishes"),
    (["-2", "0", "0", "-1"], "nonvanishing: pattern (0, 3) in degree 1"),
])
def test_coh_dims_cli_on_a_relative_fan(coeffs, expect, tmp_path, capsys):
    from toricvanish.corpus import flip_threefold

    save(tmp_path / "fan.json", fan_to_obj(flip_threefold()))
    save(tmp_path / "d.json", {"fan": "fan.json", "coeffs": coeffs})
    for field in ("q", "f2"):
        assert main(["coh", "dims", str(tmp_path / "d.json"), "--field", field]) == 0
        assert capsys.readouterr().out.strip() == expect


def test_coh_dims_cli_rejects_a_fan_without_convex_support(tmp_path, capsys):
    from toricvanish.fans import make_fan

    three_quadrants = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                               [(0, 1), (1, 2), (2, 3)])
    save(tmp_path / "fan.json", fan_to_obj(three_quadrants))
    save(tmp_path / "d.json", {"fan": "fan.json", "coeffs": ["0", "0", "0", "0"]})
    assert main(["coh", "dims", str(tmp_path / "d.json")]) == 2
    assert "neither complete nor support-convex" in capsys.readouterr().err


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    from toricvanish.formats import Instance, instance_to_obj

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fan", "info", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["fan", "info", str(missing)]) == 2
    save(tmp_path / "badfan.json", {"rank": 2, "rays": [[2, 0]], "max_cones": [[0]]})
    assert main(["fan", "info", str(tmp_path / "badfan.json")]) == 2
    # a fan that is not an object, or that lacks a field
    for obj, message in (([1, 0], "expected an object"),
                         ({"rank": 2, "rays": [[1, 0]]}, "missing field 'max_cones'")):
        save(tmp_path / "badfan.json", obj)
        assert main(["fan", "info", str(tmp_path / "badfan.json")]) == 2
        assert message in capsys.readouterr().err
    # a cone repeating an index or listed twice, and a rational that only
    # int()'s leniency reads, are not canonical: malformed input
    p2 = fan_to_obj(p2_fan())
    for cones in ([[0, 0, 1], [0, 2], [1, 2]], [[0, 1], [0, 1], [0, 2], [1, 2]]):
        save(tmp_path / "fan.json", dict(p2, max_cones=cones))
        assert main(["fan", "info", str(tmp_path / "fan.json")]) == 2
    zero = (Fraction(0),) * 3
    inst = instance_to_obj(Instance("x", p2_fan(), zero, zero, 2, ()))
    for text in NON_CANONICAL_RATIONALS + ["1/-2"]:
        save(tmp_path / "inst.json", dict(inst, B={"coeffs": [text, "0", "0"]}))
        assert main(["verify", "kv", str(tmp_path / "inst.json")]) == 2


def test_exit_code_2_on_a_field_of_the_wrong_type(tmp_path, capsys):
    # a non-list where a list belongs is malformed input: one stderr line,
    # exit 2, no traceback
    from toricvanish.formats import Instance, instance_to_obj

    save(tmp_path / "fan.json", {"rank": 2, "rays": 5, "max_cones": []})
    assert main(["fan", "info", str(tmp_path / "fan.json")]) == 2
    p2 = p2_fan()
    inst = instance_to_obj(Instance("x", p2, (Fraction(0),) * 3,
                                    (Fraction(0),) * 3, 2, ()))
    for field, value in (("witness", 5), ("B", {"coeffs": 5})):
        save(tmp_path / "inst.json", dict(inst, **{field: value}))
        assert main(["verify", "kv", str(tmp_path / "inst.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(e.startswith("input error: ") for e in err)
    assert "rays: expected a list" in err[0]
    assert "witness: expected a list" in err[1]
    assert "B: expected a coeffs list" in err[2]


def test_suite_argument_errors_exit_2(capsys):
    assert main(["suite", "--count", "-1"]) == 2
    assert main(["suite", "--max-rays", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["input error: count must be nonnegative",
                   "input error: max_rays must be at least 3, the rays of the "
                   "smallest rank-2 seed fan"]


def test_suite_error_entry_exits_1(monkeypatch, capsys):
    from toricvanish import verify

    def failing_run(*args):
        raise RuntimeError("injected certificate failure")

    monkeypatch.setattr(verify, "run_mmp", failing_run)
    assert main(["suite", "--count", "0", "--field", "q"]) == 1
    out = capsys.readouterr().out.splitlines()
    # the three curated klt instances hold their hypothesis, so the raise is
    # an error entry; the control's failed hypothesis owes no MMP certificate
    assert sum(line.startswith("error ") for line in out) == 3
    assert "expected-fail      control-p2-canonical" in out
    assert out[-1] == "1/4 instances passed"


def _not_klt_instance():
    # b = 1 on the ray (0, 1, 0): not klt, and the flip's discrepancy check
    # of the MMP raises on it
    from toricvanish.fans import make_fan
    from toricvanish.formats import Instance

    fan = make_fan(3, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -2)],
                   [(0, 1, 2), (1, 2, 3)])
    b = tuple(Fraction(x) for x in (0, 1, 1, 0))
    d = tuple(Fraction(x) for x in (-2, 3, 1, -1))
    return Instance("not-klt", fan, b, d, 2, ())


def test_verify_mmp_notes_an_mmp_failure_when_the_hypothesis_fails(tmp_path, capsys):
    from toricvanish.formats import instance_to_obj

    path = str(tmp_path / "inst.json")
    save(path, instance_to_obj(_not_klt_instance()))
    for what in ("kv", "mmp"):
        assert main(["verify", what, path, "--field", "q"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["hypothesis_ok"] is False and obj["pass"] is True
        assert obj["hypothesis_reason"].startswith("pair is not klt")
    assert obj["mmp"] == []
    assert obj["notes"] == ["mmp: discrepancy -1 <= -1: pair is not klt"]


@pytest.mark.parametrize("error", [RecursionError, NotImplementedError])
def test_mmp_stage_engine_error_is_not_a_note(error, monkeypatch):
    # only a failed certificate becomes a note, and only when the hypothesis
    # failed; an engine error propagates either way
    from toricvanish import verify

    def failing_run(*args):
        raise error("injected")

    monkeypatch.setattr(verify, "run_mmp", failing_run)
    with pytest.raises(error):
        verify.verify_mmp(_not_klt_instance(), ("q",))


@pytest.mark.parametrize("error", [RecursionError, NotImplementedError])
@pytest.mark.parametrize("command", ["verify kv", "mmp run"])
def test_engine_error_exits_1_with_one_line(error, command, p2_files, tmp_path,
                                            capsys, monkeypatch):
    # RecursionError and NotImplementedError subclass RuntimeError, but they
    # are failures of the engine, not of a certificate
    from toricvanish import cli
    from toricvanish.corpus import curated_instances
    from toricvanish.formats import instance_to_obj

    def failing(*args):
        raise error("injected")

    if command == "verify kv":
        save(tmp_path / "inst.json",
             instance_to_obj(dict(curated_instances())["p2-minus-h"]))
        path = tmp_path / "inst.json"
        monkeypatch.setattr(cli, "verify_kv", failing)
    else:
        path = p2_files[1]
        monkeypatch.setattr(cli, "run_mmp", failing)
    assert main([*command.split(), str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"engine error: {error.__name__}: injected"]


def test_exit_code_2_on_invalid_fan(tmp_path, capsys):
    # schema-valid but geometrically invalid: the cones overlap in interiors
    save(tmp_path / "overlap.json",
         {"rank": 3, "rays": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, -2]],
          "max_cones": [[0, 1, 2], [0, 1, 3]]})
    save(tmp_path / "d.json", {"fan": "overlap.json", "coeffs": ["0", "1", "1", "0"]})
    assert main(["verify", "flip", str(tmp_path / "d.json")]) == 2
    assert main(["coh", "dims", str(tmp_path / "d.json")]) == 2
    err = capsys.readouterr().err
    assert "invalid fan" in err


def test_quiet_after_subcommand(tmp_path, capsys):
    assert main(["suite", "--seed", "5", "--rank", "2", "--count", "2",
                 "--field", "q", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_failed_certificate_check_exits_1_with_one_line(p112, tmp_path, capsys,
                                                        monkeypatch):
    # the first section of D's memoized Cartier data moved by one misses
    # equality on a ray of its cone: `div check` reports the failed check in
    # one stderr line and exits 1 (a certificate failed), not with a traceback
    from toricvanish import divisors
    from toricvanish.divisors import CartierData, cartier_data

    D = ("0", "1", "-1")
    save(tmp_path / "p112.json", fan_to_obj(p112))
    save(tmp_path / "d.json", {"fan": "p112.json", "coeffs": list(D)})
    cd = cartier_data(p112, tuple(Fraction(x) for x in D))
    first = (cd.numerators[0][0] + 1,) + cd.numerators[0][1:]
    bad = CartierData(cd.denominator, (first,) + cd.numerators[1:], cd.scaled)
    monkeypatch.setattr(divisors, "_cartier_data", lambda fan, coeffs: bad)
    assert main(["div", "check", str(tmp_path / "d.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("certificate error: section")
    assert "fails ray" in err[0]


@pytest.mark.parametrize("case", ["p2-on-p1xp1", "f1-on-p1"])
def test_mmp_run_rejects_a_boundary_on_another_fan(case, tmp_path, capsys):
    # a boundary file names its own fan, and one on another fan is malformed
    # input whether it has more coefficients than the divisor's fan has rays
    # (P1xP1 against P^2) or fewer (P^1 against F1, which has a divisorial step)
    from conftest import f1_fan, p1xp1_fan
    from toricvanish.corpus import projective_space

    fan, other, d = {
        "p2-on-p1xp1": (p2_fan(), p1xp1_fan(), ["-1", "-1", "-1"]),
        "f1-on-p1": (f1_fan(), projective_space(1), ["0", "0", "0", "1"]),
    }[case]
    save(tmp_path / "fan.json", fan_to_obj(fan))
    save(tmp_path / "other.json", fan_to_obj(other))
    save(tmp_path / "d.json", {"fan": "fan.json", "coeffs": d})
    save(tmp_path / "b.json", {"fan": "other.json", "coeffs": ["0"] * len(other.rays)})
    assert main(["mmp", "run", str(tmp_path / "d.json"),
                 "--boundary", str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: ")
    assert err[0].endswith("not on the divisor's fan")


@pytest.mark.parametrize("case, message", [
    ("p2", "fibration target is not a fan: planted defect"),
    ("f1", "contracted structure is not a fan: planted defect"),
])
def test_mmp_certificate_failure_exits_1_with_one_line(case, message, tmp_path,
                                                       capsys, monkeypatch):
    # a contracted fan that fails validation is a failed certificate (exit 1),
    # not malformed input (exit 2): -K on P^2 is negative on a fibration ray,
    # and the (1, 1) ray of F1, the last of its rays, on a divisorial one
    from conftest import f1_fan
    from toricvanish import mmp

    fan, d = {"p2": (p2_fan(), ["-1", "-1", "-1"]),
              "f1": (f1_fan(), ["0", "0", "0", "1"])}[case]
    save(tmp_path / "fan.json", fan_to_obj(fan))
    save(tmp_path / "d.json", {"fan": "fan.json", "coeffs": d})
    monkeypatch.setattr(mmp, "validate", lambda fan: ["planted defect"])
    assert main(["mmp", "run", str(tmp_path / "d.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"certificate error: {message}"]


def test_verify_mmp_failed_fibration_check_exits_1_with_one_line(tmp_path, capsys,
                                                                 monkeypatch):
    # the MMP of p2-minus-h ends in a fibration; when -D fails to be
    # relatively ample on the end model the MMP's own certificate failed
    # (exit 1), where the same check on a caller's contraction is an input error
    from toricvanish import verify
    from toricvanish.corpus import curated_instances
    from toricvanish.formats import instance_to_obj

    save(tmp_path / "inst.json", instance_to_obj(dict(curated_instances())["p2-minus-h"]))
    monkeypatch.setattr(verify, "intersect", lambda fan, coeffs, wall: 0)
    assert main(["verify", "mmp", str(tmp_path / "inst.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "certificate error: -D is not relatively ample on the fibration"]
