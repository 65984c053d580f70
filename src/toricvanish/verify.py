"""Verification pipelines tying fans, divisors, the MMP and cohomology to the
vanishing statements.

A verdict records the re-checked hypothesis, per-field vanishing flags,
per-model dimension tables (`cohomology.model_cohomology`) and the MMP step
certificates. Every instance goes through one generator, `_verdicts`, which
yields the KV verdict (first model's table) before it runs the MMP and yields
the MMP verdict (every model's table); `verify_kv`, `verify_mmp`,
`verify_instance` and, through `instance_entry`, the suite of `cli` all read
it; the suite records an instance whose pipeline raises as an "error" entry
and goes on. Negative controls are labeled and must fail in exactly the
predicted way.
"""

import random
from fractions import Fraction

from .cohomology import model_cohomology
from .divisors import (
    ZERO,
    NotQCartier,
    add,
    canonical,
    cartier_data,
    coeffs_of,
    h0_dim,
    klt_check,
    positivity,
    principal,
    pullback,
    scale,
    sub,
)
from .fans import is_simplicial, q_factorialize
from .formats import fraction_to_str
from .linalg import dot
from .mmp import flip, flip_diagram, negative_contractions, run_mmp
from .mori import intersect, walls_within
from .record import Record

DEFAULT_FIELDS = ("q", "f2", "f3", "f5", "f7")

# failures of the engine itself, not of an input or a certificate: reported
# with their type, and never turned into a note
ENGINE_ERRORS = (RecursionError, NotImplementedError)


class Verdict(Record):
    __slots__ = ("label", "hypothesis_ok", "hypothesis_reason", "vanishing", "dims",
                 "certificates", "passed", "notes")
    _defaults = ((),)

    def to_obj(self):
        return {
            "label": self.label,
            "hypothesis_ok": self.hypothesis_ok,
            "hypothesis_reason": self.hypothesis_reason,
            "vanishing": {k: bool(v) for k, v in sorted(self.vanishing.items())},
            "dims": {k: v for k, v in sorted(self.dims.items())},
            "mmp": list(self.certificates),
            "pass": bool(self.passed),
            "notes": list(self.notes),
        }


def check_hypothesis(inst):
    fan, b, d = inst.fan, inst.b_coeffs, inst.d_coeffs
    if any(x.denominator != 1 for x in d):
        return False, "D is not a Z-divisor"
    if isinstance(cartier_data(fan, d), NotQCartier):
        return False, "D is not Q-Cartier"
    ok, reason = klt_check(fan, b)
    if not ok:
        return False, f"pair is not klt: {reason}"
    rest = sub(sub(d, canonical(fan)), b)
    if inst.mode == 2:
        # D and K+B are Q-Cartier and the per-cone systems are linear, so
        # D-(K+B) is Q-Cartier too
        pos = positivity(fan, rest)
        if not pos.nef:
            return False, "D-(K+B) is not nef"
        if not pos.big:
            return False, "D-(K+B) is not big"
        return True, "ok"
    principal_part = coeffs_of(fan, {})
    for q, m in inst.witness:
        principal_part = add(principal_part, scale(q, principal(fan, m)))
    if rest != principal_part:
        return False, "witness does not realize D - K - B as a principal divisor"
    if not positivity(fan, b).big:
        return False, "B is not big"
    return True, "ok"


def _q_factorial_model(inst):
    """Small Q-factorialization, B and D on it, and its note. The map is
    small: it has the same rays in the same order and no exceptional divisor,
    so B and D keep their coefficients and nothing is pulled back, which B
    would refuse when it is not Q-Cartier (klt asks that only of K+B)."""
    if is_simplicial(inst.fan):
        return inst.fan, inst.b_coeffs, inst.d_coeffs, []
    qf, _ = q_factorialize(inst.fan)
    note = "computed on the small Q-factorialization (pulling)"
    return qf, inst.b_coeffs, inst.d_coeffs, [note]


def _vanishes(mode, value):
    """Whether degree->=1 cohomology vanishes, from one field's table entry."""
    return all(x == 0 for x in value[1:]) if mode == "complete" else value[0]


def _kv_verdict(inst, hyp, fields, table, notes):
    """The vanishing verdict read off the first model's table."""
    mode, payload = table
    vanishing = {f: _vanishes(mode, payload[f]) for f in fields}
    dims = {f: [payload[f]] for f in fields} if mode == "complete" else {}
    if mode == "relative":
        notes += [f"{f}: witness chamber {payload[f][1][0]} in degree "
                  f"{payload[f][1][1]}" for f in fields if not vanishing[f]]
    passed = (not hyp[0]) or (bool(vanishing) and all(vanishing.values()))
    return Verdict(inst.label, *hyp, vanishing, dims, (), passed, tuple(notes))


def _certificate_obj(step):
    cert = step.certificate
    if cert is None:
        return {"kind": step.kind}
    obj = {"kind": cert.kind, "a": fraction_to_str(cert.a)}
    if cert.kind == "flip":
        obj.update({
            "b": fraction_to_str(cert.b),
            "c": fraction_to_str(cert.c),
            "case": cert.case,
            "m_shift": cert.m_shift,
            "exceptional": list(cert.exceptional),
        })
    else:
        obj["exceptional"] = list(cert.exceptional)
    return obj


def _verdicts(inst, fields):
    """The one pass over an instance: the hypothesis and the not-Q-Cartier gate
    once, then the KV verdict off the first model's table, then the MMP verdict
    off every model's table, each table built once. A D that is not Q-Cartier
    yields only the skipped verdict; when the hypothesis failed, a ValueError
    or RuntimeError of the MMP stage is a note on a vacuous MMP verdict."""
    hyp = check_hypothesis(inst)
    if isinstance(cartier_data(inst.fan, inst.d_coeffs), NotQCartier):
        yield Verdict(inst.label, *hyp, {}, {}, (), not hyp[0],
                      ("cohomology skipped: D is not Q-Cartier",))
        return
    fan, b, d, notes = _q_factorial_model(inst)
    first = model_cohomology(fan, d, fields)
    yield _kv_verdict(inst, hyp, fields, first, list(notes))
    try:
        run = run_mmp(fan, d, b)
        tables = [first] + [model_cohomology(model, div, fields)
                            for model, div in zip(run.models[1:], run.divisors[1:])]
    except (ValueError, RuntimeError) as exc:
        if hyp[0] or isinstance(exc, ENGINE_ERRORS):
            raise
        yield Verdict(inst.label, *hyp, {}, {}, (), True, (*notes, f"mmp: {exc}"))
        return
    changes = []
    for f in fields:
        for i, ((mode, payload), (mode_next, payload_next)) in enumerate(
                zip(tables, tables[1:])):
            if mode == mode_next == "complete" and payload[f] != payload_next[f]:
                changes.append(f"{f}: dims changed at step {i}")
            elif _vanishes(mode, payload[f]) != _vanishes(mode_next, payload_next[f]):
                changes.append(f"{f}: vanishing verdict changed at step {i}")
    notes += changes
    end_mode, end_payload = tables[-1]
    vanishing = {f: _vanishes(end_mode, end_payload[f]) for f in fields}
    mfs_ok = True
    if run.end == "mori_fibre_space":
        _require_fibration(run.models[-1], run.divisors[-1], run.end_data, RuntimeError)
        mfs = _mfs_verdict(run.models[-1], run.divisors[-1], tables[-1])
        mfs_ok = mfs.passed
        notes.extend(f"mfs: {n}" for n in mfs.notes)
    passed = (not hyp[0]) or (not changes and all(vanishing.values()) and mfs_ok)
    certs = tuple(_certificate_obj(s) for s in run.steps)
    complete = all(mode == "complete" for mode, _ in tables)
    dims = {f: [payload[f] for _, payload in tables] if complete else []
            for f in fields}
    yield Verdict(inst.label, *hyp, vanishing, dims, certs, passed, tuple(notes))


def verify_instance(inst, fields=DEFAULT_FIELDS):
    """(kv, mmp): both verdicts of one pass, or (skipped, None) when D is not
    Q-Cartier."""
    verdicts = _verdicts(inst, fields)
    return next(verdicts), next(verdicts, None)


def instance_entry(inst, fields=DEFAULT_FIELDS):
    """The suite's report entry of one instance: `report_entry` of both
    verdicts, or, when its KV or MMP stage raises ValueError or RuntimeError,
    an entry with verdict "error", that stage and the message, which an
    engine error prefixes with its type."""
    verdicts = _verdicts(inst, fields)
    stage = "kv"
    try:
        kv = next(verdicts)
        stage = "mmp"
        mmp = next(verdicts, None)
    except (ValueError, RuntimeError) as exc:
        error = f"{type(exc).__name__}: {exc}" if isinstance(exc, ENGINE_ERRORS) else str(exc)
        return {"label": inst.label, "verdict": "error", "stage": stage, "error": error}
    return report_entry(kv, mmp)


def verify_kv(inst, fields=DEFAULT_FIELDS):
    """Re-check the hypothesis and the vanishing conclusion on one instance;
    the MMP does not run."""
    return next(_verdicts(inst, fields))


def verify_mmp(inst, fields=DEFAULT_FIELDS):
    """Run the divisor-directed program (which raises on a certificate out of
    range) and check step invariance of the full dimension vectors and the
    end-model vanishing; the skipped verdict when D is not Q-Cartier."""
    kv, mmp = verify_instance(inst, fields)
    return mmp or kv


def _require_fibration(fan, d_coeffs, contraction, error):
    """Raise `error` unless -D is relatively ample on the fibration."""
    if contraction.kind != "fibration":
        raise error("contraction is not a fibration")
    for w in walls_within(fan, contraction.merged_groups):
        if intersect(fan, d_coeffs, w) >= 0:
            raise error("-D is not relatively ample on the fibration")


def _mfs_verdict(fan, d_coeffs, table):
    """No sections, and on a complete total space no cohomology at all."""
    mode, payload = table
    sections = h0_dim(fan, d_coeffs)
    ok = sections == ZERO
    notes = () if ok else (f"h0 = {sections} (expected zero)",)
    complete = mode == "complete"
    vanishing = {f: all(x == 0 for x in v) if complete else v[0]
                 for f, v in payload.items()}
    dims = {f: [v] for f, v in payload.items()} if complete else {}
    passed = ok and all(vanishing.values())
    return Verdict("mfs", True, "ok", vanishing, dims, (), passed, notes)


def verify_mfs(fan, d_coeffs, contraction, fields=DEFAULT_FIELDS):
    """At a Mori fibre space with -D relatively ample, sections vanish; on a
    complete total space every cohomology degree vanishes, h^0 included."""
    _require_fibration(fan, d_coeffs, contraction, ValueError)
    return _mfs_verdict(fan, d_coeffs, model_cohomology(fan, d_coeffs, fields))


def verify_flip_diagram_for(fan, d_coeffs):
    """Build the flip diagram of the D-negative flipping ray and verify the
    pullback equation exactly on all coordinate divisors and five random
    rational combinations."""
    res = next((r for r in negative_contractions(fan, d_coeffs)
                if r.kind == "flipping"), None)
    if res is None:
        raise ValueError("no D-negative flipping ray")
    flipped = flip(fan, res, d_coeffs)
    dia = flip_diagram(fan, flipped, res)
    notes = []
    ok = True
    if set(dia.theta.rays) != set(fan.rays) | {dia.e_ray}:
        ok = False
        notes.append("exceptional ray is not the unique new ray")
    if not is_simplicial(dia.theta):
        ok = False
        notes.append("resolution is not simplicial")
    e_idx = dia.theta.ray_index(dia.e_ray)
    rng = random.Random("flipdiag:0")
    probes = [coeffs_of(fan, {ray: 1}) for ray in fan.rays]
    for _ in range(5):
        probes.append(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in fan.rays))
    for f_coeffs in probes:
        lhs = pullback(dia.psi, f_coeffs)
        rhs = pullback(dia.psi_prime, coeffs_of(flipped, dict(zip(fan.rays, f_coeffs))))
        kappa = dot(dia.gamma, f_coeffs)
        expect = tuple(r - (kappa if j == e_idx else 0) for j, r in enumerate(rhs))
        if lhs != expect:
            ok = False
            notes.append(f"pullback equation fails for {f_coeffs}")
            break
    c = -dot(dia.gamma, d_coeffs)
    if not c > 0:
        ok = False
        notes.append(f"flip coefficient {c} is not positive")
    return Verdict("flip-diagram", True, "ok", {}, {}, (), ok, tuple(notes))


EXPECTED_FAIL = {"control-p2-canonical"}


def _control_behaves(label, verdict):
    if label == "control-p2-canonical":
        dims_q = verdict.dims.get("q")
        return (not verdict.hypothesis_ok) and dims_q and dims_q[0] == [0, 0, 1]
    return False


def report_entry(kv, mmp):
    """The suite's report entry: the KV verdict with the MMP verdict's
    certificates, pass flag, dimension tables and further notes merged in,
    and the entry's verdict; a control must fail exactly as predicted."""
    entry = kv.to_obj()
    if mmp is not None:
        entry["mmp"] = list(mmp.certificates)
        entry["mmp_pass"] = bool(mmp.passed)
        if any(mmp.dims.values()):
            entry["dims"] = {k: v for k, v in sorted(mmp.dims.items())}
        entry["notes"] += [n for n in mmp.notes if n not in entry["notes"]]
        entry["pass"] = bool(kv.passed and mmp.passed)
    if kv.label in EXPECTED_FAIL:
        behaved = _control_behaves(kv.label, kv)
        entry["verdict"] = "expected-fail" if behaved else "control-misbehaved"
    else:
        entry["verdict"] = "pass" if entry["pass"] else "fail"
    return entry

