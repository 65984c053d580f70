"""Command-line interface.

Subcommands: fan info, div check, coh dims, mmp run, verify kv|mmp|mfs|flip,
suite. Exit codes: 0 success / all pass, 1 verdict, certificate or engine
failure, 2 input error. `coh dims` prints a model's `model_cohomology` table;
`verify kv|mmp` and `suite`, the deterministic pass over the generated
corpus, read the one per-instance pipeline in `verify`.
"""

import argparse
import sys

from .cohomology import model_cohomology
from .corpus import curated_instances, gen_corpus
from .divisors import (
    NotQCartier,
    cartier_data,
    coeffs_of,
    h0_dim,
    klt_check,
    positivity,
    q_cartier_index,
    semiample_witness,
)
from .fans import properties, validate
from .formats import (
    ParseError,
    canonical_json,
    fraction_to_str,
    load_divisor,
    load_fan,
    load_instance,
    save,
)
from .mmp import negative_contractions, run_mmp
from .mori import walls
from .verify import (
    DEFAULT_FIELDS,
    ENGINE_ERRORS,
    instance_entry,
    verify_flip_diagram_for,
    verify_kv,
    verify_mfs,
    verify_mmp,
)

OK_VERDICTS = ("pass", "expected-fail")


def _require_valid(fan):
    defects = validate(fan)
    if defects:
        raise ParseError("invalid fan: " + "; ".join(defects))


def _fan_info(args):
    fan = load_fan(args.fan)
    defects = validate(fan)
    if defects:
        print("invalid fan:")
        for d in defects:
            print(f"  - {d}")
        return 1
    p = properties(fan)
    print(f"rank:            {fan.rank}")
    print(f"rays:            {len(fan.rays)}")
    print(f"maximal cones:   {len(fan.max_cones)}")
    print(f"simplicial:      {p.simplicial}")
    print(f"smooth:          {p.smooth}")
    print(f"complete:        {p.complete}")
    print(f"support convex:  {p.support_convex}")
    print(f"index of K:      {p.q_gorenstein_index_of_K}")
    if p.simplicial:
        print(f"interior walls:  {len(walls(fan))}")
    return 0


def _div_check(args):
    fan, coeffs = load_divisor(args.divisor)
    _require_valid(fan)
    cd = cartier_data(fan, coeffs)
    if isinstance(cd, NotQCartier):
        print(f"q_cartier:  no (cone {fan.max_cones[cd.cone_index]})")
        return 0
    print(f"q_cartier:  yes (index {q_cartier_index(fan, coeffs)})")
    pos = positivity(fan, coeffs)
    print(f"nef:        {pos.nef}")
    print(f"ample:      {pos.ample}")
    print(f"big:        {pos.big}")
    if pos.nef:
        w = semiample_witness(fan, coeffs)
        print(f"semiample:  multiple {w.multiple}")
    print(f"h0:         {h0_dim(fan, coeffs)}")
    ok, reason = klt_check(fan, coeffs)
    print(f"klt pair:   {ok} ({reason})")
    return 0


def _coh_dims(args):
    fan, coeffs = load_divisor(args.divisor)
    _require_valid(fan)
    mode, payload = model_cohomology(fan, coeffs, (args.field,))
    value = payload[args.field]
    if mode == "complete":
        print(" ".join(str(d) for d in value))
    elif value[0]:
        print("higher cohomology vanishes")
    else:
        print(f"nonvanishing: pattern {value[1][0]} in degree {value[1][1]}")
    return 0


def _mmp_run(args):
    fan, coeffs = load_divisor(args.divisor)
    _require_valid(fan)
    if args.boundary:
        b_fan, b = load_divisor(args.boundary)
        if b_fan != fan:
            raise ParseError(f"{args.boundary}: not on the divisor's fan")
    else:
        b = coeffs_of(fan, {})
    run = run_mmp(fan, coeffs, b)
    for i, step in enumerate(run.steps):
        cert = step.certificate
        if step.kind == "divisorial":
            print(f"step {i}: divisorial, removes {cert.exceptional}, "
                  f"a = {fraction_to_str(cert.a)}")
        elif step.kind == "flip":
            print(f"step {i}: flip at {cert.exceptional}, "
                  f"a = {fraction_to_str(cert.a)}, b = {fraction_to_str(cert.b)}, "
                  f"c = {fraction_to_str(cert.c)}, case {cert.case}")
        else:
            print(f"step {i}: fibration to rank {step.contraction.target.rank}")
    print(f"end: {run.end} after {len(run.steps)} step(s), triangulation=pulling")
    return 0


def _fields(args):
    if args.field:
        return tuple(args.field)
    return DEFAULT_FIELDS


def _verify(args):
    if args.what in ("kv", "mmp"):
        inst = load_instance(args.path)
        _require_valid(inst.fan)
        verifier = verify_kv if args.what == "kv" else verify_mmp
        verdict = verifier(inst, _fields(args))
    elif args.what == "mfs":
        fan, coeffs = load_divisor(args.path)
        _require_valid(fan)
        chosen = next((r for r in negative_contractions(fan, coeffs)
                       if r.kind == "fibration"), None)
        if chosen is None:
            raise ParseError("no D-negative fibration ray")
        verdict = verify_mfs(fan, coeffs, chosen, _fields(args))
    else:
        fan, coeffs = load_divisor(args.path)
        _require_valid(fan)
        verdict = verify_flip_diagram_for(fan, coeffs)
    obj = verdict.to_obj()
    if not args.quiet:
        print(canonical_json(obj), end="")
    return 0 if verdict.passed else 1


def suite(seed=42, ranks=(2, 3), count=10, max_rays=12, fields=DEFAULT_FIELDS,
          quiet=False):
    """Generate the corpus, run every verifier, and assemble the report.

    Returns (report_obj, exit_code): 0 when everything passes (controls must
    fail exactly as predicted), 1 otherwise, as when an instance's pipeline
    raised and its entry reads "error".
    """
    instances = [inst for _, inst in curated_instances()]
    skipped = []
    for rank in ranks:
        made, missed = gen_corpus(seed, rank, max_rays=max_rays, count=count)
        instances += made
        skipped += missed
    if not quiet:
        print(f"{'verdict':18s} label")
    entries = []
    for inst in instances:
        entries.append(instance_entry(inst, fields))
        if not quiet:
            print(f"{entries[-1]['verdict']:18s} {inst.label}")
    report = {"instances": sorted(entries, key=lambda e: e["label"])}
    if skipped:
        report["skipped"] = sorted(skipped)
    return report, int(any(e["verdict"] not in OK_VERDICTS for e in entries))


def _suite(args):
    ranks = (args.rank,) if args.rank else (2, 3)
    report, code = suite(args.seed, ranks, args.count, args.max_rays, _fields(args),
                         args.quiet)
    if args.report:
        save(args.report, report)
    if not args.quiet:
        total = len(report["instances"])
        bad = [e for e in report["instances"] if e["verdict"] not in OK_VERDICTS]
        print(f"{total - len(bad)}/{total} instances passed")
    return code


def build_parser():
    parser = argparse.ArgumentParser(prog="toricvanish")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    fan_p = sub.add_parser("fan")
    fan_sub = fan_p.add_subparsers(dest="sub", required=True)
    info = fan_sub.add_parser("info")
    info.add_argument("fan")
    info.set_defaults(func=_fan_info)

    div_p = sub.add_parser("div")
    div_sub = div_p.add_subparsers(dest="sub", required=True)
    check = div_sub.add_parser("check")
    check.add_argument("divisor")
    check.set_defaults(func=_div_check)

    coh_p = sub.add_parser("coh")
    coh_sub = coh_p.add_subparsers(dest="sub", required=True)
    dims = coh_sub.add_parser("dims")
    dims.add_argument("divisor")
    dims.add_argument("--field", default="q",
                      choices=DEFAULT_FIELDS)
    dims.set_defaults(func=_coh_dims)

    mmp_p = sub.add_parser("mmp")
    mmp_sub = mmp_p.add_subparsers(dest="sub", required=True)
    runp = mmp_sub.add_parser("run")
    runp.add_argument("divisor")
    runp.add_argument("--boundary")
    runp.set_defaults(func=_mmp_run)

    ver = sub.add_parser("verify")
    ver.add_argument("what", choices=["kv", "mmp", "mfs", "flip"])
    ver.add_argument("path")
    ver.add_argument("--field", action="append",
                     choices=DEFAULT_FIELDS)
    ver.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    ver.set_defaults(func=_verify)

    sui = sub.add_parser("suite")
    sui.add_argument("--seed", type=int, default=42)
    sui.add_argument("--rank", type=int, choices=[2, 3])
    sui.add_argument("--count", type=int, default=10)
    sui.add_argument("--max-rays", type=int, default=12)
    sui.add_argument("--report")
    sui.add_argument("--field", action="append",
                     choices=DEFAULT_FIELDS)
    sui.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sui.set_defaults(func=_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ENGINE_ERRORS as exc:
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
