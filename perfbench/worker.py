"""One fresh interpreter of the benchmark: import, load, print READY, work.

    python3 perfbench/worker.py suite SEED REPORT [--trace SPANS]
    python3 perfbench/worker.py capture TRAFFIC [--trace SPANS]
    python3 perfbench/worker.py corpus REPLAY [--trace SPANS]
    python3 perfbench/worker.py verify INSTANCE [--trace SPANS]

READY is printed once `toricvanish` is imported and the inputs are loaded;
the parent times set-up up to that line and the work from READY to DONE.
`suite` runs the CLI's `suite` command, whose per-instance verdict lines
come before DONE. `capture` generates the seed-42 acceptance corpus and
writes every `positivity` call the generator makes to TRAFFIC; `corpus`
replays such calls. The last lines are `PROBE <json>` (the speed
probe's samples), `TRACE <json>` when tracing, and `RESULT <json>`.
"""

import gc
import json
import os
import signal
import sys
import time
from fractions import Fraction

# The speed probe: every PROBE_PERIOD seconds a SIGALRM handler times a
# fixed pure-Python kernel, so the parent can tell how fast the host ran at
# each moment of the work. It starts before anything is imported.
PROBE_PERIOD = 0.005
probe = []  # start and end time of each kernel run, flat


def _probe_kernel():
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return acc


def _probe(signum, frame):
    enabled = gc.isenabled()
    gc.disable()  # a collection here would belong to the program's time
    start = time.perf_counter()
    _probe_kernel()
    probe.extend((start, time.perf_counter()))
    if enabled:
        gc.enable()


signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# the acceptance corpus: (rank, count) of each gen_corpus call, at seed 42
ACCEPTANCE = ((2, 45), (3, 40))
ACCEPTANCE_SEED = 42


def _load_replay(path):
    from toricvanish.formats import fan_from_obj, fraction_from_str, load_json

    data = load_json(path)
    fans = [fan_from_obj(obj) for obj in data["fans"]]
    return [(fans[i], tuple(fraction_from_str(c) for c in coeffs))
            for i, coeffs in data["calls"]]


def _load(workload, arg):
    if workload == "suite":
        import toricvanish.cli  # noqa: F401  (imports every layer)
        return None
    if workload == "capture":
        import toricvanish.corpus  # noqa: F401
        return None
    if workload == "corpus":
        import toricvanish.divisors  # noqa: F401
        return _load_replay(arg)
    if workload == "verify":
        import toricvanish.verify  # noqa: F401
        from toricvanish.formats import load_instance
        return load_instance(arg)
    raise SystemExit(f"unknown workload {workload!r}")


def _run_suite(seed, report):
    from toricvanish import cli

    code = cli.main(["suite", "--seed", seed, "--report", report])
    return code, {"code": code}


def _run_capture(path):
    """Generate the acceptance corpus, recording each positivity call."""
    from toricvanish import corpus
    from toricvanish.formats import fan_to_obj, fraction_to_str, instance_to_obj

    positivity = corpus.positivity
    seen = {}  # id(fan) -> (index, fan); holding the fan keeps its id unique
    fans, calls = [], []

    def recording(fan, coeffs, *args, **kwargs):
        pos = positivity(fan, coeffs, *args, **kwargs)
        if id(fan) not in seen:
            seen[id(fan)] = (len(fans), fan)
            fans.append(fan_to_obj(fan))
        calls.append([seen[id(fan)][0], [fraction_to_str(c) for c in coeffs],
                      [pos.nef, pos.ample, pos.big]])
        return pos

    corpus.positivity = recording
    instances, skipped = [], 0
    try:
        for rank, count in ACCEPTANCE:
            made, missed = corpus.gen_corpus(ACCEPTANCE_SEED, rank, count=count)
            instances += [instance_to_obj(inst) for inst in made]
            skipped += len(missed)
    finally:
        corpus.positivity = positivity
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fans": fans, "calls": calls}, fh)
    return 0, {"instances": instances, "skipped": skipped}


def _run_corpus(calls):
    from toricvanish import divisors

    spans, verdicts = [], []
    for fan, coeffs in calls:
        t0 = time.perf_counter()
        pos = divisors.positivity(fan, coeffs)
        spans.append([t0, time.perf_counter()])
        verdicts.append([pos.nef, pos.ample, pos.big])
    return 0, {"spans": spans, "verdicts": verdicts}


def _run_verify(inst):
    from toricvanish import fans, verify

    defects = fans.validate(inst.fan)
    kv = verify.verify_kv(inst)
    mmp = verify.verify_mmp(inst)
    # a control must fail exactly as the suite predicts
    ok = (not defects and kv.passed and mmp.passed
          and (inst.label not in verify.EXPECTED_FAIL
               or bool(verify._control_behaves(inst.label, kv))))
    return 0, {"ok": ok, "kv": kv.to_obj(), "mmp": mmp.to_obj()}


def main(argv):
    mode, rest = argv[0], argv[1:]
    spans_path = None
    if "--trace" in rest:
        i = rest.index("--trace")
        spans_path = rest[i + 1]
        rest = rest[:i] + rest[i + 2:]
    loaded = _load(mode, rest[0])
    tracer = None
    if spans_path:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    print("READY")
    if mode == "suite":
        code, result = _run_suite(rest[0], rest[1])
    elif mode == "capture":
        code, result = _run_capture(rest[0])
    elif mode == "corpus":
        code, result = _run_corpus(loaded)
    else:
        code, result = _run_verify(loaded)
    print("DONE")
    signal.setitimer(signal.ITIMER_REAL, 0)
    print("PROBE " + json.dumps(probe))
    if tracer is not None:
        from layers import cache_stats, summarize

        tracer.dump(spans_path)
        print("TRACE " + json.dumps(summarize(tracer.spans(), tracer.counters,
                                              cache_stats())))
    print("RESULT " + json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
