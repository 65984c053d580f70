"""The toricvanish benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload suite|corpus|verify --seed N \\
        --seconds S --trace 0|1

Every timed repetition runs in a fresh interpreter (`worker.py`), so the
package's in-process caches start cold in each one. The timed work is the
same reference work on every seed; the seed orders it and, on `suite`,
picks one more suite whose verdicts are checked untimed. With `--trace 0`
the run repeats the work for `--seconds` (twice at least) and reports the
end-to-end metrics with tracing off; `wall_s` sums, over the units of work,
each unit's fastest time across the repetitions. Times are counted at a
reference host speed, which each worker's speed probe measures while it
works (`fast_clock`): the host's speed swings by up to 1.9x within tens of
milliseconds. With `--trace 1` it makes
one untraced and one traced repetition and reports the per-layer metrics of
`layers.py`. Outputs are checked against the digests in `golden.json`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every
metric by name and unit, `fail_ratio` included. A fuller record goes to
`perfbench/out/results-<workload>-seed<N>-trace<T>.json`.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402

# suite and verify time the suite of this seed, as ROADMAP's reference does
REFERENCE_SEED = 42
# Times are reported at the host speed at which the probe kernel of
# worker.py takes this long: about its fastest time on the 2-vCPU Xeon host
# the benchmark was tuned on. The fastest time seen within one run moved by
# 15% from run to run, so a fixed reference is steadier than a measured one.
PROBE_REFERENCE_S = 120e-6
CHILD_TIMEOUT = 100.0
MIN_REPS = 2
VERIFY_COUNT = 10
OK_VERDICTS = ("pass", "expected-fail")

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCH["workloads"]}
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


# ---------------------------------------------------------------- statistics

def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank); 50 when there are too few samples for a tail."""
    if n <= 20:
        return 50
    return max(50, math.floor(100 * (n - 10) / n))


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def fast_clock(start, probe, ref=PROBE_REFERENCE_S):
    """F(t): the work a child had done by time t, in seconds at the host
    speed where the probe kernel takes `ref`. `probe` holds the start and
    end of each run of the worker's probe kernel, flat; each stretch of work
    between two runs is scaled by `ref` over the mean of their times. The
    probe's own time is left out."""
    ticks = list(zip(probe[::2], probe[1::2]))
    if not ticks:
        return lambda t: t - start
    starts, ends, cum, factors = [start], [], [0.0], []
    prev_end, prev_c = start, ticks[0][1] - ticks[0][0]
    for s, e in ticks:
        factors.append(2 * ref / (prev_c + e - s))
        cum.append(cum[-1] + (s - prev_end) * factors[-1])
        ends.append(s)
        starts.append(e)
        prev_end, prev_c = e, e - s
    factors.append(ref / prev_c)
    ends.append(math.inf)

    def clock(t):
        j = bisect.bisect_right(starts, t) - 1
        if j < 0:
            return 0.0
        return cum[j] + (min(t, ends[j]) - starts[j]) * factors[j]

    return clock


def normalize(reps):
    """Give each repetition its unit times and set-up times at the reference
    speed; returns the fastest probe kernel time of the run."""
    for r in reps:
        clocks = [fast_clock(c.start, c.probe()) for c in r["children"]]
        r["units"] = [clocks[i](b) - clocks[i](a) for i, a, b in r["spans"]]
        r["raw_wall"] = sum(b - a for _, a, b in r["spans"])
        r["setups"] = [clock(c.time_of("READY")) for clock, c in zip(clocks, r["children"])
                       if c.time_of("READY") is not None]
    probes = [c.probe() for r in reps for c in r["children"]]
    return min((e - s for p in probes for s, e in zip(p[::2], p[1::2])), default=None)


def fastest_units(reps):
    """Each unit's fastest time across repetitions of the same work, or
    None when the repetitions did not split into the same units."""
    counts = {len(r["units"]) for r in reps}
    if len(counts) != 1 or not reps[0]["units"]:
        return None
    return [min(times) for times in zip(*(r["units"] for r in reps))]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


# ------------------------------------------------------------------ children

class Child:
    def __init__(self, start, lines, code, rss_mb):
        self.start = start
        self.lines = lines  # [(arrival time, text)]
        self.code = code
        self.rss_mb = rss_mb

    def time_of(self, marker):
        return next((t for t, line in self.lines if line == marker), None)

    def payload(self, tag):
        prefix = tag + " "
        for _, line in self.lines:
            if line.startswith(prefix):
                return json.loads(line[len(prefix):])
        return None

    def wall(self):
        ready, done = self.time_of("READY"), self.time_of("DONE")
        return None if ready is None or done is None else done - ready

    def probe(self):
        return self.payload("PROBE") or []


def spawn(args, work):
    """Run worker.py with `args`; every stdout line is stamped on arrival."""
    err_path = work / "stderr.txt"
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            lines = [(time.perf_counter(), line.rstrip("\n")) for line in proc.stdout]
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(start, lines, proc.returncode, usage.ru_maxrss / 1024)
    if child.code != 0:
        sys.stderr.write(f"worker {' '.join(args)} exited {child.code}\n")
        sys.stderr.write(err_path.read_text(encoding="utf-8")[-2000:])
    return child


def trace_args(work, traced, name="spans"):
    return ["--trace", str(work / f"{name}.jsonl")] if traced else []


def rep_record(children, spans, attempted, failed, digests):
    """One repetition; `spans` holds (child index, start, end) of each unit."""
    return {"children": children, "spans": spans,
            "rss": max(c.rss_mb for c in children),
            "traces": [c.payload("TRACE") for c in children],
            "digest": digests, "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------- workloads

def suite_run(seed, work, traced=False):
    """One `toricvanish suite --seed <seed>` in a fresh interpreter. Its
    units run from the header line, which the CLI prints once generation is
    done, through each verdict line to DONE; generation is timed apart."""
    report = work / "report.json"
    report.unlink(missing_ok=True)
    child = spawn(["suite", str(seed), str(report)]
                  + trace_args(work, traced, f"spans-{seed}"), work)
    out = {"child": child, "spans": [], "gen": None, "digest": None,
           "attempted": 1, "failed": 1}
    words = [(t, line.split()) for t, line in child.lines]
    header = next((i for i, (_, w) in enumerate(words) if w == ["verdict", "label"]),
                  None)
    done = child.time_of("DONE")
    if child.code != 0 or header is None or done is None or not report.is_file():
        return out
    marks = [words[header][0]]
    for t, w in words[header + 1:]:
        if len(w) != 2:  # past the last "<verdict> <label>" line
            break
        marks.append(t)
    marks.append(done)
    out["spans"] = [(0, a, b) for a, b in zip(marks, marks[1:])]
    out["gen"] = marks[0] - child.time_of("READY")
    data = report.read_bytes()
    entries = json.loads(data)["instances"]
    out["digest"] = hashlib.sha256(data).hexdigest()
    out["attempted"] = len(entries)
    out["failed"] = sum(e["verdict"] not in OK_VERDICTS for e in entries)
    return out


def suite_rep(work, traced, golden):
    one = suite_run(REFERENCE_SEED, work, traced)
    failed = one["failed"]
    if one["digest"] != golden["report_sha256"]:
        failed = one["attempted"]
    rep = rep_record([one["child"]], one["spans"], one["attempted"], failed,
                     one["digest"])
    rep["gen"] = one["gen"]
    return rep


def capture_traffic(work, traced, golden):
    """The positivity calls of the seed-42 acceptance corpus, as the
    generator makes them, checked against the stored digests."""
    path = work / "traffic.json"
    child = spawn(["capture", str(path)] + trace_args(work, traced, "spans-capture"),
                  work)
    result = child.payload("RESULT")
    if child.code != 0 or result is None:
        return None, child
    traffic = json.loads(path.read_text(encoding="utf-8"))
    if (digest(result["instances"]) != golden["instances_sha256"]
            or digest(traffic) != golden["traffic_sha256"]):
        sys.stderr.write("corpus: generated traffic differs from golden.json\n")
        return None, child
    return traffic, child


def replay_order(traffic, seed):
    """Call indices with runs of calls on one fan kept together (the
    generator retries on a fan), the runs in an order drawn from the seed."""
    blocks = []
    for i, (fan, _, _) in enumerate(traffic["calls"]):
        if blocks and traffic["calls"][blocks[-1][0]][0] == fan:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    random.Random(f"perfbench:{seed}").shuffle(blocks)
    return [i for block in blocks for i in block]


def corpus_rep(work, traced, traffic, order, replay_path):
    child = spawn(["corpus", str(replay_path)] + trace_args(work, traced), work)
    result = child.payload("RESULT")
    calls = traffic["calls"]
    if child.code != 0 or result is None or child.wall() is None:
        return rep_record([child], [], len(calls), len(calls), None)
    verdicts = result["verdicts"]
    # each call must give the verdict it gave inside the generator
    failed = sum(v != calls[i][2] for i, v in zip(order, verdicts))
    failed += len(calls) - len(verdicts)
    return rep_record([child], [(0, a, b) for a, b in result["spans"]], len(calls),
                      failed, digest(verdicts))


def verify_inputs(work):
    """The instances `toricvanish suite` verifies for the reference seed:
    the curated ones, and ten generated at each of ranks 2 and 3."""
    from toricvanish.corpus import curated_instances, gen_corpus
    from toricvanish.formats import instance_to_obj

    instances = [inst for _, inst in curated_instances()]
    for rank in (2, 3):
        instances += gen_corpus(REFERENCE_SEED, rank, count=VERIFY_COUNT)[0]
    objs = [instance_to_obj(inst) for inst in instances]
    paths = []
    for i, obj in enumerate(objs):
        path = work / f"instance-{i:03d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(path)
    return paths, digest(objs)


def verify_pass(work, traced, golden, paths):
    children, spans, digests, failed = [], [], {}, 0
    for i, path in enumerate(paths):
        child = spawn(["verify", str(path)] + trace_args(work, traced, f"spans-{i:03d}"),
                      work)
        children.append(child)
        result = child.payload("RESULT")
        if child.code != 0 or result is None or child.wall() is None:
            failed += 1
            continue
        spans.append((i, child.time_of("READY"), child.time_of("DONE")))
        label = result["kv"]["label"]
        digests[label] = digest([result["kv"], result["mmp"]])
        failed += not (result["ok"] and golden["verdicts"].get(label) == digests[label])
    return rep_record(children, spans, len(paths), failed, digests)


# --------------------------------------------------------------- repetitions

def repeat(rep, seconds):
    """Repetitions while one more of average length fits in `seconds`."""
    reps = []
    start = time.perf_counter()
    while (len(reps) < MIN_REPS
           or (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds):
        reps.append(rep())
    return reps


# The gated end-to-end metrics are setup_s, wall_s and peak_rss_mb. On
# verify the verdict latency percentiles are printed and recorded too.
def end_to_end(setups, units, rss):
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(units),
        "peak_rss_mb": statistics.median(rss),
    }


def latency(units):
    """Median and tail of per-instance latencies (ms), with the sample count."""
    ms = [u * 1000 for u in units]
    p = tail_percentile(len(ms))
    return {"verdict_ms_p50": percentile(ms, 50),
            "verdict_ms_tail": percentile(ms, p),
            "tail_percentile": p, "samples": len(ms)}


def measure(workload, seed, seconds, trace, work, golden):
    """Returns (metrics, attempted, failed, details)."""
    details = {"reference_seed": REFERENCE_SEED}
    attempted = failed = 0
    extra_traces = []
    if workload == "suite":
        rep = lambda traced=False: suite_rep(work, traced, golden)  # noqa: E731
        if seed != REFERENCE_SEED:
            check = suite_run(seed, work)
            details["checked_suite"] = {"seed": seed, "digest": check["digest"]}
            attempted, failed = check["attempted"], check["failed"]
    elif workload == "corpus":
        traffic, child = capture_traffic(work, trace, golden)
        extra_traces.append(child.payload("TRACE"))
        details["gen_s"] = child.wall()
        if traffic is None:
            return None, 1, 1, details
        order = replay_order(traffic, seed)
        replay_path = work / "replay.json"
        replay_path.write_text(json.dumps({
            "fans": traffic["fans"],
            "calls": [traffic["calls"][i][:2] for i in order]}), encoding="utf-8")
        ranks = [traffic["fans"][fan]["rank"] for fan, _, _ in traffic["calls"]]
        details["calls_by_rank"] = {str(r): ranks.count(r) for r in sorted(set(ranks))}
        rep = lambda traced=False: corpus_rep(work, traced, traffic, order, replay_path)  # noqa: E731
    else:
        paths, inputs_digest = verify_inputs(work)
        details["inputs_sha256"] = inputs_digest
        if inputs_digest != golden["inputs_sha256"]:
            return None, len(paths), len(paths), details
        random.Random(f"perfbench:{seed}").shuffle(paths)
        rep = lambda traced=False: verify_pass(work, traced, golden, paths)  # noqa: E731

    reps = [rep(), rep(True)] if trace else repeat(rep, seconds)
    attempted += sum(r["attempted"] for r in reps)
    failed += sum(r["failed"] for r in reps)
    # repetitions run the same inputs: their outputs must repeat
    failed += sum(r["digest"] != reps[0]["digest"] for r in reps[1:])
    details["probe_fastest_s"] = normalize(reps)
    details["reps"] = [{k: v for k, v in r.items() if k not in ("traces", "children", "spans")}
                       for r in reps]
    units = fastest_units(reps[:1] if trace else reps)
    if units is None or any(not r["units"] for r in reps):
        return None, attempted, max(failed, 1), details

    if trace:
        plain, traced = reps
        totals = {}
        for payload in traced["traces"] + extra_traces:
            for key, value in (payload or {}).items():
                totals[key] = totals.get(key, 0) + value
        return (layers.finalize(totals, sum(traced["units"]) / sum(plain["units"])),
                attempted, failed, details)
    if workload == "verify":
        details["latency"] = latency(units)
    setups = [s for r in reps for s in r["setups"]]
    return (end_to_end(setups, units, [r["rss"] for r in reps]),
            attempted, failed, details)


# ---------------------------------------------------------------------- main

def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toricvanish" / "__init__.py").is_file():
        print(f"no toricvanish sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    golden = json.loads(GOLDEN.read_text())[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed, details = measure(
            args.workload, args.seed, args.seconds, args.trace, work, golden)
        spans = OUT / f"spans-{args.workload}"
        shutil.rmtree(spans, ignore_errors=True)
        if args.trace:
            spans.mkdir()
            for path in work.glob("*.jsonl"):
                path.rename(spans / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "layer_map": layers.LAYER_MAP, "details": details,
    }
    OUT.mkdir(exist_ok=True)
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{WHY[args.workload]}")
    if metrics is None:
        print(f"measurement failed ({failed}/{attempted} units)", file=sys.stderr)
        return 1
    typed = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    for key, value in typed.items():
        print(f"  {key:40s} {value['value']:.6g} {value['unit']}")
    if "latency" in details:
        lat = details["latency"]
        print(f"  {'verdict_ms_p50':40s} {lat['verdict_ms_p50']:.6g} ms")
        print(f"  {'verdict_ms_tail':40s} {lat['verdict_ms_tail']:.6g} ms "
              f"(p{lat['tail_percentile']} of {lat['samples']} samples)")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ({failed}/{attempted} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": typed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
