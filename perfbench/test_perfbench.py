"""Tests of the benchmark's own logic: span arithmetic, the tail rule, and
the trace wiring on one real instance."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402


def test_self_times_nested_four_deep():
    # is_complete -> support_is_convex -> subtract_cones -> feasible
    spans = [("fans.is_complete", 0.0, 10.0, -1),
             ("fans.support_is_convex", 1.0, 9.0, 0),
             ("regions.subtract_cones", 2.0, 8.0, 1),
             ("regions.feasible", 3.0, 4.0, 2),
             ("regions.feasible", 5.0, 7.0, 2)]
    assert layers.self_times(spans) == [2.0, 2.0, 3.0, 1.0, 2.0]
    totals = layers.summarize(spans, {}, {})
    assert totals["regions.self_s"] == 6.0
    assert totals["fans.self_s"] == 4.0
    assert totals["regions.feasible.calls"] == 2
    assert totals["regions.subtract_cones.self_s"] == 3.0


def test_self_times_recursion_is_not_double_counted():
    spans = [("regions.has_lattice_point", 0.0, 10.0, -1),
             ("regions.feasible", 0.5, 1.5, 0),
             ("regions.has_lattice_point", 2.0, 8.0, 0),
             ("regions.feasible", 3.0, 4.0, 2),
             ("verify.verify_kv", 20.0, 30.0, -1),
             ("verify.verify_kv", 21.0, 25.0, 4)]
    selfs = layers.self_times(spans)
    assert selfs[:4] == [3.0, 1.0, 5.0, 1.0]
    # self times partition the top-level spans exactly
    assert sum(selfs) == 20.0
    # inclusive time counts only the outermost span of a recursion
    assert layers.summarize(spans, {}, {})["verify.verify_kv.s"] == 10.0


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x

    traced_leaf = tracer.wrap("lp.in_cone", leaf)

    def outer(n):
        return traced_leaf(n) if n == 0 else traced_outer(n - 1)

    traced_outer = tracer.wrap("regions.has_lattice_point", outer)
    traced_outer(2)
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["regions.has_lattice_point"] * 3 + ["lp.in_cone"]
    assert [s[3] for s in spans] == [-1, 0, 1, 2]
    assert layers.self_times(spans) == [2.0, 2.0, 2.0, 1.0]


def test_tracer_finishes_spans_when_the_call_raises():
    tracer = layers.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("lp.in_cone", boom)()
    assert tracer.stack == [] and tracer.ends[0] >= tracer.starts[0]


@pytest.mark.parametrize("n", [21, 24, 89, 600, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    p = run.tail_percentile(n)
    beyond = n - math.ceil(p / 100 * n)
    assert beyond >= 10
    assert p == 99 or n - math.ceil((p + 1) / 100 * n) < 10


def test_tail_rule_examples():
    assert run.tail_percentile(89) == 88
    assert run.tail_percentile(10) == 50
    values = list(range(1, 90))
    assert run.percentile(values, 88) == 79
    assert run.percentile(values, 50) == 45


def test_fastest_units_takes_each_units_minimum():
    reps = [{"units": [3.0, 1.0, 2.0]}, {"units": [2.0, 2.0, 2.5]}]
    assert run.fastest_units(reps) == [2.0, 1.0, 2.0]
    assert run.fastest_units(reps + [{"units": [1.0]}]) is None
    assert run.fastest_units([{"units": []}]) is None


def test_fast_clock_scales_work_by_the_probe_and_skips_its_runs():
    # probe runs at 1.0-1.1 (0.1 s, the reference) and 2.0-2.2 (twice as slow)
    clock = run.fast_clock(0.0, [1.0, 1.1, 2.0, 2.2], ref=0.1)
    assert clock(-1.0) == 0.0
    assert math.isclose(clock(0.5), 0.5)
    assert clock(1.05) == clock(1.1)
    assert math.isclose(clock(1.1), 1.0)
    # between the runs the host ran at the mean of their speeds, 2/3
    assert math.isclose(clock(2.0), 1.6)
    assert math.isclose(clock(3.2), 2.1)
    assert run.fast_clock(1.0, [], ref=0.1)(3.0) == 2.0


def test_replay_order_keeps_runs_on_one_fan_together():
    fans = [0, 0, 1, 2, 2, 2, 0, 3]
    traffic = {"calls": [[f, [], []] for f in fans]}
    orders = [run.replay_order(traffic, seed) for seed in range(6)]
    assert run.replay_order(traffic, 3) == orders[3]
    assert len({tuple(o) for o in orders}) > 1
    for order in orders:
        assert sorted(order) == list(range(len(fans)))
        runs = [[order[0]]]
        for i in order[1:]:
            if i == runs[-1][-1] + 1 and fans[i] == fans[runs[-1][-1]]:
                runs[-1].append(i)
            else:
                runs.append([i])
        assert sorted(runs) == [[0, 1], [2], [3, 4, 5], [6], [7]]


def test_finalize_derives_ratios_and_zero_fills():
    totals = {"fans.cone_hrep_cache.hits": 3, "fans.cone_hrep_cache.misses": 1,
              "corpus.instances": 2, "corpus.gen_positivity_calls": 8}
    metrics = layers.finalize(totals, 1.25)
    assert metrics["fans.cone_hrep_cache.hit_ratio"] == 0.75
    assert metrics["cohomology.chamber_cache.hit_ratio"] == 0.0
    assert metrics["corpus.accept_ratio"] == 0.25
    assert metrics["mmp.flip.calls"] == 0
    assert metrics["trace.overhead_ratio"] == 1.25
    assert list(metrics) == layers.metric_names()


def _worker(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = {}
    for line in proc.stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag in ("TRACE", "RESULT"):
            out[tag] = json.loads(body)
    return out


def test_traced_counts_repeat_and_outputs_match(tmp_path):
    from toricvanish.corpus import curated_instances
    from toricvanish.formats import instance_to_obj

    inst = dict(curated_instances())["flip2-relative"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_obj(inst)))
    plain = _worker(["verify", str(path)], 1)
    runs = [_worker(["verify", str(path), "--trace", str(tmp_path / f"s{h}.jsonl")], h)
            for h in (1, 99)]
    counts = [{k: v for k, v in r["TRACE"].items()
               if not (k.endswith("_s") or k.endswith(".s"))} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["mmp.steps.flip"] == 1
    assert counts[0]["fans.support_is_convex.calls"] > 0
    assert all(r["RESULT"] == plain["RESULT"] for r in runs)
    spans = (tmp_path / "s1.jsonl").read_text().splitlines()
    assert len(spans) == counts[0]["trace.spans"]


def test_install_leaves_no_unwrapped_boundary_function():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import layers, toricvanish.cli, sys as s\n"
        "orig = {id(getattr(s.modules['toricvanish.' + m], f))"
        " for m, fs in layers.BOUNDARY.items() for f in fs}\n"
        "n = layers.Tracer().install()\n"
        "left = [(name, k) for name, mod in s.modules.items()"
        " if name.startswith('toricvanish') for k, v in vars(mod).items()"
        " if id(v) in orig]\n"
        "print(n, left)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(HERE),
                           str(HERE.parent / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    wrapped = sum(len(fs) for fs in layers.BOUNDARY.values())
    assert proc.stdout.split(" ", 1) == [str(wrapped), "[]\n"]


def test_reported_metrics_match_benchmark_json():
    assert [m["name"] for m in run.BENCH["per_layer"]] == layers.metric_names()
    gated = run.end_to_end([1.0], [2.0], [3.0])
    assert list(gated) == [m["name"] for m in run.BENCH["end_to_end"]]
