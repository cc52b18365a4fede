"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest perfbench/tests

Checks that every metric declared in BENCHMARK.json is emitted with its unit,
that traced and untraced runs give identical simulated statistics and output
digests, that the tracer restores every binding it wraps, and that the
harness refuses to run without the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
NAMED = {
    "paper_sweep": {"steps_per_s": "1/s", "compare_s_p50": "s", "dpp_avg_q": "frames",
                    "dpp_avg_accuracy": "fraction"},
    "flow_files": {"frame_ms_p50": "ms", "frame_ms_p90": "ms"},
    "reinforce_train": {"steps_per_s": "1/s", "reinforce_margin": "reward"},
}


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_bench(root, workload, trace, out):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--out", str(out),
           "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)


def result(workload, trace, out):
    done = run_bench(ROOT, workload, trace, out)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(out, f"{workload}-seed{SEED}-trace{trace}.json")) as f:
        return done.stdout, line, json.load(f)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_and_traced_equivalence(workload, tmp_path, declared):
    end_to_end, per_layer = declared
    _, plain, plain_full = result(workload, 0, tmp_path)
    report, traced, traced_full = result(workload, 1, tmp_path)

    for line in (plain, traced):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    # tiny REINFORCE training is too short to learn reliably, so only a
    # learning shortfall may fail; every other check must pass at any size
    ops = plain_full["ops"] + traced_full["ops"]
    assert all(o["ok"] or o["detail"].startswith("trained reward") for o in ops)
    if workload != "reinforce_train":
        assert plain["correct"] and traced["correct"]
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == end_to_end
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == per_layer

    named = {k: m["unit"] for k, m in plain_full["metrics"].items()}
    expected = dict(NAMED[workload], setup_s="s", op_time_vs_ref="ratio", fail_share="share",
                    peak_rss_mb="MB")
    assert named == expected

    assert plain_full["stats"] == traced_full["stats"]
    assert plain_full["digests"] == traced_full["digests"]
    assert plain_full["digests"]

    layers = traced_full["per_layer"]
    if workload != "flow_files":
        # counters are per traced op, whatever the number of ops in the run
        wl = WORKLOADS[workload](SEED, tiny=True)
        assert layers["sim.step.calls"] == wl.steps_per_op
    if workload == "paper_sweep":
        assert layers["sim.generate_frame.per_unique_frame"] > 1.0
        assert layers["flowmap.process.per_unique_map"] > 1.0
        assert layers["sim.emulate_detector.used_ratio"] == 0.5
    elif workload == "reinforce_train":
        assert layers["sim.generate_frame.per_unique_frame"] == 1.0
        assert layers["flowmap.process.per_unique_map"] == 1.0
    else:
        assert layers["flowmap.process.per_unique_map"] == 1.0
        assert layers["fileio.mb_read"] > 0.0
    assert "accounted" in report


def test_tracer_wraps_every_binding_and_restores_it():
    import flowdpp.cli  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n.startswith("flowdpp")]
    before = [(m, dict(vars(m))) for m in modules]
    from flowdpp import detection, policies, sim

    nms = detection.nms
    tracer = Tracer()
    with tracer.installed():
        assert sim.nms is detection.nms is not nms
        assert policies.DppPolicy.__dict__["decide"].__wrapped__ is not None
    for module, namespace in before:
        assert all(vars(module)[k] is v for k, v in namespace.items())
    assert "__wrapped__" not in vars(policies.DppPolicy.__dict__["decide"])
    assert len(tracer.names) >= sum(len(v) for v in TARGETS.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(str(tmp_path), "paper_sweep", 0, tmp_path / "out")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
