#!/usr/bin/env python3
"""flowdpp benchmark harness.

Runs one workload as a closed loop (one op at a time) for --seconds seconds.
This process makes the inputs and checks every op's output; the ops run in
one worker process (perfbench/worker.py) that runs only the program.  Prints
a report and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics (no instrumentation
installed), and a second worker runs each op at the same time on the
reference program (reference/, the program as of commit 64e6806) for the
CPU-time ratio; with --trace 1 every op runs twice, untraced and traced, and
the metrics are the per-layer span counters per traced op.  Full results
(workload-specific metrics, output digests, provenance, layer table) go to
.bench_out/ at the repository root.  See perfbench/README.md.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
# The program's sources at commit 64e6806, as `git archive --format=zip
# 64e6806:src flowdpp` writes them; the reference worker imports them from
# the zip.
REFERENCE = os.path.join(HERE, "reference", "flowdpp-64e6806.zip")

# The harness and every process it starts run on one CPU, the lowest this
# process may use: the program and the reference program share it time slice
# by time slice, so their CPU-time ratio cancels the host's speed swings.
# BLAS and OpenMP pools are capped to match.  The environment below is set
# before numpy is imported and inherited by the worker and set-up processes.
NPROC = len(os.sched_getaffinity(0))
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Fixed allocator and huge-page behaviour for the workers.  glibc's default
# mmap threshold adapts to each process's history: at camera size one worker
# could settle into returning its big arrays to the kernel after every op,
# paying about 6 ms of page faults per op that the other worker did not, and
# stay so for the whole run.  These thresholds keep big arrays on the heap in
# every process; numpy's huge-page hints would make speed depend on the
# host's free memory.
ALLOCATOR_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
                  "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
                  "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(ALLOCATOR_VARS)

WORKLOAD_NAMES = ("paper_sweep", "flow_files", "reinforce_train")
SETUP_REPEATS = 15

# name -> unit; must match BENCHMARK.json (checked by the smoke test).  The
# host's speed swings by up to 1.5x within a second and drifts over minutes,
# which no wall time of a run can hide, so the gated op time is relative: the
# program's CPU time per op over the reference program's, the two running the
# same op at once on one CPU, so that both see the same host.
END_TO_END = {
    "setup_s": "s",
    "op_time_vs_ref": "ratio",
    "peak_rss_mb": "MB",
}
# per traced op where the unit says so, so no figure depends on run length
RATIOS = {
    "sim.generate_frame.per_unique_frame": "ratio",
    "flowmap.process.per_unique_map": "ratio",
    "sim.emulate_detector.used_ratio": "ratio",
    "detection.nms.iou_per_call": "count",
    "policies.policy_gradient.us_per_step": "us",
    "fileio.mb_read": "MB/op",
    "cli.mb_written": "MB/op",
    "trace.overhead_share": "ratio",
}


def per_layer_units():
    from tracer import function_names

    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_ms"] = "ms/op"
    units.update(RATIOS)
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="start ops until this many seconds have passed (and at least "
                        "the workload's minimum op count)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                   help="directory for results, spans and scratch inputs")
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes for the harness smoke test (timings meaningless)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# -- set-up and the worker process ------------------------------------------

def worker_env(src=SRC):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        src, HERE, os.environ.get("PYTHONPATH")))))


def timed_setup(config_path):
    """The program's own set-up, in a fresh process: import flowdpp and load
    the config, if the workload has one; the harness's input synthesis is
    outside it."""
    cmd = [sys.executable, WORKER, "setup"] + ([config_path] if config_path else [])
    done = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                          timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Worker:
    """perfbench/worker.py serve: the process that runs the program's ops, so
    its peak RSS holds none of the harness's inputs or checks.  With src set
    to REFERENCE it runs the reference program instead."""

    def __init__(self, args, spans_path, src=SRC):
        cmd = [sys.executable, WORKER, "serve", args.workload, str(args.seed),
               "1" if args.tiny else "0", spans_path or "-"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=worker_env(src))

    def send(self, request):
        pickle.dump(request, self.proc.stdin)
        self.proc.stdin.flush()

    def receive(self):
        return pickle.load(self.proc.stdout)  # EOFError if the worker died

    def call(self, request):
        self.send(request)
        return self.receive()

    def finish(self):
        """End the op loop; returns the worker's peak RSS and tracer summary."""
        return self.call(None)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# -- the op loop ----------------------------------------------------------

def replies(wl, i, prep, worker, ref, traced_too):
    """(traced, reply) for each run of op i.  Untraced, the program and the
    reference program run the op at once, on the same inputs (the reference
    with its own output path); traced, the program runs it untraced and
    traced, one after the other.  The order alternates with i."""
    if traced_too:
        order = (False, True) if i % 2 == 0 else (True, False)
        return [(traced, worker.call((traced, i, prep))) for traced in order]
    ref_prep = {k: v + "-ref" if k == "out" else v for k, v in prep.items()}
    pair = [(worker, prep), (ref, ref_prep)]
    for proc, p in pair if i % 2 == 0 else pair[::-1]:
        proc.send((False, i, p))
    plain, reference = worker.receive(), ref.receive()
    wl.cleanup(ref_prep)
    if reference["error"] is not None:
        reference["error"] = "reference program: " + reference["error"]
        return [(None, reference)]
    return [(False, dict(plain, ref_cpu_seconds=reference["cpu_seconds"]))]


def run_one(wl, i, worker, ref, traced_too):
    """Prepare, run and check op i; with traced_too the untraced and traced
    outputs must agree."""
    rec = {"op": i, "ok": False, "steps": 0, "seconds": None, "detail": ""}
    prep = wl.prepare(i)
    rec["op_seed"] = prep["seed"]
    results = {}
    try:
        for traced, reply in replies(wl, i, prep, worker, ref, traced_too):
            if reply["error"] is not None:
                rec["detail"] = reply["error"]
                return rec
            if traced:
                rec["traced_seconds"] = reply["seconds"]
            else:
                rec.update(seconds=reply["seconds"], cpu_seconds=reply["cpu_seconds"],
                           ref_cpu_seconds=reply.get("ref_cpu_seconds"))
            try:
                results[traced] = wl.check(prep, reply["out"])
            except Exception:  # a check that raises fails the op, not the benchmark
                rec["detail"] = traceback.format_exc()
                return rec
            if traced:
                rec["bytes_written"] = sum(os.path.getsize(p) for p in wl.outputs(prep))
    finally:
        wl.cleanup(prep)
    res = results[traced_too]
    if traced_too:
        plain = results[False]
        if (plain.ok, plain.digests, plain.stats) != (res.ok, res.digests, res.stats):
            res.ok = False
            res.detail = "traced and untraced outputs differ; " + res.detail
    rec.update(ok=res.ok, steps=res.steps, detail=res.detail, digests=res.digests,
               stats=res.stats)
    return rec


def op_loop(wl, seconds, worker, ref, traced_too):
    """Run ops until --seconds have passed.  The SETUP_REPEATS set-ups are
    spread evenly over the run, between ops, so their median samples the
    whole run rather than the few seconds that back-to-back set-ups take."""
    records, setup_times = [], []
    start = time.perf_counter()
    while len(records) < wl.min_ops or time.perf_counter() - start < seconds:
        share = (time.perf_counter() - start) / seconds if seconds > 0 else 0.0
        while len(setup_times) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * share)):
            setup_times.append(timed_setup(wl.config_path))
        records.append(run_one(wl, len(records), worker, ref, traced_too))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(wl.config_path))
    return records, setup_times, time.perf_counter() - start


# -- metrics ----------------------------------------------------------------

def quantile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def time_ratio(records):
    """Median over ops of program CPU time over reference CPU time."""
    ratios = [r["cpu_seconds"] / r["ref_cpu_seconds"] for r in records
              if r.get("cpu_seconds") and r.get("ref_cpu_seconds")]
    return statistics.median(ratios) if ratios else float("nan")


def end_to_end(records, setup_times, peak_rss_mb):
    # CPU time: untraced, the op shares its CPU with the reference program,
    # so its wall time is about twice what the op alone would take
    op_s = [r["cpu_seconds"] for r in records if r.get("cpu_seconds") is not None]
    op_ms = [s * 1e3 for s in op_s]
    return {
        "setup_s": statistics.median(setup_times),
        "op_time_vs_ref": time_ratio(records),
        "op_ms_p50": quantile(op_ms, 50),
        "op_ms_p90": quantile(op_ms, 90),
        "steps_per_s": sum(r["steps"] for r in records) / sum(op_s) if op_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def named_metrics(wl, e2e, records, stats):
    """The workload-specific metrics: (value, unit, sample note)."""
    n = sum(r.get("cpu_seconds") is not None for r in records)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    rows = {"setup_s": (e2e["setup_s"], "s", f"median of {SETUP_REPEATS} set-ups")}
    pairs = sum(bool(r.get("cpu_seconds") and r.get("ref_cpu_seconds")) for r in records)
    if pairs:
        rows["op_time_vs_ref"] = (e2e["op_time_vs_ref"], "ratio",
                                  f"median of {pairs} ops, CPU time over the reference's")
    if wl.name in ("paper_sweep", "reinforce_train"):
        rows["steps_per_s"] = (e2e["steps_per_s"], "1/s",
                               f"{sum(r['steps'] for r in records)} simulated steps")
    if wl.name == "paper_sweep":
        rows["compare_s_p50"] = (e2e["op_ms_p50"] / 1e3, "s", f"n={n}")
    if wl.name == "flow_files":
        rows["frame_ms_p50"] = (e2e["op_ms_p50"], "ms", f"n={n}")
        rows["frame_ms_p90"] = (e2e["op_ms_p90"], "ms", f"n={n}")
    units = {"dpp_avg_q": "frames", "dpp_avg_accuracy": "fraction", "reinforce_margin": "reward"}
    for name, value in stats.items():
        rows[name] = (value, units[name], f"mean over the first {wl.min_ops} op seeds")
    rows["fail_share"] = (failed / attempted, "share", f"{failed}/{attempted} ops")
    rows["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB", "worker process that runs the ops")
    return rows


def fixed_prefix(wl, records):
    """Simulated statistics and output digests of the first min_ops ops, which
    every run executes whatever its speed."""
    head = records[:wl.min_ops]
    stats = {}
    if all(r["ok"] for r in head):
        stats = {name: statistics.fmean(r["stats"][name] for r in head)
                 for name in wl.stat_names}
    digests = {}
    for name in sorted(head[0].get("digests", {})):
        parts = [r.get("digests", {}).get(name, "") for r in head]
        digests[name] = {"combined": hashlib.sha256("".join(parts).encode()).hexdigest(),
                         "per_op": parts}
    return stats, digests


def layer_metrics(summary, records):
    """Per-layer counters per traced op, so they measure the program's work
    per op and not how many ops fit in the run."""
    from tracer import OP_SPAN, function_names

    def stat(name):
        return summary["stat"].get(name, (0, 0, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    ops = stat(OP_SPAN)[0]
    out = {}
    for name in function_names():
        calls, self_ns, _ = stat(name)
        out[f"{name}.calls"] = ratio(calls, ops)
        out[f"{name}.self_ms"] = ratio(self_ns / 1e6, ops)

    out["sim.generate_frame.per_unique_frame"] = ratio(
        stat("sim.generate_frame")[0], summary["unique"]["sim.generate_frame"])
    out["flowmap.process.per_unique_map"] = ratio(
        stat("flowmap.process")[0], summary["unique"]["flowmap.process"])
    out["sim.emulate_detector.used_ratio"] = ratio(
        stat("sim.step")[0], stat("sim.emulate_detector")[0])
    out["detection.nms.iou_per_call"] = ratio(summary["nms_iou_calls"],
                                              stat("detection.nms")[0])
    out["policies.policy_gradient.us_per_step"] = ratio(
        stat("policies.policy_gradient")[2] / 1e3, summary["gradient_steps"])
    out["fileio.mb_read"] = ratio(summary["bytes_read"] / 1e6, ops)
    out["cli.mb_written"] = ratio(sum(r.get("bytes_written", 0) for r in records) / 1e6, ops)
    paired = [r for r in records if r["seconds"] is not None and "traced_seconds" in r]
    out["trace.overhead_share"] = ratio(sum(r["traced_seconds"] for r in paired),
                                        sum(r["seconds"] for r in paired)) - 1.0
    return out


def layer_table(summary):
    """Self time per layer and per function; rows add up to the traced wall time."""
    from tracer import OP_SPAN

    ops, _, wall_ns = summary["stat"][OP_SPAN]
    wall_ms = wall_ns / 1e6
    rows = sorted(((n, calls, self_ns / 1e6) for n, (calls, self_ns, _) in
                   summary["stat"].items() if calls), key=lambda r: -r[2])
    modules = {}
    for name, _, self_ms in rows:
        layer = name.split(".")[0]
        modules[layer] = modules.get(layer, 0.0) + self_ms
    lines = [f"  traced wall time {wall_ms:.1f} ms over {ops} ops",
             f"  {'layer':<36}{'self_ms':>12}{'share':>9}"]
    for layer, ms in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<36}{ms:>12.2f}{ms / wall_ms:>9.1%}")
    lines.append(f"  {'function':<36}{'self_ms':>12}{'share':>9}{'calls':>10}")
    for name, calls, ms in rows:
        lines.append(f"  {name:<36}{ms:>12.2f}{ms / wall_ms:>9.1%}{calls:>10}")
    total = sum(ms for _, _, ms in rows)
    lines.append(f"  {'accounted':<36}{total:>12.2f}{total / wall_ms:>9.1%}")
    return lines


# -- provenance -----------------------------------------------------------

def provenance(wl, records):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # the checkout may not be a repository
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30, check=False)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    loc, digest = 0, hashlib.sha256()
    pkg = os.path.join(SRC, "flowdpp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                data = f.read()
            loc += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    return {
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "allocator": {v: os.environ.get(v) for v in ALLOCATOR_VARS},
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "reference": os.path.basename(REFERENCE),
        "workload_seed": wl.seed,
        "op_seeds": [r["op_seed"] for r in records],
    }


# -- entry points -----------------------------------------------------------

def run_workload(args):
    import flowdpp
    from workloads import WORKLOADS

    if not os.path.abspath(flowdpp.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported flowdpp from {flowdpp.__file__}, not {SRC}")
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    os.makedirs(args.out, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    spans_path = (os.path.join(args.out, f"spans-{wl.name}-seed{args.seed}.npz")
                  if args.trace else None)
    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=args.out) as work:
        wl.setup(work)
        worker = Worker(args, spans_path)
        ref = None
        try:
            if not args.trace:
                ref = Worker(args, None, src=REFERENCE)
            records, setup_times, loop_s = op_loop(wl, args.seconds, worker, ref,
                                                   bool(args.trace))
            final = worker.finish()
            if ref is not None:
                ref.finish()
        finally:
            worker.close()
            if ref is not None:
                ref.close()

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    e2e = end_to_end(records, setup_times, final["peak_rss_mb"])
    stats, digests = fixed_prefix(wl, records)
    named = named_metrics(wl, e2e, records, stats)
    prov = provenance(wl, records)

    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
             f"ops {attempted} (failed {failed})  loop {loop_s:.1f} s"]
    for name, (value, unit, note) in named.items():
        lines.append(f"  {name:<20}{value:>16.6g} {unit:<9}({note})")
    for name, d in digests.items():
        lines.append(f"  sha256 {name:<16}{d['combined']}")
    for r in records:
        if not r["ok"]:
            lines.append(f"  FAILED op {r['op']}: {r['detail'].strip()}")
    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "loop_s": loop_s,
              "end_to_end": e2e, "setup_s_samples": setup_times,
              "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in named.items()},
              "stats": stats, "digests": digests, "provenance": prov,
              "ops": [{k: r.get(k) for k in ("op", "ok", "steps", "seconds", "cpu_seconds",
                                             "ref_cpu_seconds",
                                             "traced_seconds", "detail")} for r in records]}
    if args.trace:
        layers = layer_metrics(final["tracer"], records)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        lines.append(f"  trace overhead {layers['trace.overhead_share']:+.1%}; "
                     f"redundancy: frames {layers['sim.generate_frame.per_unique_frame']:.3f}, "
                     f"maps {layers['flowmap.process.per_unique_map']:.3f}, "
                     f"detector used {layers['sim.emulate_detector.used_ratio']:.3f}")
        lines.extend(layer_table(final["tracer"]))
        result["per_layer"] = layers
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    with open(os.path.join(args.out, f"{tag}.json"), "w") as f:
        json.dump(result, f, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process; the last line maps workload
    names to their result objects."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        out = done.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not out:
            code = done.returncode or 1
            continue
        results[name] = json.loads(out[-1])
    print(json.dumps(results))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowdpp", "__init__.py")):
        print(f"error: no flowdpp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
