#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over several seeds.

Runs perfbench/run.py once per seed and workload (untraced, each in a fresh
process), then reports for every end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median against the bound in
BENCHMARK.json.  It also keeps each seed's simulated statistics and output
digests, so two sets of runs, or two commits, can be compared exactly.

    python3 perfbench/spread.py --seeds 0-9 --out .bench_out/spread.json
    python3 perfbench/spread.py --workloads flow_files --seeds 0-4 \\
        --baseline perfbench/trajectory/baseline.json

With --baseline, each median is compared with the baseline's median (worse
by more than the metric's bound is flagged) and every seed present in both
must reproduce the baseline's statistics and digests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def run_seed(workload, seed, seconds, out):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", out]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(out, f"{workload}-seed{seed}-trace0.json")) as f:
        return line, json.load(f)


def measure(bench, workloads, seeds, seconds, out):
    entry = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        per_seed, attempted, failed = {}, 0, 0
        for seed in seeds:
            line, full = run_seed(workload, seed, seconds, out)
            entry.setdefault("provenance", {
                k: full["provenance"][k] for k in
                ("nproc", "python", "numpy", "blas", "thread_caps", "machine",
                 "git_commit", "src_sha256", "src_loc")})
            attempted += line["attempted"]
            failed += line["failed"]
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            per_seed[str(seed)] = {
                "correct": line["correct"], "stats": full["stats"],
                "digests": {k: v["combined"] for k, v in full["digests"].items()},
                "named": {k: v["value"] for k, v in full["metrics"].items()},
            }
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            s = spread_of(values[m["name"]])
            s.update(unit=m["unit"], better=m["better"], bound=m["bound"])
            metrics[m["name"]] = s
        entry["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                        "metrics": metrics, "per_seed": per_seed}
    return entry


def against(entry, baseline):
    """Median changes against a baseline entry and exact reproduction of
    every shared seed's statistics and digests; returns printable lines."""
    lines = []
    for workload, cur in entry["workloads"].items():
        base = baseline["workloads"].get(workload)
        if base is None:
            continue
        for name, m in cur["metrics"].items():
            b = base["metrics"][name]
            change = (m["median"] - b["median"]) / b["median"]
            worse = change if m["better"] == "lower" else -change
            verdict = "WORSE" if worse > m["bound"] else "ok"
            lines.append(f"{workload:<16}{name:<14}{b['median']:>14.6g} ->{m['median']:>14.6g}"
                         f" {change:+8.2%} (bound {m['bound']:.0%}) {verdict}")
        for seed, s in cur["per_seed"].items():
            old = base["per_seed"].get(seed)
            if old is not None:
                same = (s["stats"], s["digests"]) == (old["stats"], old["digests"])
                lines.append(f"{workload:<16}seed {seed:<8} statistics and digests "
                             f"{'identical' if same else 'DIFFER'}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+",
                   default=["paper_sweep", "flow_files", "reinforce_train"])
    p.add_argument("--seeds", type=parse_seeds, default=list(range(10)),
                   help="e.g. 0-9 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "spread.json"))
    p.add_argument("--baseline", help="earlier spread.json to compare against")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    run_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(run_dir, exist_ok=True)
    entry = measure(bench, args.workloads, args.seeds, seconds, run_dir)
    with open(args.out, "w") as f:
        json.dump(entry, f, indent=1)

    for workload, w in entry["workloads"].items():
        print(f"\n{workload}: {w['failed']}/{w['attempted']} ops failed")
        for name, m in w["metrics"].items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {name:<14}median {m['median']:>12.6g} {m['unit']:<5} "
                  f"q1 {m['q1']:>12.6g}  q3 {m['q3']:>12.6g}  spread {m['spread']:6.2%}"
                  f"  bound {m['bound']:.0%}{flag}")
    if args.baseline:
        with open(args.baseline) as f:
            print("\n" + "\n".join(against(entry, json.load(f))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
