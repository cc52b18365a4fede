"""Command-line interface.

Subcommands:
  process-flow  run the flow-map threshold pipeline on a .flo or matrix CSV
  simulate      run one policy and write timeseries.csv / summary.csv
  compare       run all four policies on identical frames and also emit
                gnuplot-ready .dat files for the queue and accuracy curves

Exit codes: 0 success, 2 usage or input error, 1 internal error.
"""

import argparse
import dataclasses
import os
import sys
import tempfile

import numpy as np

from . import fileio, flowmap, sim
from .config import ConfigError, load_config
from .policies import PolicyKind, make_policy

__all__ = ["main"]

TIMESERIES_COLUMNS = ["t", "policy", "alpha", "Q", "a", "b", "P", "p", "tpr", "flops"]
SUMMARY_COLUMNS = [
    "policy", "steps", "avg_q", "avg_tpr", "avg_accuracy", "mean_drift",
    "decisions_h", "decisions_t", "total_flops", "overflow",
]

COMPARE_POLICIES = [
    ("dpp", PolicyKind.DPP),
    ("comp1", PolicyKind.ALWAYS_T),
    ("comp2", PolicyKind.ALWAYS_H),
    ("comp3", PolicyKind.REINFORCE),
]


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _fmt(x):
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _atomic_write(path, render):
    """Write via a temp file + rename so failures leave no partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".flowdpp-")
    try:
        with os.fdopen(fd, "w") as f:
            render(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_grid(text):
    try:
        rows, cols = text.lower().split("x")
        rows, cols = int(rows), int(cols)
    except ValueError as exc:
        raise InputError(f"--grid expects ROWSxCOLS, got {text!r}") from exc
    if rows < 1 or cols < 1:
        raise InputError("--grid dimensions must be >= 1")
    return rows, cols


def cmd_process_flow(args):
    try:
        flow = fileio.load_flow_map(args.input)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    rows, cols = _parse_grid(args.grid)
    try:
        thresholds = flowmap.process(flow, rows, cols, args.k, args.cth)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    def render(f):
        for value in thresholds:
            f.write(f"{value:.17g}\n")

    _atomic_write(args.out, render)
    print(
        f"thresholds: n={thresholds.size} min={thresholds.min():.6g} "
        f"max={thresholds.max():.6g} mean={thresholds.mean():.6g}"
    )
    return 0


def _load_run_config(args):
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        raise InputError(str(exc)) from exc
    if args.seed is not None:
        try:
            scenario = dataclasses.replace(cfg.scenario, seed=args.seed)
        except ValueError as exc:
            raise InputError(f"--seed: {exc}") from exc
        cfg = dataclasses.replace(cfg, scenario=scenario)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _build_policy(cfg, kind):
    if kind is PolicyKind.REINFORCE:
        policy = make_policy(kind, seed=cfg.scenario.seed)
        train_scenario = dataclasses.replace(
            cfg.scenario, seed=cfg.scenario.seed + 1_000_003
        )
        sim.train_reinforce(
            train_scenario,
            cfg=cfg.controller,
            episodes=cfg.reinforce_train_episodes,
            episode_len=cfg.reinforce_episode_len,
            seed=cfg.scenario.seed + 1_000_003,
            lr=cfg.reinforce_lr,
            gamma=cfg.reinforce_gamma,
            policy=policy,
        )
        return policy
    return make_policy(kind)


def _load_frames(cfg):
    """The configured replay trace's frames, or None to generate frames."""
    if not cfg.trace:
        return None
    try:
        frames = fileio.load_trace(cfg.trace)
        sim.check_frames(frames, cfg.scenario)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return frames


def _write_timeseries(path, labelled_results):
    def render(f):
        f.write(",".join(TIMESERIES_COLUMNS) + "\n")
        for label, r in labelled_results:
            columns = (r.q, r.a, r.b, r.perf, r.p, r.tpr)
            for t, (alpha, *values) in enumerate(zip(r.alpha, *(c.tolist() for c in columns))):
                row = [t, label, alpha.value, *values, r.flops]
                f.write(",".join(_fmt(v) for v in row) + "\n")

    _atomic_write(path, render)


def _write_summary(path, labelled_summaries):
    def render(f):
        f.write(",".join(SUMMARY_COLUMNS) + "\n")
        for label, s in labelled_summaries:
            row = [label, s.steps, s.avg_q, s.avg_tpr, s.avg_accuracy, s.mean_drift,
                   s.decision_mix["H"], s.decision_mix["T"], s.total_flops,
                   int(s.overflow)]
            f.write(",".join(_fmt(v) for v in row) + "\n")

    _atomic_write(path, render)


def _write_dat(path, labels, columns):
    """Gnuplot data: column 1 is t, one further column per policy."""

    def render(f):
        f.write("# t " + " ".join(labels) + "\n")
        for t, values in enumerate(zip(*(c.tolist() for c in columns))):
            f.write(" ".join([str(t)] + [_fmt(v) for v in values]) + "\n")

    _atomic_write(path, render)


def cmd_run(args):
    """simulate runs the configured policy; compare runs COMPARE_POLICIES on
    the same frames and also writes the queue and accuracy curves."""
    cfg = _load_run_config(args)
    frames = _load_frames(cfg)
    compare = args.command == "compare"
    policies = COMPARE_POLICIES if compare else [(cfg.policy.value, cfg.policy)]
    os.makedirs(cfg.out_dir, exist_ok=True)
    results = [
        sim.run(cfg.scenario, _build_policy(cfg, kind), cfg=cfg.controller, frames=frames)
        for _, kind in policies
    ]
    labels = [label for label, _ in policies]
    summaries = [sim.summarize(result) for result in results]
    _write_timeseries(os.path.join(cfg.out_dir, "timeseries.csv"), zip(labels, results))
    _write_summary(os.path.join(cfg.out_dir, "summary.csv"), zip(labels, summaries))
    if compare:
        accuracy = [np.cumsum(r.recall) / np.arange(1, len(r) + 1) for r in results]
        _write_dat(os.path.join(cfg.out_dir, "queue_backlog.dat"), labels, [r.q for r in results])
        _write_dat(os.path.join(cfg.out_dir, "accuracy.dat"), labels, accuracy)
    for label, s in zip(labels, summaries):
        print(
            f"{label}: steps={s.steps} avg_q={s.avg_q:.4g} avg_accuracy={s.avg_accuracy:.4g} "
            f"drift={s.mean_drift:+.4g} overflow={s.overflow} flops={s.total_flops}"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="flowdpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("process-flow", help="flow map -> threshold vector CSV")
    p.add_argument("input", help=".flo file or matrix CSV")
    p.add_argument("--grid", default="8x8", help="target grid as ROWSxCOLS")
    p.add_argument("--k", type=int, default=2, help="boxes per cell")
    p.add_argument("--cth", type=float, default=0.5, help="scalar confidence threshold")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_process_flow)

    for name in ("simulate", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
