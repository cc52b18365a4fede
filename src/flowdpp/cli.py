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
import functools
import os
import secrets
import sys
import traceback

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


def _output_error(path, exc):
    """An InputError for an OSError met writing to the user's path, which
    names that path, not a temp file."""
    return InputError(f"cannot write {path}: {exc.strerror or exc}")


def _atomic_write(path, render):
    """Write via a temp file + rename so failures leave no partial output.
    The temp file is created as open(path, "w") creates a file, with mode
    0o666 less the umask (mkstemp would give 0o600).  An OSError, such as a
    missing directory or a directory at path, is an InputError."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".flowdpp-{secrets.token_hex(8)}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                render(f)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _output_error(path, exc) from exc


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
        f.write("".join([f"{value:.17g}\n" for value in thresholds.tolist()]))

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
        sim.train_reinforce(
            cfg.scenario,
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


def _write_rows(path, header, rows, sep):
    """Write the header's cells, then each row's, one line each with sep
    between cells: a float with 17 significant digits ({x:.17g}, which
    round-trips), any other cell as str() gives it.  Each column holds one
    type, so the first row's cells fix one line template for every row."""
    rows = iter(rows)
    first = next(rows)
    line = sep.join("{:.17g}" if isinstance(v, float) else "{}" for v in first) + "\n"

    def render(f):
        f.write(sep.join(header) + "\n")
        f.write(line.format(*first))
        f.writelines(line.format(*row) for row in rows)

    _atomic_write(path, render)


def cmd_run(args):
    """simulate runs the configured policy; compare runs COMPARE_POLICIES on
    the same frames and also writes the queue and accuracy curves."""
    cfg = _load_run_config(args)
    frames = _load_frames(cfg)
    compare = args.command == "compare"
    policies = COMPARE_POLICIES if compare else [(cfg.policy.value, cfg.policy)]
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise _output_error(cfg.out_dir, exc) from exc
    results = [
        sim.run(cfg.scenario, _build_policy(cfg, kind), cfg=cfg.controller, frames=frames)
        for _, kind in policies
    ]
    labels = [label for label, _ in policies]
    summaries = [sim.summarize(result) for result in results]
    timeseries = (
        (t, label, *row, r.flops)
        for label, r in zip(labels, results)
        for t, row in enumerate(zip([alpha.value for alpha in r.alpha],
                                    *(c.tolist() for c in (r.q, r.a, r.b, r.perf, r.p, r.tpr))))
    )
    _write_rows(os.path.join(cfg.out_dir, "timeseries.csv"), TIMESERIES_COLUMNS, timeseries, ",")
    summary = (
        (label, s.steps, s.avg_q, s.avg_tpr, s.avg_accuracy, s.mean_drift, s.decision_mix["H"],
         s.decision_mix["T"], s.total_flops, int(s.overflow))
        for label, s in zip(labels, summaries)
    )
    _write_rows(os.path.join(cfg.out_dir, "summary.csv"), SUMMARY_COLUMNS, summary, ",")
    if compare:
        # gnuplot data: column 1 is t, one further column per policy
        accuracy = [np.cumsum(r.recall) / np.arange(1, len(r) + 1) for r in results]
        for name, columns in (("queue_backlog.dat", [r.q for r in results]),
                              ("accuracy.dat", accuracy)):
            rows = ((t, *values) for t, values in enumerate(zip(*(c.tolist() for c in columns))))
            _write_rows(os.path.join(cfg.out_dir, name), ["# t", *labels], rows, " ")
    for label, s in zip(labels, summaries):
        print(
            f"{label}: steps={s.steps} avg_q={s.avg_q:.4g} avg_accuracy={s.avg_accuracy:.4g} "
            f"drift={s.mean_drift:+.4g} overflow={s.overflow} flops={s.total_flops}"
        )
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process on the first call
    and shared by every later one, so callers must not change it.
    parse_args keeps no state between calls, and building the parser costs
    more than parsing."""
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
    except Exception:  # a defect, not an input: show where it happened
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
