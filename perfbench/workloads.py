"""The three benchmark workloads.

Each workload writes its inputs (INI files or .flo files) from the run seed,
then runs closed-loop ops, one at a time, against the flowdpp program and
checks every op's output.  ``setup`` and ``prepare`` build the inputs and
``check`` verifies outputs, in the harness process; only ``op`` runs in the
worker process (perfbench/worker.py), so it may use nothing but the
picklable ``prep`` dict that ``prepare`` returned and the class constants.

Sizes follow the paper's desk-scale setting; ``tiny=True`` shrinks every
workload for the harness smoke test, whose timings mean nothing.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from flowdpp import cli, config, flowmap, sim
from flowdpp.policies import UniformRandomPolicy

# The four image shapes (rows, cols) of the KITTI-2015 flow benchmark.
KITTI_SHAPES = [(375, 1242), (370, 1224), (374, 1238), (376, 1241)]
TINY_SHAPES = [(24, 80), (23, 78), (24, 79), (25, 80)]


@dataclass
class OpResult:
    ok: bool
    steps: int  # frames handled: simulated steps, or flow files
    detail: str = ""
    digests: dict = field(default_factory=dict)  # output name -> sha256 hex
    stats: dict = field(default_factory=dict)  # simulated statistics


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def op_seed(run_seed, i):
    return run_seed * 1000 + i


def _quiet(argv):
    """cli.main with its stdout captured, so formatting cost stays in the op."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_ini(path, sections):
    with open(path, "w") as f:
        for section, items in sections.items():
            f.write(f"[{section}]\n")
            for key, value in items.items():
                f.write(f"{key} = {value}\n")
            f.write("\n")


class PaperSweep:
    """`flowdpp compare` on the paper's desk-scale config scaled to one tenth
    of its horizon, one seed per op."""

    name = "paper_sweep"
    stat_names = ("dpp_avg_q", "dpp_avg_accuracy")

    def __init__(self, seed, tiny=False):
        self.seed = seed
        # benchmark_config as INI: CPU profile, tie_break T, coupled arrivals,
        # with the horizon, the overflow cap and the REINFORCE training all at
        # one tenth of the paper's (3000 steps, cap 500, 50 episodes of 50
        # steps), so per-policy redundancy is the paper's.  An op then takes
        # about 1 s of CPU, so a 30 s run holds a dozen ops and ends within
        # about 2 s of --seconds; always-H still ends about twice over the cap.
        if tiny:
            self.horizon, cap, episodes, length = 80, 15, 2, 10
        else:
            self.horizon, cap, episodes, length = 300, 50, 5, 50
        self.min_ops = 2 if tiny else 4
        scenario = {"horizon": self.horizon, "latency_profile": "cpu", "couple_arrival": "true",
                    "overflow_cap": cap}
        run = {"reinforce_train_episodes": episodes, "reinforce_episode_len": length}
        self.sections = {"run": run, "scenario": scenario, "controller": {"tie_break": "T"}}
        self.steps_per_op = 4 * self.horizon + episodes * length

    def setup(self, work_dir):
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "paper.ini")
        _write_ini(self.config_path, self.sections)

    def prepare(self, i):
        return {"seed": op_seed(self.seed, i), "ini": self.config_path,
                "out": os.path.join(self.work_dir, f"compare-{i}")}

    def op(self, prep):
        return _quiet(["compare", "--config", prep["ini"], "--seed", str(prep["seed"]),
                       "--out", prep["out"]])

    def check(self, prep, rc):
        if rc != 0:
            return OpResult(False, 0, f"compare exited {rc}")
        out = prep["out"]
        with open(os.path.join(out, "summary.csv"), newline="") as f:
            rows = {r["policy"]: r for r in csv.DictReader(f)}
        dpp, comp1, comp2 = rows["dpp"], rows["comp1"], rows["comp2"]
        # acceptance criterion 5: always-H overflows, DPP and always-T stay
        # bounded, and DPP is at least as accurate as always-T
        problems = []
        if comp2["overflow"] != "1":
            problems.append("comp2 did not overflow")
        for label in ("dpp", "comp1"):
            if rows[label]["overflow"] != "0":
                problems.append(f"{label} overflowed")
        if float(dpp["avg_accuracy"]) < float(comp1["avg_accuracy"]):
            problems.append("dpp accuracy below comp1")
        if any(int(r["steps"]) != self.horizon for r in rows.values()):
            problems.append("wrong step count")
        return OpResult(
            not problems,
            self.steps_per_op,
            "; ".join(problems),
            {name: sha256_file(os.path.join(out, name))
             for name in ("timeseries.csv", "summary.csv")},
            {"dpp_avg_q": float(dpp["avg_q"]), "dpp_avg_accuracy": float(dpp["avg_accuracy"])},
        )

    def outputs(self, prep):
        return [os.path.join(prep["out"], name) for name in sorted(os.listdir(prep["out"]))]

    def cleanup(self, prep):
        shutil.rmtree(prep["out"], ignore_errors=True)


def write_flo(path, uv):
    """Middlebury .flo writer written from the format, independent of
    flowdpp.fileio, so the program's reader is checked against a writer it
    does not share."""
    uv = np.ascontiguousarray(uv, dtype="<f4")
    rows, cols = uv.shape[:2]
    with open(path, "wb") as f:
        f.write(np.float32(202021.25).tobytes())
        f.write(np.array([cols, rows], dtype="<i4").tobytes())
        f.write(uv.tobytes())


def background_flow(rng, rows, cols):
    """Smooth camera-motion field: expansion about a focus point plus two
    low-frequency waves, a few pixels in magnitude."""
    y, x = np.mgrid[0:rows, 0:cols].astype(np.float64)
    fy, fx = rng.uniform(0.4, 0.6) * rows, rng.uniform(0.4, 0.6) * cols
    k = rng.uniform(0.002, 0.006)
    u, v = k * (x - fx), k * (y - fy)
    for _ in range(2):
        amp, wy, wx, phase = rng.uniform(0.3, 1.5), *rng.uniform(0.5, 2.0, 2), rng.uniform(0, 6.3)
        wave = amp * np.sin(2 * np.pi * (wy * y / rows + wx * x / cols) + phase)
        u += wave
        v += 0.5 * wave
    return np.stack([u, v], axis=-1).astype(np.float32)


def add_blobs(rng, uv, count=3):
    """Add Gaussian bumps of independent motion (moving objects) in place."""
    rows, cols = uv.shape[:2]
    for _ in range(count):
        r = max(2.0, rng.uniform(0.02, 0.08) * cols)
        cy, cx = rng.uniform(0, rows), rng.uniform(0, cols)
        du, dv = rng.uniform(-12.0, 12.0, 2)
        y0, y1 = max(int(cy - 2 * r), 0), min(int(cy + 2 * r) + 1, rows)
        x0, x1 = max(int(cx - 2 * r), 0), min(int(cx + 2 * r) + 1, cols)
        if y0 >= y1 or x0 >= x1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        g = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
        uv[y0:y1, x0:x1, 0] += (du * g).astype(np.float32)
        uv[y0:y1, x0:x1, 1] += (dv * g).astype(np.float32)


class FlowFiles:
    """`flowdpp process-flow` on one camera-size .flo file per op."""

    name = "flow_files"
    stat_names = ()
    grid, k, c_th = (8, 8), 2, 0.5

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.shapes = TINY_SHAPES if tiny else KITTI_SHAPES
        self.min_ops = 4 if tiny else 8

    def setup(self, work_dir):
        """The backgrounds stay in harness memory; only frames go to files."""
        self.work_dir = work_dir
        self.config_path = None  # process-flow takes no config file
        self.backgrounds = [background_flow(np.random.default_rng([self.seed, 1, idx]), *shape)
                            for idx, shape in enumerate(self.shapes)]

    def frame(self, frame_seed):
        """A seeded shape's background plus blobs at fresh positions, so every
        op gets a distinct frame."""
        rng = np.random.default_rng(frame_seed)
        uv = self.backgrounds[rng.integers(len(self.shapes))].copy()
        add_blobs(rng, uv)
        return uv

    def prepare(self, i):
        frame_seed = [self.seed, 2, i]
        path = os.path.join(self.work_dir, f"frame-{i}.flo")
        write_flo(path, self.frame(frame_seed))
        return {"seed": frame_seed, "flo": path,
                "out": os.path.join(self.work_dir, f"thresholds-{i}.csv")}

    def op(self, prep):
        rows, cols = self.grid
        return _quiet(["process-flow", prep["flo"], "--grid", f"{rows}x{cols}",
                       "--k", str(self.k), "--cth", str(self.c_th), "--out", prep["out"]])

    def check(self, prep, rc):
        if rc != 0:
            return OpResult(False, 0, f"process-flow exited {rc}")
        rows, cols = self.grid
        with open(prep["out"]) as f:
            values = np.array([float(line) for line in f])
        cells = rows * cols
        problems = []
        if values.size != cells * self.k:
            problems.append(f"{values.size} thresholds, expected {cells * self.k}")
        else:
            lo, hi = self.c_th / (1.0 + math.e ** 2), self.c_th / 2.0
            if not np.all((values >= lo) & (values <= hi)):
                problems.append("threshold outside [c_th/(1+e^2), c_th/2]")
            blocks = values.reshape(self.k, cells)
            if not np.all(blocks == blocks[0]):
                problems.append("box blocks differ")
            uv = self.frame(prep["seed"]).astype(np.float64)
            magnitude = np.hypot(uv[..., 0], uv[..., 1])
            expected = flowmap.process(magnitude, rows, cols, self.k, self.c_th)
            if not np.array_equal(values, expected):
                problems.append("file path differs from in-memory process()")
        return OpResult(not problems, 1, "; ".join(problems),
                        {"thresholds": sha256_file(prep["out"])})

    def outputs(self, prep):
        return [prep["out"]]

    def cleanup(self, prep):
        for key in ("flo", "out"):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(prep[key])


class ReinforceTrain:
    """REINFORCE training on the criterion-7 scenario, then evaluation of the
    trained policy against a uniform-random policy on unseen frames."""

    name = "reinforce_train"
    stat_names = ("reinforce_margin",)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        # 200 short episodes learn as reliably as the criterion-7 test's 200
        # long ones, and keep an op near 3 s, so a 30 s run has about ten samples
        self.episodes, self.length, self.eval_episodes = (20, 20, 10) if tiny else (200, 10, 40)
        self.min_ops = 1 if tiny else 4
        self.steps_per_op = (self.episodes + 2 * self.eval_episodes) * self.length
        # stationary-only scene with many hard-to-detect objects, where H is
        # clearly better, as in acceptance criterion 7
        self.sections = {
            "run": {"reinforce_train_episodes": self.episodes,
                    "reinforce_episode_len": self.length},
            "scenario": {"horizon": self.length, "start_driving": "false",
                         "p_stay_stationary": 1.0, "p_stay_driving": 0.0,
                         "mean_objects_stationary": 2.5, "miss_prob": 0.7,
                         "false_positive_rate": 0.0},
        }

    def setup(self, work_dir):
        self.config_path = os.path.join(work_dir, "train.ini")
        _write_ini(self.config_path, self.sections)

    def prepare(self, i):
        return {"seed": op_seed(self.seed, i), "ini": self.config_path}

    def _mean_reward(self, cfg, policy, seed_tag):
        totals = []
        # seeds start at 1: a seed sequence ending in 0 equals the one without
        # it, and (seed, 1) and (seed, 2) are training episodes
        for s in range(1, self.eval_episodes + 1):
            episode = []
            sim.run(cfg.scenario, policy, cfg=cfg.controller, seed=seed_tag + (s,),
                    collect=episode)
            totals.append(sum(r for (_, _, r) in episode))
        return float(np.mean(totals))

    def op(self, prep):
        cfg = config.load_config(prep["ini"])
        seed = prep["seed"]
        policy, _ = sim.train_reinforce(
            cfg.scenario, cfg=cfg.controller, episodes=cfg.reinforce_train_episodes,
            episode_len=cfg.reinforce_episode_len, seed=seed, lr=cfg.reinforce_lr,
            gamma=cfg.reinforce_gamma,
        )
        # distinct evaluation seeds, so every frame of the op is used once
        trained = self._mean_reward(cfg, policy, (seed, 1))
        uniform = self._mean_reward(cfg, UniformRandomPolicy(), (seed, 2))
        return policy.params, trained, uniform

    def check(self, prep, result):
        params, trained, uniform = result
        arrays = params.arrays()
        problems = []
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("non-finite parameters")
        if not trained > uniform:
            problems.append(f"trained reward {trained:.1f} <= uniform {uniform:.1f}")
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return OpResult(not problems, self.steps_per_op, "; ".join(problems),
                        {"mlp_params": h.hexdigest()},
                        {"reinforce_margin": trained - uniform})

    def outputs(self, prep):
        return []

    def cleanup(self, prep):
        pass


WORKLOADS = {w.name: w for w in (PaperSweep, FlowFiles, ReinforceTrain)}
