"""Discrete-time driving-scene simulator.

Synthesizes frames (two-regime Markov chain over driving/stationary, random
objects with motion, a flow map, and a confidence grid), emulates the two
detector variants with their latency profiles, advances the queue under a
policy, and returns a deterministic per-step time series as columns
(SimResult).

run steps frames in blocks of BLOCK_FRAMES.  Its block stage (h_detections)
emulates H once per frame: one flowmap.process call stacks the block's maps
of one shape (32 maps of 32 x 32 take 256 KiB), one threshold_detections
call thresholds all of its non-empty grids, and one NMS runs per frame.
T's detections are read off H's (see emulate_detector).

Frame generation consumes its own RNG stream and never depends on policy
decisions, so runs with the same seed see identical frames regardless of the
policy under test.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import flowmap
from .controller import (
    ControllerConfig,
    ModelChoice,
    StepObservation,
    _check_finite,
    arrival,
    queue_update,
    service,
    performance,
)
from .detection import ConfidenceGrid, nms, score_against_truth, threshold_detections
from .policies import DISCOUNT, LEARNING_RATE, ReinforcePolicy, make_policy_state

__all__ = [
    "CPU_LATENCY", "GPU_LATENCY", "BLOCK_FRAMES", "ScenarioConfig", "FrameObservation",
    "FrameGenerator", "generate_frame", "h_detections", "emulate_detector", "SimResult", "step",
    "run", "check_frames", "summarize", "Summary", "benchmark_config", "train_reinforce",
]

# Measured seconds per cycle (hybrid, plain detector) on the two platforms.
GPU_LATENCY = (0.083, 0.055)
CPU_LATENCY = (0.133, 0.067)

DRIVING = "driving"
STATIONARY = "stationary"

BLOCK_FRAMES = 32  # frames run steps per flowmap.process call


@dataclass(frozen=True)
class ScenarioConfig:
    horizon: int = 3000
    seed: int = 0
    # frame geometry
    flow_rows: int = 32
    flow_cols: int = 32
    grid_rows: int = 8
    grid_cols: int = 8
    boxes_per_cell: int = 2
    # regime Markov chain; stationary-heavy so the controller sees plenty of
    # empty frames in which draining the queue costs no accuracy
    p_stay_driving: float = 0.90
    p_stay_stationary: float = 0.96
    start_driving: bool = True
    # object process
    mean_objects_driving: float = 1.5
    mean_objects_stationary: float = 0.1
    object_motion_driving: float = 6.0
    object_motion_stationary: float = 0.0
    flow_noise: float = 0.02
    # detector emulation
    c_th: float = 0.5
    nms_iou: float = 0.2
    match_iou: float = 0.5
    miss_prob: float = 0.35  # chance an object's confidence lands below c_th
    recoverable_conf: tuple = (0.30, 0.48)  # missed objects draw here
    detected_conf: tuple = (0.55, 0.95)
    false_positive_rate: float = 0.10  # expected spurious boxes per frame
    false_conf: tuple = (0.26, 0.40)
    # latency model (seconds), defaults to the CPU profile
    base_latency_h: float = CPU_LATENCY[0]
    base_latency_t: float = CPU_LATENCY[1]
    per_object_latency_h: float = 0.001
    per_object_latency_t: float = 0.001
    # queue bookkeeping
    overflow_cap: float = 500.0
    couple_arrival: bool = True  # arrivals follow the chosen model's cycle time

    def __post_init__(self):
        _check_finite(self)
        for name in ("horizon", "seed", "mean_objects_driving", "mean_objects_stationary",
                     "object_motion_driving", "object_motion_stationary", "flow_noise",
                     "false_positive_rate", "per_object_latency_h", "per_object_latency_t",
                     "overflow_cap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("p_stay_driving", "p_stay_stationary", "miss_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability")
        for name in ("base_latency_h", "base_latency_t"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        # Checked here, once per run, because h_detections skips
        # thresholding and NMS (and their checks) on empty frames and
        # generate_frame builds grids without re-checking them.
        for name in ("flow_rows", "flow_cols", "grid_rows", "grid_cols", "boxes_per_cell"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.c_th <= 1.0:
            raise ValueError(f"c_th must be in (0, 1], got {self.c_th}")
        for name in ("recoverable_conf", "detected_conf", "false_conf"):
            span = getattr(self, name)
            if len(span) != 2 or not 0.0 <= span[0] <= span[1] <= 1.0:
                raise ValueError(
                    f"{name} must be a range (lo, hi) with 0 <= lo <= hi <= 1, got {span}"
                )
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must be in [0, 1], got {self.nms_iou}")
        if not 0.0 < self.match_iou <= 1.0:
            raise ValueError(f"match_iou must be in (0, 1], got {self.match_iou}")


class FrameObservation(NamedTuple):  # built once per frame, cheaper than a frozen dataclass
    t: int
    regime: str
    truth_boxes: list  # (cx, cy, w, h) per object
    flow: np.ndarray
    grid: ConfidenceGrid
    declared_objects: int | None = None  # trace replays carry counts, not labels

    @property
    def num_objects(self):
        if self.declared_objects is not None:
            return self.declared_objects
        return len(self.truth_boxes)


def generate_frame(scenario, rng, t, regime):
    """Synthesize one frame for the given regime.

    Each object gets a box, a motion magnitude, a flow bump inside its box,
    and one confidence-grid entry at its center cell (drawn below c_th with
    probability miss_prob, so only the lowered thresholds recover it).

    The draws from rng are a stream contract, in this order: the count, the
    noise, per object one block (cx, cy, w, h, and the motion if driving)
    then (miss, conf) only if its cell has a free slot, last false positives.
    A uniform is lo + (hi - lo) * u, as Generator.uniform computes it.

    An unused slot keeps conf 0 and an all-zero box, which no threshold
    admits.  A dict counts the used slots per cell.  Boxes lie inside (0, 1)
    squared, so scaled edges and centres truncate to valid indices with no
    clamp; a rectangle gets a one-pixel floor.
    """
    sc = scenario
    moving = regime == DRIVING
    mean = sc.mean_objects_driving if moving else sc.mean_objects_stationary
    count = rng.poisson(mean)
    motion_scale = sc.object_motion_driving if moving else sc.object_motion_stationary

    if sc.flow_noise > 0.0:
        flow = rng.standard_normal((sc.flow_rows, sc.flow_cols))
        flow *= sc.flow_noise
        flow += 0.0  # -0.0 becomes 0.0, so the map holds no -0.0
    else:
        flow = np.zeros((sc.flow_rows, sc.flow_cols))

    shape = (sc.grid_rows, sc.grid_cols, sc.boxes_per_cell)
    conf = np.zeros(shape)
    boxes = np.zeros(shape + (4,))
    truth = []
    used = {}  # (i, j) -> slots taken in that cell
    for _ in range(count):
        u = rng.random(5 if moving else 4).tolist()
        cx, cy = 0.15 + (0.85 - 0.15) * u[0], 0.15 + (0.85 - 0.15) * u[1]
        w, h = 0.08 + (0.25 - 0.08) * u[2], 0.08 + (0.25 - 0.08) * u[3]
        motion = motion_scale * (0.5 + (1.0 - 0.5) * u[4]) if moving else motion_scale
        truth.append((cx, cy, w, h))
        if motion:  # adding a zero to a map without -0.0 changes no bit
            r0 = int((cy - h / 2) * sc.flow_rows)
            r1 = int((cy + h / 2) * sc.flow_rows)
            c0 = int((cx - w / 2) * sc.flow_cols)
            c1 = int((cx + w / 2) * sc.flow_cols)
            flow[r0:r1 if r1 > r0 else r0 + 1, c0:c1 if c1 > c0 else c0 + 1] += motion
        i = int(cy * sc.grid_rows)
        j = int(cx * sc.grid_cols)
        k = used.get((i, j), 0)
        if k >= sc.boxes_per_cell:
            continue  # cell saturated; object stays in the ground truth only
        used[i, j] = k + 1
        miss, c = rng.random(2).tolist()
        lo, hi = sc.recoverable_conf if miss < sc.miss_prob else sc.detected_conf
        conf[i, j, k] = lo + (hi - lo) * c
        boxes[i, j, k] = (cx, cy, w, h)
    for _ in range(rng.poisson(sc.false_positive_rate)):
        i = int(rng.integers(sc.grid_rows))
        j = int(rng.integers(sc.grid_cols))
        k = used.get((i, j), 0)
        if k >= sc.boxes_per_cell:
            continue
        used[i, j] = k + 1
        conf[i, j, k] = rng.uniform(*sc.false_conf)
        boxes[i, j, k] = (
            (j + 0.5) / sc.grid_cols,
            (i + 0.5) / sc.grid_rows,
            rng.uniform(0.05, 0.15),
            rng.uniform(0.05, 0.15),
        )
    # every confidence is drawn from a checked range and every size is
    # positive, so the grid needs no re-validation
    grid = ConfidenceGrid._unchecked(conf, boxes)
    return FrameObservation(t, regime, truth, flow, grid)


class FrameGenerator:
    """Advances the regime chain and yields frames from a private RNG."""

    def __init__(self, scenario, seed=None):
        self.scenario = scenario
        self.rng = np.random.default_rng(scenario.seed if seed is None else seed)
        self.regime = DRIVING if scenario.start_driving else STATIONARY

    def next(self, t):
        sc = self.scenario
        stay = sc.p_stay_driving if self.regime == DRIVING else sc.p_stay_stationary
        if self.rng.random() >= stay:
            self.regime = STATIONARY if self.regime == DRIVING else DRIVING
        return generate_frame(sc, self.rng, t, self.regime)


def h_detections(frames, scenario):
    """H's post-NMS detections on each frame of a block.

    A frame whose grid holds no positive confidence (grids lie in [0, 1])
    gets [] and its map is never read: every threshold is positive (c_th >
    0, and the flow-lowered ones are at least c_th/(1+e^2)).  The other
    frames' 2-D maps of one shape share one flowmap.process call, and each
    field has its own; one threshold_detections call then takes all of
    their grids and rows, and NMS runs once per frame.
    """
    sc = scenario
    order = [i for i, frame in enumerate(frames) if np.count_nonzero(frame.grid.conf)]
    dets = [[] for _ in frames]
    if not order:
        return dets
    groups = {}  # a map shape, or a field's frame index -> positions in order
    for n, i in enumerate(order):
        flow = frames[i].flow
        groups.setdefault(flow.shape if flow.ndim == 2 else i, []).append(n)
    rows = np.empty((len(order), sc.grid_rows * sc.grid_cols * sc.boxes_per_cell))
    for key, at in groups.items():
        maps = [frames[order[n]].flow for n in at]
        rows[at] = flowmap.process(maps if isinstance(key, tuple) else maps[0], sc.grid_rows,
                                   sc.grid_cols, sc.boxes_per_cell, sc.c_th).reshape(len(at), -1)
    found = threshold_detections([frames[i].grid for i in order], rows)
    for i, admitted in zip(order, found):
        dets[i] = nms(admitted, sc.nms_iou)
    return dets


def emulate_detector(frame, alpha, scenario, dets_h):
    """Run one detector variant on a frame, given H's post-NMS detections
    dets_h on it from h_detections.

    H returns dets_h; T returns those with confidence above c_th, which are
    exactly T's own post-NMS detections.  Every H threshold is at most c_th,
    so T admits exactly the entries H admits above c_th; in a cell where T
    admits any, H keeps the same best entry, ties included; and greedy NMS
    visits all of those before any H-only detection, whose confidence is
    at most c_th, so it keeps the same ones.  Latency is base plus a
    per-object term on the frame's true object count.

    Returns (post-NMS detections, detected count, seconds per cycle).
    """
    sc = scenario
    if alpha is ModelChoice.H:
        dets, base, per_obj = dets_h, sc.base_latency_h, sc.per_object_latency_h
    else:
        dets = [d for d in dets_h if d.confidence > sc.c_th]
        base, per_obj = sc.base_latency_t, sc.per_object_latency_t
    return dets, len(dets), base + per_obj * frame.num_objects


@dataclass(eq=False)
class SimResult:
    """A run as columns: row t is step t.  q is the backlog after the step;
    flops is the policy's constant cost per decision."""

    scenario: ScenarioConfig
    flops: int
    alpha: list  # ModelChoice per step
    q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    perf: np.ndarray
    p: np.ndarray
    tpr: np.ndarray
    recall: np.ndarray

    def __len__(self):
        return len(self.alpha)


def step(q, prev, frame, dets_h, policy, scenario, cfg, rng, collect=None):
    """Advance the queue one step under the policy's decision on this frame.

    q is the backlog before it, prev the previous step's (a, b, perf) and
    dets_h H's detections on the frame.  Returns the step's row (alpha, q after,
    a, b, perf, p, tpr, recall); tpr and recall are NaN when unlabeled.  The
    REINFORCE state is built once, if a REINFORCE policy or collect reads it.
    """
    sc = scenario
    dets_h, num_h, p_h = emulate_detector(frame, ModelChoice.H, sc, dets_h)
    dets_t, num_t, p_t = emulate_detector(frame, ModelChoice.T, sc, dets_h)
    obs = StepObservation(num_h, num_t, p_h, p_t, sc.couple_arrival)
    reinforce = collect is not None or isinstance(policy, ReinforcePolicy)
    state = make_policy_state(q, prev, cfg) if reinforce else None
    alpha = policy.decide(q, state, obs, cfg, rng)

    dets = dets_h if alpha is ModelChoice.H else dets_t
    p = obs.latency(alpha)
    a = arrival(cfg.w_fps, p if sc.couple_arrival else p_t)
    b = service(alpha, cfg)
    perf = performance(alpha, num_h, num_t, cfg)
    if frame.declared_objects is not None and not frame.truth_boxes:
        # an unlabeled trace frame: a count but no boxes to score against
        tpr = recall = float("nan")
    else:
        metrics = score_against_truth(dets, frame.truth_boxes, sc.match_iou)
        tpr = metrics.true_positive_rate
        recall = metrics.correctly_detected / frame.num_objects if frame.num_objects else 1.0
    if collect is not None:
        # the plain DPP score V*P + Q*b, without the coupled rule's -Q*a term
        collect.append((state, alpha, cfg.v * perf + q * b))
    return alpha, queue_update(q, a, b), a, b, perf, p, tpr, recall


def check_frames(frames, scenario):
    """Raise ValueError unless every frame's grid has the scenario's shape;
    checked up front because empty frames skip thresholding."""
    shape = (scenario.grid_rows, scenario.grid_cols, scenario.boxes_per_cell)
    for frame in frames:
        if frame.grid.shape != shape:
            raise ValueError(
                f"frame {frame.t}: grid shape {frame.grid.shape} does not match "
                f"the scenario's {shape}"
            )


def run(scenario, policy, cfg=None, frames=None, seed=None, collect=None):
    """Run a full simulation; deterministic given (scenario, policy, seed).

    frames may supply pre-generated or trace-loaded FrameObservations in
    place of the generator; all of them run, in place of scenario.horizon
    steps, and must pass check_frames.  Each block of BLOCK_FRAMES is
    generated, in stream order, or taken before its first step."""
    cfg = cfg or ControllerConfig()
    if frames is not None:
        check_frames(frames, scenario)
    horizon = scenario.horizon if frames is None else len(frames)
    base_seed = scenario.seed if seed is None else seed
    seed_seq = list(base_seed) if isinstance(base_seed, (tuple, list)) else [base_seed]
    gen = FrameGenerator(scenario, seed=seed_seq)
    policy_rng = np.random.default_rng(seed_seq + [0x9E3779B9])
    rows = []
    q, prev = 0.0, (0.0, 0.0, 0.0)
    for start in range(0, horizon, BLOCK_FRAMES):
        times = range(start, min(start + BLOCK_FRAMES, horizon))
        block = [gen.next(t) for t in times] if frames is None else frames[start:times.stop]
        for frame, dets_h in zip(block, h_detections(block, scenario)):
            row = step(q, prev, frame, dets_h, policy, scenario, cfg, policy_rng, collect)
            rows.append(row)
            q, prev = row[1], row[2:5]
    # one contiguous float64 row per column: (q, a, b, perf, p, tpr, recall)
    columns = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 7).T.copy()
    return SimResult(scenario, policy.flops_per_decision(), [row[0] for row in rows], *columns)


@dataclass(frozen=True)
class Summary:
    steps: int
    avg_q: float
    avg_tpr: float
    avg_accuracy: float
    mean_drift: float  # mean of a - b, the unclamped queue slope
    decision_mix: dict
    total_flops: int
    overflow: bool


def summarize(result):
    """Aggregate a run; recomputable from its columns.  avg_tpr and
    avg_accuracy are NaN when the run replayed unlabeled trace frames."""
    if not len(result):
        raise ValueError("cannot summarize an empty result")
    h = result.alpha.count(ModelChoice.H)
    return Summary(
        steps=len(result),
        avg_q=float(np.mean(result.q)),
        avg_tpr=float(np.mean(result.tpr)),
        avg_accuracy=float(np.mean(result.recall)),
        mean_drift=float(np.mean(result.a - result.b)),
        decision_mix={"H": h, "T": len(result) - h},
        total_flops=result.flops * len(result),
        overflow=bool((result.q > result.scenario.overflow_cap).any()),
    )


def benchmark_config(seed=0, horizon=3000):
    """Desk-scale stability benchmark: CPU latency profile, stationary-heavy
    regime mix, and empty-frame score ties resolved toward the fast model so
    the controller drains the queue when nothing is detected.

    Returns (ScenarioConfig, ControllerConfig).
    """
    return (
        ScenarioConfig(seed=seed, horizon=horizon),
        ControllerConfig(tie_break=ModelChoice.T),
    )


def train_reinforce(scenario, cfg=None, episodes=200, episode_len=None, seed=0,
                    lr=LEARNING_RATE, gamma=DISCOUNT, policy=None):
    """Train a REINFORCE policy by running whole-episode simulations.

    Each episode is one fixed-horizon run; the per-step reward is the plain
    DPP score V*P + Q*b of the chosen action (see step).  Returns (policy,
    episode reward list).
    """
    cfg = cfg or ControllerConfig()
    if episode_len is not None:
        scenario = replace(scenario, horizon=episode_len)
    if policy is None:
        policy = ReinforcePolicy(seed=seed)
    rewards = []
    for ep in range(episodes):
        episode = []
        run(scenario, policy, cfg=cfg, seed=(seed, ep), collect=episode)
        rewards.append(sum(r for (_, _, r) in episode))
        policy.update(episode, lr=lr, gamma=gamma)
    return policy, rewards
