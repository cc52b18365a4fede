"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them on
success).  The simulation-heavy criteria share one set of benchmark runs via a
session fixture.
"""

import math
import time

import numpy as np
import pytest

from flowdpp import fileio, flowmap, sim
from flowdpp.cli import main
from flowdpp.controller import (
    ACTIONS,
    ControllerConfig,
    ModelChoice,
    StepObservation,
    dpp_flops,
    dpp_score,
    dpp_select,
    queue_update,
)
from flowdpp.detection import (
    Detection,
    iou,
    nms,
    score_against_truth,
    threshold_detections,
)
from flowdpp.policies import (
    AlwaysPolicy,
    PolicyKind,
    UniformRandomPolicy,
    init_mlp,
    make_policy,
    policy_gradient,
    reinforce_flops,
)
from oracles import drift_bound_check, objective_oracle, trajectory


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


BENCH_SEEDS = range(5)


@pytest.fixture(scope="session")
def benchmark_runs():
    """5-seed, 3,000-step runs of DPP / always-plain / always-hybrid on the
    CPU latency profile; reused by the stability, queue-law, and drift
    criteria."""
    runs = {"dpp": [], "comp1": [], "comp2": []}
    started = time.perf_counter()
    for seed in BENCH_SEEDS:
        scenario, cfg = sim.benchmark_config(seed=seed)
        policies = {
            "dpp": make_policy(PolicyKind.DPP),
            "comp1": AlwaysPolicy(ModelChoice.T),
            "comp2": AlwaysPolicy(ModelChoice.H),
        }
        for label, policy in policies.items():
            runs[label].append(sim.run(scenario, policy, cfg=cfg))
    elapsed = time.perf_counter() - started
    return runs, elapsed


@pytest.fixture(scope="session")
def extra_runs():
    """Additional trajectories so the drift-bound criterion covers at least
    100,000 simulated steps in total."""
    runs = []
    for seed in range(5, 24):
        scenario, cfg = sim.benchmark_config(seed=seed)
        policy = AlwaysPolicy(ModelChoice.T if seed % 2 else ModelChoice.H)
        runs.append(sim.run(scenario, policy, cfg=cfg))
    return runs


def _time_process(arr, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        flowmap.process(arr, 8, 8, 2, 0.5)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_threshold_pipeline():
    checks = []

    got = flowmap.process([[1, 3], [5, 7]], 2, 2, 1, 0.5)
    expected = [0.064766, 0.094068, 0.094068, 0.064766]
    checks.append(np.allclose(got, expected, atol=1e-5))

    rng = np.random.default_rng(0)
    lo, hi = 0.5 / (1 + math.e**2), 0.5 / 2
    for _ in range(1000):
        # dyadic entries keep the translation-invariance comparison exact
        arr = rng.integers(-2000, 2000, size=(8, 8)) / 16.0
        out = flowmap.process(arr, 8, 8, 2, 0.5)
        if not (out.min() >= lo - 1e-12 and out.max() <= hi + 1e-12):
            checks.append(False)
            break
        # monotone: larger centered deviation never raises the threshold
        dev = np.abs(arr - np.median(arr)).ravel()
        plane = out[:64]
        order = np.argsort(dev, kind="stable")
        if not np.all(np.diff(plane[order]) <= 1e-12):
            checks.append(False)
            break
        # translation invariance and replication
        if not np.array_equal(out, flowmap.process(arr + 17.25, 8, 8, 2, 0.5)):
            checks.append(False)
            break
        if not np.array_equal(out[:64], out[64:]):
            checks.append(False)
            break
    else:
        checks.append(True)

    # runtime: < 1 ms on a 64x64 map (after a warmup call)
    _time_process(np.random.default_rng(1).normal(size=(64, 64)), 2)
    best = _time_process(np.random.default_rng(1).normal(size=(64, 64)), 20)
    checks.append(best < 1e-3)

    # linear scaling in pixel count across widths 64..1024: every measured
    # time within 2x of a least-squares line (fixed overhead + per-pixel cost)
    widths = [64, 128, 256, 512, 1024]
    times = [
        _time_process(np.random.default_rng(w).normal(size=(64, w)), 9)
        for w in widths
    ]
    n = np.array(widths, dtype=float) * 64
    t = np.array(times)
    slope, intercept = np.polyfit(n, t, 1)
    fit = np.maximum(slope * n + intercept, 1e-12)
    linear_ok = bool(slope > 0 and np.all((t >= 0.5 * fit) & (t <= 2.0 * fit)))
    checks.append(linear_ok)

    report(
        1,
        "flow-map threshold pipeline",
        all(checks),
        f"64x64 in {best * 1e6:.0f} us, scaling ok={linear_ok}",
    )


def test_criterion_2_queue_law(benchmark_runs):
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(10_000):
        q, a, b = rng.uniform(0, 1000, 3)
        if queue_update(q, a, b) != max(q + a - b, 0.0):
            ok = False
            break
    runs, _ = benchmark_runs
    never_negative = all(
        bool(np.all(result.q >= 0.0))
        for results in runs.values()
        for result in results
    )
    report(2, "queue update law", ok and never_negative)


def test_criterion_3_selection_rule():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(10_000):
        cfg = ControllerConfig(
            v=rng.uniform(1, 200),
            w1=rng.uniform(0.1, 10),
            w2=rng.uniform(0.1, 10),
            w_p=rng.uniform(0.5, 2.0),
        )
        obs = StepObservation(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
        q = rng.uniform(0, 1e4)
        scores = {a: dpp_score(a, q, obs, cfg) for a in ACTIONS}
        best = max(scores.values())
        winners = [a for a in ACTIONS if scores[a] == best]
        got = dpp_select(q, obs, cfg)
        expected = winners[0] if len(winners) == 1 else cfg.tie_break
        if got is not expected:
            ok = False
            break

    cfg = ControllerConfig()
    # Q = 0 maximizes performance alone
    q0_ok = (
        dpp_select(0.0, StepObservation(3, 2), cfg) is ModelChoice.H
        and dpp_select(0.0, StepObservation(1, 4), cfg) is ModelChoice.T
    )
    # huge Q maximizes the service weight (w1 > w2 -> H)
    large_q_ok = dpp_select(1e12, StepObservation(0, 50), cfg) is ModelChoice.H

    sweep_ok = True
    for _ in range(200):
        obs = StepObservation(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
        decisions = [dpp_select(float(q), obs, cfg) for q in np.linspace(0, 1e4, 400)]
        if sum(1 for x, y in zip(decisions, decisions[1:]) if x is not y) > 1:
            sweep_ok = False
            break

    report(3, "drift-plus-penalty argmax", ok and q0_ok and large_q_ok and sweep_ok)


def test_criterion_4_drift_bound(benchmark_runs, extra_runs):
    runs, _ = benchmark_runs
    trajectories = [trajectory(r) for results in runs.values() for r in results]
    trajectories += [trajectory(r) for r in extra_runs]
    total = sum(len(t) for t in trajectories)
    violations = sum(len(drift_bound_check(t).violations) for t in trajectories)
    report(
        4,
        "Lyapunov drift bound",
        total >= 100_000 and violations == 0,
        f"{total} steps, {violations} violations",
    )


def test_criterion_5_stability_dichotomy(benchmark_runs):
    runs, elapsed = benchmark_runs
    summaries = {k: [sim.summarize(r) for r in v] for k, v in runs.items()}
    comp2_overflow = all(s.overflow for s in summaries["comp2"])
    comp2_drift = all(abs(s.mean_drift - 0.35) <= 0.035 for s in summaries["comp2"])
    comp1_bounded = all(not s.overflow for s in summaries["comp1"])
    comp1_drift = all(abs(s.mean_drift + 0.40) <= 0.040 for s in summaries["comp1"])
    dpp_bounded = all(not s.overflow for s in summaries["dpp"])
    dpp_accuracy = all(
        d.avg_accuracy >= c.avg_accuracy
        for d, c in zip(summaries["dpp"], summaries["comp1"])
    )
    fast_enough = elapsed < 30.0
    detail = (
        f"comp2 drift {np.mean([s.mean_drift for s in summaries['comp2']]):+.3f}, "
        f"comp1 drift {np.mean([s.mean_drift for s in summaries['comp1']]):+.3f}, "
        f"dpp avg_q {np.mean([s.avg_q for s in summaries['dpp']]):.2f}, "
        f"{elapsed:.1f}s"
    )
    report(
        5,
        "queue stability dichotomy (5 seeds)",
        comp2_overflow and comp2_drift and comp1_bounded and comp1_drift
        and dpp_bounded and dpp_accuracy and fast_enough,
        detail,
    )


# Per-decision costs reported for the original system: the selection rule
# (counted by its own convention, so only reported here) and the policy MLP.
REFERENCE_DPP_FLOPS = 12
REFERENCE_REINFORCE_FLOPS = 35_582


def test_criterion_6_flop_accounting():
    selection = dpp_flops()
    constant_in_q = dpp_flops() == dpp_flops()  # no queue argument by design
    mlp = reinforce_flops(init_mlp(np.random.default_rng(0)))
    within = abs(mlp - REFERENCE_REINFORCE_FLOPS) / REFERENCE_REINFORCE_FLOPS <= 0.02
    report(
        6,
        "decision FLOP accounting",
        selection <= 20 and constant_in_q and within,
        f"selection {selection} (reference {REFERENCE_DPP_FLOPS}), "
        f"policy net {mlp} (reference {REFERENCE_REINFORCE_FLOPS})",
    )


def training_scenario(horizon=40):
    """Stationary-only scene with many hard-to-detect objects: choosing H is
    clearly better, so a trainable policy must learn to prefer it."""
    return sim.ScenarioConfig(
        horizon=horizon,
        start_driving=False,
        p_stay_stationary=1.0,
        p_stay_driving=0.0,
        mean_objects_stationary=2.5,
        miss_prob=0.7,
        false_positive_rate=0.0,
    )


def eval_mean_reward(scenario, cfg, policy, seeds):
    totals = []
    for s in seeds:
        episode = []
        sim.run(scenario, policy, cfg=cfg, seed=(10_000, s), collect=episode)
        totals.append(sum(r for (_, _, r) in episode))
    return float(np.mean(totals))


def test_criterion_7_reinforce():
    # analytic gradient vs central finite differences, 20 coordinates/layer
    rng = np.random.default_rng(7)
    params = init_mlp(rng)
    episode = []
    for _ in range(5):
        state = rng.uniform(-1, 1, size=10)
        action = ModelChoice.H if rng.random() < 0.5 else ModelChoice.T
        episode.append((state, action, rng.normal()))
    grads = policy_gradient(params, episode)
    h = 1e-5
    grad_ok = True
    for layer, (arr, grad) in enumerate(zip(params.arrays(), grads)):
        for fi in rng.choice(arr.size, size=min(20, arr.size), replace=False):
            idx = np.unravel_index(fi, arr.shape)
            bumped = params.copy()
            bumped.arrays()[layer][idx] += h
            plus = objective_oracle(bumped, episode)
            bumped.arrays()[layer][idx] -= 2 * h
            minus = objective_oracle(bumped, episode)
            fd = (plus - minus) / (2 * h)
            scale = max(abs(fd), abs(grad[idx]), 1e-8)
            if abs(fd - grad[idx]) / scale >= 1e-4:
                grad_ok = False

    # training beats the uniform-random policy in 3/3 seeds
    scenario = training_scenario()
    cfg = ControllerConfig()
    wins = []
    margins = []
    for seed in range(3):
        policy, _ = sim.train_reinforce(scenario, cfg=cfg, episodes=200, seed=seed)
        trained = eval_mean_reward(scenario, cfg, policy, range(100))
        uniform = eval_mean_reward(scenario, cfg, UniformRandomPolicy(), range(100))
        wins.append(trained > uniform)
        margins.append(trained - uniform)
    report(
        7,
        "policy-gradient learning",
        grad_ok and all(wins),
        f"gradients ok={grad_ok}, wins {sum(wins)}/3, "
        f"mean margin {np.mean(margins):+.0f}",
    )


def test_criterion_8_detection_layer():
    rng = np.random.default_rng(8)
    nms_ok = True
    for _ in range(1000):
        count = int(rng.integers(0, 7))
        dets = [
            Detection(0, i, 0, float(rng.random()), tuple(rng.uniform(0.05, 0.5, 4)))
            for i in range(count)
        ]
        thr = float(rng.random())
        kept = nms(dets, thr)
        if nms(kept, thr) != kept:
            nms_ok = False
            break
        if any(
            iou(a.box, b.box) > thr
            for i, a in enumerate(kept)
            for b in kept[i + 1:]
        ):
            nms_ok = False
            break
        # brute-force greedy oracle
        oracle = []
        for d in sorted(dets, key=lambda d: (-d.confidence, d.index)):
            if all(iou(d.box, k.box) <= thr for k in oracle):
                oracle.append(d)
        if kept != oracle:
            nms_ok = False
            break

    # pre-NMS superset: lowered per-cell thresholds always sit below the
    # scalar cutoff, so every plain-detector admission survives
    superset_ok = True
    scenario = sim.ScenarioConfig()
    frame_rng = np.random.default_rng(88)
    for i in range(200):
        regime = sim.DRIVING if i % 2 else sim.STATIONARY
        frame = sim.generate_frame(scenario, frame_rng, i, regime)
        lowered = flowmap.process(
            frame.flow, scenario.grid_rows, scenario.grid_cols,
            scenario.boxes_per_cell, scenario.c_th,
        )
        if not np.all(lowered < scenario.c_th):
            superset_ok = False
            break
        cells_h = {
            (d.row, d.col) for d in threshold_detections(frame.grid, lowered)
        }
        if any(
            (d.row, d.col) not in cells_h
            for d in threshold_detections(frame.grid, scenario.c_th)
        ):
            superset_ok = False
            break

    identity_ok = True
    for _ in range(500):
        dets = [
            Detection(0, i, 0, float(rng.random()), tuple(rng.uniform(0.05, 0.6, 4)))
            for i in range(int(rng.integers(0, 6)))
        ]
        truth = [tuple(rng.uniform(0.05, 0.6, 4)) for _ in range(int(rng.integers(0, 5)))]
        m = score_against_truth(dets, truth, 0.5)
        if m.correctly_detected + m.falsely_detected + m.overlapped_detected != m.total_detected:
            identity_ok = False
            break

    report(
        8,
        "detection layer invariants",
        nms_ok and superset_ok and identity_ok,
        f"nms ok={nms_ok}, superset ok={superset_ok}, identity ok={identity_ok}",
    )


def test_criterion_9_round_trip_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(9)
    flow = rng.standard_normal((13, 17, 2)).astype(np.float32)
    flo_path = tmp_path / "field.flo"
    fileio.write_flo(flo_path, flow)
    back = fileio.read_flo(flo_path)
    fileio.write_flo(tmp_path / "copy.flo", back)
    flo_ok = (
        np.array_equal(back, flow)
        and (tmp_path / "copy.flo").read_bytes() == flo_path.read_bytes()
    )

    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[run]\nreinforce_train_episodes = 3\nreinforce_episode_len = 8\n\n"
        "[scenario]\nhorizon = 40\nseed = 11\nflow_rows = 16\nflow_cols = 16\n"
        "grid_rows = 4\ngrid_cols = 4\n\n[controller]\ntie_break = T\n"
    )
    outputs = []
    names = ["timeseries.csv", "summary.csv", "queue_backlog.dat", "accuracy.dat"]
    for run_dir in ("one", "two"):
        out_dir = tmp_path / run_dir
        assert main(["compare", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        outputs.append({name: (out_dir / name).read_bytes() for name in names})
    capsys.readouterr()
    cli_ok = outputs[0] == outputs[1]
    report(
        9,
        "file round-trips and CLI determinism",
        flo_ok and cli_ok,
        f"flo ok={flo_ok}, byte-identical reruns={cli_ok}",
    )
