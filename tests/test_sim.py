import configparser
import dataclasses

import numpy as np
import pytest

from flowdpp import cli, fileio, policies, sim
from flowdpp.config import ConfigError, load_config, parse_config
from flowdpp.controller import (
    ControllerConfig,
    ModelChoice,
    StepObservation,
    arrival,
    dpp_score,
    dpp_select,
    performance,
    queue_update,
    service,
)
from flowdpp.detection import ConfidenceGrid, nms, score_against_truth, threshold_detections
from flowdpp.policies import (
    AlwaysPolicy,
    DppPolicy,
    PolicyKind,
    ReinforcePolicy,
    UniformRandomPolicy,
    make_policy,
)
from flowdpp import flowmap
from oracles import drift_bound_check, q_before, trajectory


def tiny_scenario(**overrides):
    defaults = dict(horizon=60, flow_rows=16, flow_cols=16, grid_rows=4, grid_cols=4)
    defaults.update(overrides)
    return sim.ScenarioConfig(**defaults)


RESULT_COLUMNS = ("q", "a", "b", "perf", "p", "tpr", "recall")


def assert_same_run(x, y):
    """Two SimResults agree on every decision and, exactly, on every column."""
    assert x.alpha == y.alpha
    assert x.flops == y.flops
    for name in RESULT_COLUMNS:
        np.testing.assert_array_equal(getattr(x, name), getattr(y, name), strict=True)


@pytest.fixture
def consumed(monkeypatch):
    """The frames sim.run generates, appended in the order it consumes them."""
    frames = []
    next_frame = sim.FrameGenerator.next
    monkeypatch.setattr(
        sim.FrameGenerator, "next", lambda gen, t: frames.append(next_frame(gen, t)) or frames[-1]
    )
    return frames


def h_dets(frame, sc):
    """H's detections sim.run passes with this frame, from a block of one."""
    (dets,) = sim.h_detections([frame], sc)
    return dets


def frame_observation(frame, sc, coupled_arrival=False):
    """The StepObservation that sim.step scores on this frame."""
    _, num_h, p_h = sim.emulate_detector(frame, ModelChoice.H, sc, h_dets(frame, sc))
    _, num_t, p_t = sim.emulate_detector(frame, ModelChoice.T, sc, h_dets(frame, sc))
    return StepObservation(num_h, num_t, p_h, p_t, coupled_arrival)


def reference_frame(scenario, rng, t, regime):
    """generate_frame as first written, with five scalar draws per object:
    an oracle for the frame and for the generator state it leaves."""
    sc = scenario
    moving = regime == sim.DRIVING
    mean = sc.mean_objects_driving if moving else sc.mean_objects_stationary
    count = int(rng.poisson(mean))
    motion_scale = sc.object_motion_driving if moving else sc.object_motion_stationary

    flow = np.zeros((sc.flow_rows, sc.flow_cols))
    if sc.flow_noise > 0.0:
        flow += sc.flow_noise * rng.standard_normal(flow.shape)

    conf = np.zeros((sc.grid_rows, sc.grid_cols, sc.boxes_per_cell))
    boxes = np.zeros(conf.shape + (4,))  # unused slots keep an all-zero box
    truth = []
    used = np.zeros((sc.grid_rows, sc.grid_cols), dtype=int)
    for _ in range(count):
        cx, cy = rng.uniform(0.15, 0.85, size=2).tolist()
        w, h = rng.uniform(0.08, 0.25, size=2).tolist()
        motion = motion_scale * rng.uniform(0.5, 1.0) if moving else motion_scale
        truth.append((cx, cy, w, h))
        r0 = int(min(max((cy - h / 2) * sc.flow_rows, 0), sc.flow_rows - 1))
        r1 = int(min(max((cy + h / 2) * sc.flow_rows, r0 + 1), sc.flow_rows))
        c0 = int(min(max((cx - w / 2) * sc.flow_cols, 0), sc.flow_cols - 1))
        c1 = int(min(max((cx + w / 2) * sc.flow_cols, c0 + 1), sc.flow_cols))
        flow[r0:r1, c0:c1] += motion
        i = min(int(cy * sc.grid_rows), sc.grid_rows - 1)
        j = min(int(cx * sc.grid_cols), sc.grid_cols - 1)
        k = used[i, j]
        if k >= sc.boxes_per_cell:
            continue  # cell saturated; object stays in the ground truth only
        used[i, j] += 1
        missed = rng.random() < sc.miss_prob
        lo, hi = sc.recoverable_conf if missed else sc.detected_conf
        conf[i, j, k] = rng.uniform(lo, hi)
        boxes[i, j, k] = (cx, cy, w, h)
    for _ in range(rng.poisson(sc.false_positive_rate)):
        i = rng.integers(sc.grid_rows)
        j = rng.integers(sc.grid_cols)
        k = used[i, j]
        if k >= sc.boxes_per_cell:
            continue
        used[i, j] += 1
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
    return sim.FrameObservation(t, regime, truth, flow, grid)


# Scenarios for generate_frame against reference_frame: saturated cells,
# zero and -0.0 motion on a flat map, noise that rounds to -0.0, every object
# missed or none, flow maps the grid does not divide or that are tiny, and
# the benchmark's training scene.
FRAME_ORACLE_SCENARIOS = {
    "default": sim.ScenarioConfig(),
    "benchmark": sim.benchmark_config()[0],
    "saturated cells": sim.ScenarioConfig(
        grid_rows=2, grid_cols=2, boxes_per_cell=1, mean_objects_driving=9.0,
        mean_objects_stationary=6.0, false_positive_rate=3.0,
    ),
    "noiseless stationary motion": sim.ScenarioConfig(
        flow_noise=0.0, object_motion_stationary=2.5, mean_objects_stationary=2.0,
    ),
    "negative zero motion": sim.ScenarioConfig(
        flow_noise=0.0, object_motion_driving=-0.0, object_motion_stationary=-0.0,
        mean_objects_stationary=2.0,
    ),
    # noise this small rounds to -0.0 wherever a normal draw is in (-0.5, 0)
    "subnormal noise": sim.ScenarioConfig(flow_noise=5e-324, mean_objects_stationary=2.0),
    "never missed": sim.ScenarioConfig(miss_prob=0.0, mean_objects_stationary=1.0),
    "always missed": sim.ScenarioConfig(miss_prob=1.0, mean_objects_stationary=1.0),
    "uneven map": sim.ScenarioConfig(
        flow_rows=9, flow_cols=13, grid_rows=3, grid_cols=5, mean_objects_driving=3.0,
    ),
    # boxes span most of a map this small, so rectangles reach its last row
    # and column and the one-pixel floor on their size takes effect
    "tiny map": sim.ScenarioConfig(
        flow_rows=1, flow_cols=2, grid_rows=1, grid_cols=2, mean_objects_driving=3.0,
        mean_objects_stationary=3.0, object_motion_stationary=1.5,
    ),
    # perfbench's reinforce_train scene (acceptance criterion 7): motionless
    # objects and no false positives, so no frame draws one
    "reinforce_train": sim.ScenarioConfig(
        start_driving=False, p_stay_stationary=1.0, p_stay_driving=0.0,
        mean_objects_stationary=2.5, miss_prob=0.7, false_positive_rate=0.0,
    ),
}


class TestGenerateFrame:
    @pytest.mark.parametrize("regime", [sim.DRIVING, sim.STATIONARY])
    @pytest.mark.parametrize("name", sorted(FRAME_ORACLE_SCENARIOS))
    def test_matches_reference_frame_and_stream(self, name, regime):
        """Same frames, bit for bit, and the same generator state after each;
        half the seeds start with a buffered 32-bit half from integers()."""
        sc = FRAME_ORACLE_SCENARIOS[name]
        objects = 0
        for seed in range(4):
            for buffered in (False, True):
                rngs = [np.random.default_rng(seed) for _ in range(2)]
                if buffered:
                    for rng in rngs:
                        rng.integers(8)
                    assert rngs[0].bit_generator.state["has_uint32"] == 1
                new_rng, ref_rng = rngs
                for t in range(40):
                    new = sim.generate_frame(sc, new_rng, t, regime)
                    ref = reference_frame(sc, ref_rng, t, regime)
                    assert new.truth_boxes == ref.truth_boxes
                    for got, want in ((new.flow, ref.flow), (new.grid.conf, ref.grid.conf),
                                      (new.grid.boxes, ref.grid.boxes)):
                        np.testing.assert_array_equal(got, want, strict=True)
                        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
                    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
                    objects += ref.num_objects
        assert objects > 0

    def test_deterministic_for_same_rng_state(self):
        sc = tiny_scenario()
        frames = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            frames.append(sim.generate_frame(sc, rng, 0, sim.DRIVING))
        a, b = frames
        assert a.truth_boxes == b.truth_boxes
        np.testing.assert_array_equal(a.flow, b.flow)
        np.testing.assert_array_equal(a.grid.conf, b.grid.conf)

    def test_stationary_noiseless_frame_is_flat(self):
        sc = tiny_scenario(flow_noise=0.0, mean_objects_stationary=0.0,
                           false_positive_rate=0.0)
        frame = sim.generate_frame(sc, np.random.default_rng(0), 0, sim.STATIONARY)
        np.testing.assert_array_equal(frame.flow, 0.0)
        assert frame.num_objects == 0
        np.testing.assert_array_equal(frame.grid.conf, 0.0)

    def test_driving_objects_leave_flow_bumps(self):
        sc = tiny_scenario(flow_noise=0.0, mean_objects_driving=3.0,
                           false_positive_rate=0.0)
        rng = np.random.default_rng(1)
        frame = sim.generate_frame(sc, rng, 0, sim.DRIVING)
        assert frame.num_objects > 0
        assert frame.flow.max() > 0.0

    def test_regime_chain_stays_when_sticky(self):
        sc = tiny_scenario(p_stay_driving=1.0, start_driving=True)
        gen = sim.FrameGenerator(sc)
        assert all(gen.next(t).regime == sim.DRIVING for t in range(20))


class TestEmulateDetector:
    def make_frame(self, seed=3, regime=sim.DRIVING, sc=None):
        sc = sc or tiny_scenario(mean_objects_driving=3.0)
        return sc, sim.generate_frame(sc, np.random.default_rng(seed), 0, regime)

    def test_latency_model(self):
        sc, frame = self.make_frame()
        _, _, p_h = sim.emulate_detector(frame, ModelChoice.H, sc, h_dets(frame, sc))
        _, _, p_t = sim.emulate_detector(frame, ModelChoice.T, sc, h_dets(frame, sc))
        n = frame.num_objects
        assert p_h == pytest.approx(sc.base_latency_h + 0.001 * n)
        assert p_t == pytest.approx(sc.base_latency_t + 0.001 * n)

    def test_pre_nms_superset(self):
        # the flow-lowered thresholds are all < c_th, so every plain-detector
        # admission also passes the lowered ones
        for seed in range(30):
            sc, frame = self.make_frame(seed)
            lowered = flowmap.process(
                frame.flow, sc.grid_rows, sc.grid_cols, sc.boxes_per_cell, sc.c_th
            )
            assert np.all(lowered < sc.c_th)
            dets_h = threshold_detections(frame.grid, lowered)
            dets_t = threshold_detections(frame.grid, sc.c_th)
            cells_h = {(d.row, d.col) for d in dets_h}
            for d in dets_t:
                assert (d.row, d.col) in cells_h

    def test_unused_slot_boxes_are_never_read(self):
        # an unused slot has conf 0, below every threshold, so its box is
        # never admitted, suppressed or scored
        sc = DIFFERENTIAL_SCENARIOS["low confidences"]
        admitted = 0
        for frame in generated_frames(sc):
            boxes = frame.grid.boxes.copy()
            boxes[frame.grid.conf == 0.0] = 1e300
            poisoned = frame._replace(grid=ConfidenceGrid(frame.grid.conf, boxes))
            for alpha in (ModelChoice.H, ModelChoice.T):
                dets = sim.emulate_detector(frame, alpha, sc, h_dets(frame, sc))
                assert sim.emulate_detector(poisoned, alpha, sc, h_dets(poisoned, sc)) == dets
                admitted += dets[1]
        assert admitted > 0

    def test_hybrid_detects_at_least_as_many_post_nms(self):
        for seed in range(30):
            sc, frame = self.make_frame(seed)
            _, num_h, _ = sim.emulate_detector(frame, ModelChoice.H, sc, h_dets(frame, sc))
            _, num_t, _ = sim.emulate_detector(frame, ModelChoice.T, sc, h_dets(frame, sc))
            assert num_h >= num_t


class TestRun:
    def test_deterministic(self):
        sc = tiny_scenario()
        results = [sim.run(sc, AlwaysPolicy(ModelChoice.T)) for _ in range(2)]
        assert_same_run(*results)

    def test_identical_frames_across_policies(self, consumed):
        # frame stream must not depend on policy decisions
        sc = tiny_scenario()
        seen = []
        for choice in (ModelChoice.T, ModelChoice.H):
            sim.run(sc, AlwaysPolicy(choice))
            seen.append([(frame.regime, frame.num_objects) for frame in consumed])
            consumed.clear()
        assert len(seen[0]) == sc.horizon
        assert seen[0] == seen[1]

    def test_frames_come_through_module_generate_frame(self, monkeypatch):
        # FrameGenerator.next looks generate_frame up as a module global, so
        # wrapping that global sees every generated frame
        calls = []
        generate_frame = sim.generate_frame
        monkeypatch.setattr(
            sim, "generate_frame", lambda *args: calls.append(args[2]) or generate_frame(*args)
        )
        sc = tiny_scenario()
        sim.run(sc, AlwaysPolicy(ModelChoice.T))
        assert calls == list(range(sc.horizon))

    def test_queue_replay_matches_recursion(self):
        sc = tiny_scenario()
        result = sim.run(sc, make_policy(PolicyKind.DPP))
        q = 0.0
        for q_start, q_after, a, b in zip(q_before(result), result.q, result.a, result.b):
            assert q_start == q
            q = queue_update(q, a, b)
            assert q_after == q
            assert q >= 0.0

    def test_drift_bound_holds(self):
        sc = tiny_scenario(horizon=200)
        for kind in (PolicyKind.DPP, PolicyKind.ALWAYS_H, PolicyKind.ALWAYS_T):
            result = sim.run(sc, make_policy(kind))
            assert drift_bound_check(trajectory(result)).ok

    def test_uncoupled_arrivals_follow_plain_detector(self, consumed):
        sc = tiny_scenario(couple_arrival=False)
        result = sim.run(sc, AlwaysPolicy(ModelChoice.H))
        cfg = ControllerConfig()
        assert len(consumed) == len(result.a) == sc.horizon
        for frame, a in zip(consumed, result.a):
            assert a == pytest.approx(cfg.w_fps * (sc.base_latency_t + 0.001 * frame.num_objects))

    def test_horizon_zero(self):
        result = sim.run(tiny_scenario(horizon=0), AlwaysPolicy(ModelChoice.T))
        assert len(result) == 0
        with pytest.raises(ValueError):
            sim.summarize(result)

    @pytest.mark.parametrize("count", [25, 90])
    def test_runs_every_supplied_frame(self, count):
        sc = tiny_scenario(horizon=60)
        frames = list(generated_frames(sc, (4,), count))
        result = sim.run(sc, AlwaysPolicy(ModelChoice.T), frames=frames)
        assert len(result) == count
        assert all(len(getattr(result, name)) == count for name in RESULT_COLUMNS)

    @pytest.mark.parametrize("couple", [True, False])
    def test_dpp_follows_scenario_coupling(self, couple):
        # DppPolicy() takes the coupling from the scenario it runs in.  A slow
        # T (30 fps x 0.085 s > w2) keeps the backlog positive under either
        # arrival law, so the two rules disagree on some steps.
        sc, cfg = sim.benchmark_config(seed=2, horizon=300)
        sc = dataclasses.replace(sc, couple_arrival=couple, base_latency_t=0.085)
        frames = list(generated_frames(sc, (2,), sc.horizon))
        result = sim.run(sc, DppPolicy(), cfg=cfg, frames=frames)
        rules_differ = False
        for frame, alpha, q in zip(frames, result.alpha, q_before(result), strict=True):
            obs = frame_observation(frame, sc, couple)
            assert alpha is dpp_select(q, obs, cfg)
            flipped = dataclasses.replace(obs, coupled_arrival=not couple)
            rules_differ |= dpp_select(q, flipped, cfg) is not alpha
        assert rules_differ

    @pytest.mark.parametrize("couple", [True, False])
    def test_reward_is_uncoupled_score(self, couple):
        sc = tiny_scenario(horizon=80, couple_arrival=couple, mean_objects_stationary=0.8)
        frames = list(generated_frames(sc, (5,), sc.horizon))
        cfg = ControllerConfig()
        episode = []
        result = sim.run(sc, UniformRandomPolicy(), cfg=cfg, frames=frames, collect=episode)
        assert len(episode) == len(frames)
        rows = zip(frames, result.alpha, q_before(result), episode, strict=True)
        prev_a = prev_b = prev_perf = 0.0
        for t, (frame, chosen, q, (state, alpha, reward)) in enumerate(rows):
            assert alpha is chosen
            assert reward == dpp_score(alpha, q, frame_observation(frame, sc), cfg)
            # the policy sees the previous step's b twice, each entry x as
            # x / (1 + |x|)
            raw = np.array([q, prev_a, prev_b, prev_b, prev_perf,
                            cfg.w1, cfg.w2, cfg.w_fps, cfg.w_p, cfg.v])
            np.testing.assert_array_equal(state, raw / (1.0 + np.abs(raw)), strict=True)
            prev_a, prev_b, prev_perf = result.a[t], result.b[t], result.perf[t]

    def test_only_reinforce_builds_a_state(self, monkeypatch):
        # DPP, the static policies and uniform never see a REINFORCE state
        def refuse(*args):
            raise RuntimeError("make_policy_state called")

        monkeypatch.setattr(policies, "make_policy_state", refuse)
        monkeypatch.setattr(sim, "make_policy_state", refuse)
        sc = tiny_scenario()
        for policy in (DppPolicy(), AlwaysPolicy(ModelChoice.H), AlwaysPolicy(ModelChoice.T),
                       UniformRandomPolicy()):
            assert len(sim.run(sc, policy)) == sc.horizon
        with pytest.raises(RuntimeError, match="make_policy_state"):
            sim.run(sc, ReinforcePolicy())
        with pytest.raises(RuntimeError, match="make_policy_state"):
            sim.run(sc, DppPolicy(), collect=[])

    def test_reinforce_builds_one_state_per_step(self, monkeypatch):
        # decide and the collect list read the same array
        build, built = policies.make_policy_state, []

        def counting(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(sim, "make_policy_state", counting)
        monkeypatch.setattr(policies, "make_policy_state", counting)
        sc = tiny_scenario()
        episode = []
        sim.run(sc, ReinforcePolicy(), collect=episode)
        assert len(built) == len(episode) == sc.horizon
        assert all(state is made for (state, _, _), made in zip(episode, built))

    def test_seed_changes_frames(self, consumed):
        sc = tiny_scenario()
        counts = []
        for seed in (0, 1):
            sim.run(sc, AlwaysPolicy(ModelChoice.T), seed=seed)
            counts.append([frame.num_objects for frame in consumed])
            consumed.clear()
        assert counts[0] != counts[1]

    @pytest.mark.parametrize("couple", [True, False])
    @pytest.mark.parametrize("name", ["dpp", "always H", "always T", "uniform"])
    def test_every_column_recomputed_from_its_frame(self, name, couple):
        sc = tiny_scenario(horizon=120, couple_arrival=couple, mean_objects_stationary=0.8,
                           miss_prob=0.5)
        cfg = ControllerConfig(tie_break=ModelChoice.T)
        frames = list(generated_frames(sc, (8,), sc.horizon))
        policy = {
            "dpp": DppPolicy(),
            "always H": AlwaysPolicy(ModelChoice.H),
            "always T": AlwaysPolicy(ModelChoice.T),
            "uniform": UniformRandomPolicy(),
        }[name]
        result = sim.run(sc, policy, cfg=cfg, frames=frames)
        assert len(result) == len(frames)
        assert result.flops == policy.flops_per_decision()
        q = 0.0
        for t, frame in enumerate(frames):
            alpha = result.alpha[t]
            obs = frame_observation(frame, sc, couple)
            if name == "dpp":
                assert alpha is dpp_select(q, obs, cfg)
            elif name != "uniform":
                assert alpha is policy.choice
            dets, _, p = sim.emulate_detector(frame, alpha, sc, h_dets(frame, sc))
            _, _, p_t = sim.emulate_detector(frame, ModelChoice.T, sc, h_dets(frame, sc))
            a = arrival(cfg.w_fps, p if couple else p_t)
            b = service(alpha, cfg)
            metrics = score_against_truth(dets, frame.truth_boxes, sc.match_iou)
            n = frame.num_objects
            q = queue_update(q, a, b)
            expected = (q, a, b, performance(alpha, obs.num_h, obs.num_t, cfg), p,
                        metrics.true_positive_rate,
                        metrics.correctly_detected / n if n else 1.0)
            assert tuple(getattr(result, name)[t] for name in RESULT_COLUMNS) == expected
        # the scene is not trivial: detection quality varies from step to step
        assert len(set(result.tpr.tolist())) > 1 and len(set(result.recall.tolist())) > 1


class TestSummarize:
    def test_recomputable_aggregates(self):
        sc = tiny_scenario(horizon=100)
        result = sim.run(sc, AlwaysPolicy(ModelChoice.H))
        s = sim.summarize(result)
        assert s.steps == 100
        assert s.avg_q == pytest.approx(np.mean(result.q))
        assert s.mean_drift == pytest.approx(np.mean([a - b for a, b in zip(result.a, result.b)]))
        assert s.avg_accuracy == pytest.approx(np.mean(result.recall))
        assert s.decision_mix == {"H": 100, "T": 0}
        assert s.total_flops == 0
        assert s.overflow == any(q > sc.overflow_cap for q in result.q)
        dpp = sim.run(sc, DppPolicy())
        assert sim.summarize(dpp).total_flops == 100 * dpp.flops > 0

    def test_always_hybrid_drift_positive_on_cpu_profile(self):
        sc, cfg = sim.benchmark_config(seed=0, horizon=400)
        s = sim.summarize(sim.run(sc, AlwaysPolicy(ModelChoice.H), cfg=cfg))
        assert s.mean_drift > 0.3

    def test_always_plain_drift_negative_on_cpu_profile(self):
        sc, cfg = sim.benchmark_config(seed=0, horizon=400)
        s = sim.summarize(sim.run(sc, AlwaysPolicy(ModelChoice.T), cfg=cfg))
        assert s.mean_drift < -0.3


class TestTrainReinforce:
    def test_training_is_deterministic(self):
        sc = tiny_scenario(horizon=10)
        runs = []
        for _ in range(2):
            policy, rewards = sim.train_reinforce(sc, episodes=3, seed=7)
            runs.append((rewards, [a.copy() for a in policy.params.arrays()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_scenario_seed_is_not_read(self):
        # every episode is seeded with (seed, ep), never with scenario.seed
        runs = []
        for scenario_seed in (0, 12345):
            sc = tiny_scenario(horizon=10, seed=scenario_seed)
            policy, rewards = sim.train_reinforce(sc, episodes=3, seed=7)
            runs.append((rewards, policy.params.arrays()))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b, strict=True)

    def test_episode_len_override(self):
        sc = tiny_scenario(horizon=50)
        episode = []
        sim.run(dataclasses.replace(sc, horizon=8), UniformRandomPolicy(),
                collect=episode)
        assert len(episode) == 8


def full_detector(frame, alpha, scenario, dets_h):
    """emulate_detector without the empty-grid shortcut or the shared H pass:
    always threshold and suppress, with flow-lowered thresholds for H and
    c_th for T.  It does not read dets_h: H thresholds this frame's own map,
    one call per frame."""
    sc = scenario
    if alpha is ModelChoice.H:
        thresholds = flowmap.process(
            frame.flow, sc.grid_rows, sc.grid_cols, sc.boxes_per_cell, sc.c_th
        )
        base, per_obj = sc.base_latency_h, sc.per_object_latency_h
    else:
        thresholds = sc.c_th
        base, per_obj = sc.base_latency_t, sc.per_object_latency_t
    dets = nms(threshold_detections(frame.grid, thresholds), sc.nms_iou)
    return dets, len(dets), base + per_obj * frame.num_objects


# Scenarios whose confidences fall on both sides of the flow-lowered
# thresholds (at least c_th / (1 + e^2), about 0.06 for c_th = 0.5), so the
# two paths differ in what they admit, not only in empty frames.
DIFFERENTIAL_SCENARIOS = {
    "tiny": tiny_scenario(),
    "benchmark": sim.benchmark_config(seed=4, horizon=150)[0],
    "low confidences": tiny_scenario(
        mean_objects_driving=3.0, mean_objects_stationary=0.5, miss_prob=0.7,
        recoverable_conf=(0.0, 0.2), false_positive_rate=1.0, false_conf=(0.0, 0.1),
    ),
    "strict": tiny_scenario(
        c_th=1.0, boxes_per_cell=1, nms_iou=0.0, detected_conf=(0.9, 1.0),
        flow_rows=9, flow_cols=13, grid_rows=3, grid_cols=5,
    ),
}


def generated_frames(sc, seeds=(0, 1, 2), steps=60):
    for seed in seeds:
        gen = sim.FrameGenerator(sc, seed=seed)
        yield from (gen.next(t) for t in range(steps))


class TestEmptyGridShortcut:
    """h_detections skips the flow map, thresholding and NMS on frames whose
    grid has no positive confidence; outputs must not change."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCENARIOS))
    def test_equals_full_path(self, name):
        sc = DIFFERENTIAL_SCENARIOS[name]
        empty = non_empty = 0
        for frame in generated_frames(sc):
            if frame.grid.conf.any():
                non_empty += 1
            else:
                empty += 1
            for alpha in (ModelChoice.H, ModelChoice.T):
                row = h_dets(frame, sc)
                expected = full_detector(frame, alpha, sc, row)
                assert sim.emulate_detector(frame, alpha, sc, row) == expected
        assert empty > 0 and non_empty > 0

    def test_tiny_positive_confidence_is_not_empty(self, monkeypatch):
        sc = tiny_scenario()
        frame = sim.generate_frame(
            dataclasses.replace(sc, mean_objects_stationary=0.0, false_positive_rate=0.0),
            np.random.default_rng(0), 0, sim.STATIONARY,
        )
        conf = frame.grid.conf.copy()
        conf[1, 2, 0] = 5e-324
        frame = frame._replace(grid=ConfidenceGrid(conf, frame.grid.boxes))
        calls = []
        process = flowmap.process
        monkeypatch.setattr(flowmap, "process", lambda *a: calls.append(a) or process(*a))
        row = h_dets(frame, sc)
        for alpha in (ModelChoice.H, ModelChoice.T):
            expected = full_detector(frame, alpha, sc, row)
            assert sim.emulate_detector(frame, alpha, sc, row) == expected
        assert len(calls) == 2  # once from each H path

    def test_process_not_called_on_empty_grids(self, monkeypatch):
        sc = DIFFERENTIAL_SCENARIOS["benchmark"]
        calls = []
        process = flowmap.process
        monkeypatch.setattr(flowmap, "process", lambda *a: calls.append(a) or process(*a))
        expected = 0
        for frame in generated_frames(sc, seeds=(0,), steps=150):
            before = len(calls)
            row = h_dets(frame, sc)
            sim.emulate_detector(frame, ModelChoice.H, sc, row)
            sim.emulate_detector(frame, ModelChoice.T, sc, row)
            if frame.grid.conf.any():
                expected += 1
                assert len(calls) == before + 1
            else:
                assert len(calls) == before
        assert 0 < expected < 150
        assert len(calls) == expected

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCENARIOS))
    def test_run_equals_full_path_run(self, name, monkeypatch):
        sc = dataclasses.replace(DIFFERENTIAL_SCENARIOS[name], horizon=120)
        cfg = ControllerConfig(tie_break=ModelChoice.T)

        def results():
            policies = [
                make_policy(PolicyKind.DPP),
                make_policy(PolicyKind.ALWAYS_H),
                make_policy(PolicyKind.REINFORCE, seed=3),
                UniformRandomPolicy(),
            ]
            return [sim.run(sc, policy, cfg=cfg) for policy in policies]

        fast = results()
        monkeypatch.setattr(sim, "emulate_detector", full_detector)
        for full, quick in zip(results(), fast, strict=True):
            assert_same_run(full, quick)

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCENARIOS))
    def test_generated_grids_pass_validation(self, name):
        for frame in generated_frames(DIFFERENTIAL_SCENARIOS[name]):
            checked = ConfidenceGrid(frame.grid.conf, frame.grid.boxes)
            assert checked.conf.dtype == frame.grid.conf.dtype == np.float64
            assert checked.boxes.dtype == frame.grid.boxes.dtype == np.float64
            np.testing.assert_array_equal(checked.conf, frame.grid.conf)
            np.testing.assert_array_equal(checked.boxes, frame.grid.boxes)

    def test_run_rejects_frames_of_another_grid_shape(self):
        sc = tiny_scenario(horizon=5)
        frames = list(generated_frames(dataclasses.replace(sc, grid_cols=5), (0,), 5))
        with pytest.raises(ValueError, match="grid shape"):
            sim.run(sc, AlwaysPolicy(ModelChoice.T), frames=frames)


def mixed_frames(count=70):
    """(scenario, frames): supplied frames over three blocks that mix two
    map shapes, (h, w, 2) float32 fields, and empty-grid frames whose maps
    are not finite, which the simulator never thresholds.  Confidences
    straddle the flow-lowered thresholds, so each H row moves the counts."""
    sc = tiny_scenario(horizon=count, seed=7, flow_rows=12, flow_cols=20, grid_rows=4,
                       grid_cols=5, mean_objects_stationary=0.8, miss_prob=0.7,
                       recoverable_conf=(0.0, 0.2), false_positive_rate=1.0,
                       false_conf=(0.0, 0.1))
    gen = sim.FrameGenerator(sc)
    rng = np.random.default_rng(5)
    frames = []
    for t in range(count):
        frame = gen.next(t)
        if not frame.grid.conf.any() and t % 2:
            flow = np.full((12, 20), [np.nan, np.inf][t % 4 // 2])
        elif t % 3 == 1:
            flow = rng.normal(size=(9, 13))
        elif t % 7 == 3:
            flow = rng.normal(size=(10, 14, 2)).astype(np.float32)
        else:
            flow = frame.flow
        frames.append(frame._replace(flow=flow))
    kinds = [(f.flow.shape, bool(f.grid.conf.any()), bool(np.isfinite(f.flow).all()))
             for f in frames]
    for kind in [((12, 20), True, True), ((9, 13), True, True), ((10, 14, 2), True, True),
                 ((12, 20), False, False)]:
        assert kind in kinds
    return sc, frames


class TestBlocks:
    """run thresholds each block of frames' maps in one flowmap.process call
    and its grids in one threshold_detections call; every output equals the
    per-frame path's."""

    def test_one_process_call_per_block(self, consumed, monkeypatch):
        sc = tiny_scenario(horizon=100, mean_objects_stationary=1.0)
        calls = []
        process = flowmap.process
        monkeypatch.setattr(flowmap, "process", lambda *a: calls.append(a[0]) or process(*a))
        sim.run(sc, DppPolicy())
        assert len(consumed) == 100 and len(calls) == -(-100 // sim.BLOCK_FRAMES)
        for start, maps in zip(range(0, 100, sim.BLOCK_FRAMES), calls):
            block = consumed[start:start + sim.BLOCK_FRAMES]
            expected = [f.flow for f in block if f.grid.conf.any()]
            assert 0 < len(maps) < len(block)
            assert len(maps) == len(expected) and all(m is f for m, f in zip(maps, expected))

    def test_one_threshold_call_per_block_one_nms_per_frame(self, consumed, monkeypatch):
        sc = tiny_scenario(horizon=100, mean_objects_stationary=1.0)
        calls, suppressed = [], []
        threshold, suppress = sim.threshold_detections, sim.nms
        monkeypatch.setattr(sim, "threshold_detections",
                            lambda grids, t: calls.append(grids) or threshold(grids, t))
        monkeypatch.setattr(sim, "nms", lambda dets, t: suppressed.append(dets) or suppress(dets, t))
        sim.run(sc, DppPolicy())
        assert len(consumed) == 100 and len(calls) == -(-100 // sim.BLOCK_FRAMES)
        for start, grids in zip(range(0, 100, sim.BLOCK_FRAMES), calls):
            expected = [f.grid for f in consumed[start:start + sim.BLOCK_FRAMES] if f.grid.conf.any()]
            assert len(grids) == len(expected) and all(g is e for g, e in zip(grids, expected))
        assert len(suppressed) == sum(bool(f.grid.conf.any()) for f in consumed)

    def test_every_h_row_is_its_own_maps(self, monkeypatch):
        sc, frames = mixed_frames()
        used = []
        threshold = sim.threshold_detections
        monkeypatch.setattr(sim, "threshold_detections",
                            lambda grids, t: used.extend(zip(grids, t)) or threshold(grids, t))
        sim.run(sc, DppPolicy(), frames=frames)
        frame_of = {id(f.grid): f for f in frames}
        rows = [(frame_of[id(grid)], t) for grid, t in used if not np.isscalar(t)]
        assert [f.t for f, _ in rows] == [f.t for f in frames if f.grid.conf.any()]
        for frame, row in rows:
            expected = flowmap.process(frame.flow, sc.grid_rows, sc.grid_cols,
                                       sc.boxes_per_cell, sc.c_th)
            assert np.array_equal(row, expected)

    def test_outputs_equal_a_per_frame_run(self, tmp_path, monkeypatch, capsys):
        sc, frames = mixed_frames()
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(
            f"[run]\ntrace = {tmp_path / 'trace.csv'}\nreinforce_train_episodes = 2\n"
            "reinforce_episode_len = 5\n\n[scenario]\nflow_rows = 12\nflow_cols = 20\n"
            "grid_rows = 4\ngrid_cols = 5\n\n[controller]\ntie_break = T\n"
        )
        monkeypatch.setattr(fileio, "load_trace", lambda path: frames)

        def outputs(name):
            out = tmp_path / name
            assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
            return [(out / f).read_bytes() for f in ("timeseries.csv", "summary.csv")]

        blocked = outputs("blocked")
        emulate = sim.emulate_detector

        def per_frame(frame, alpha, scenario, dets_h):
            # H's detections from this frame's own map, one process call each
            dets_h = []
            if frame.grid.conf.any():
                thresholds_h = flowmap.process(frame.flow, scenario.grid_rows, scenario.grid_cols,
                                               scenario.boxes_per_cell, scenario.c_th)
                dets_h = nms(threshold_detections(frame.grid, thresholds_h), scenario.nms_iou)
            return emulate(frame, alpha, scenario, dets_h)

        monkeypatch.setattr(sim, "emulate_detector", per_frame)
        assert outputs("per_frame") == blocked
        assert b"H" in blocked[0] and b"nan" not in blocked[1]
        capsys.readouterr()


def old_h_thresholds(frames, scenario):
    """Each frame's H threshold row from its own map, or None on an empty
    grid: what the old detector path handed each step."""
    sc = scenario
    return [flowmap.process(f.flow, sc.grid_rows, sc.grid_cols, sc.boxes_per_cell, sc.c_th)
            if np.count_nonzero(f.grid.conf) else None for f in frames]


def old_emulate_detector(frame, alpha, scenario, thresholds_h):
    """The old detector path, the oracle for the shared one: each variant
    thresholds the grid itself, H with thresholds_h and T with c_th, and
    runs its own NMS; an empty grid skips both."""
    sc = scenario
    if alpha is ModelChoice.H:
        base, per_obj = sc.base_latency_h, sc.per_object_latency_h
    else:
        base, per_obj = sc.base_latency_t, sc.per_object_latency_t
    p = base + per_obj * frame.num_objects
    if not np.count_nonzero(frame.grid.conf):
        return [], 0, p
    thresholds = thresholds_h if alpha is ModelChoice.H else sc.c_th
    dets = nms(threshold_detections(frame.grid, thresholds), sc.nms_iou)
    return dets, len(dets), p


def use_old_detector_path(monkeypatch):
    monkeypatch.setattr(sim, "h_detections", old_h_thresholds)
    monkeypatch.setattr(sim, "emulate_detector", old_emulate_detector)


# A generated scene whose missed objects and false positives draw from a
# range that straddles H's band [c_th/(1+e^2), c_th/(1+e)], so H and T
# disagree on many frames.
STRADDLING_INI = (
    "[run]\nreinforce_train_episodes = 2\nreinforce_episode_len = 5\n\n"
    "[scenario]\nhorizon = 120\nseed = 11\nflow_rows = 12\nflow_cols = 20\ngrid_rows = 4\n"
    "grid_cols = 5\nmean_objects_stationary = 0.8\nmiss_prob = 0.6\n"
    "recoverable_conf = 0.05,0.2\nfalse_positive_rate = 1.0\nfalse_conf = 0.05,0.2\n\n"
    "[controller]\ntie_break = T\n"
)


class TestOldDetectorPath:
    """compare's outputs equal, byte for byte, those of the old detector path,
    in which T thresholds and suppresses the grid on its own."""

    @pytest.mark.parametrize("scene", ["mixed", "straddling"])
    def test_compare_equals_old_path(self, scene, tmp_path, monkeypatch, capsys):
        if scene == "mixed":
            sc, frames = mixed_frames()
            text = (f"[run]\ntrace = {tmp_path / 'trace.csv'}\nreinforce_train_episodes = 2\n"
                    "reinforce_episode_len = 5\n\n[scenario]\nflow_rows = 12\nflow_cols = 20\n"
                    "grid_rows = 4\ngrid_cols = 5\n\n[controller]\ntie_break = T\n")
            monkeypatch.setattr(fileio, "load_trace", lambda path: frames)
        else:
            text = STRADDLING_INI
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(text)

        def outputs(name):
            out = tmp_path / name
            assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
            return [(out / f).read_bytes() for f in ("timeseries.csv", "summary.csv")]

        shared = outputs("shared")
        use_old_detector_path(monkeypatch)
        assert outputs("old") == shared
        assert b",H," in shared[0] and b",T," in shared[0]
        capsys.readouterr()

    def test_straddling_scene_separates_h_from_t(self, tmp_path):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(STRADDLING_INI)
        sc = load_config(cfg_path).scenario
        frames = list(generated_frames(sc, (sc.seed,), sc.horizon))
        differ = 0
        for frame, row in zip(frames, old_h_thresholds(frames, sc), strict=True):
            dets_h = old_emulate_detector(frame, ModelChoice.H, sc, row)[0]
            dets_t = old_emulate_detector(frame, ModelChoice.T, sc, row)[0]
            assert dets_t == [d for d in dets_h if d.confidence > sc.c_th]
            differ += dets_h != dets_t
        assert differ >= len(frames) // 4


# Out-of-range scenario values, each rejected once when the scenario is built
# rather than on every frame.
BAD_SCENARIO_VALUES = [
    ("c_th", 0.0),
    ("c_th", -0.5),
    ("c_th", 1.5),
    ("c_th", float("nan")),
    ("recoverable_conf", (0.48, 0.30)),
    ("recoverable_conf", (-0.1, 0.3)),
    ("recoverable_conf", (0.3, float("nan"))),
    ("detected_conf", (0.55, 1.05)),
    ("detected_conf", (0.5, 0.6, 0.7)),
    ("false_conf", (0.4, 0.26)),
    ("false_conf", (1.1, 1.2)),
    ("nms_iou", -0.1),
    ("nms_iou", 1.5),
    ("nms_iou", float("nan")),
    ("match_iou", 0.0),
    ("match_iou", 1.01),
    ("grid_rows", 0),
    ("flow_cols", 0),
    ("boxes_per_cell", 0),
    ("overflow_cap", -1.0),
    ("object_motion_driving", -6.0),
    ("object_motion_driving", float("nan")),
    ("object_motion_stationary", -1e-300),
    ("object_motion_stationary", float("nan")),
]


def _ini_value(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value)


class TestScenarioChecks:
    @pytest.mark.parametrize("key,value", BAD_SCENARIO_VALUES)
    def test_scenario_rejects(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must"):
            sim.ScenarioConfig(**{key: value})

    @pytest.mark.parametrize("key,value", BAD_SCENARIO_VALUES)
    def test_ini_reports_location(self, key, value):
        parser = configparser.ConfigParser()
        parser.read_string(f"[scenario]\n{key} = {_ini_value(value)}\n")
        with pytest.raises(ConfigError, match=rf"^test\.ini: \[scenario\] {key} must"):
            parse_config(parser, source="test.ini")

    def test_boundary_values_accepted(self):
        sim.ScenarioConfig(
            c_th=1.0, nms_iou=0.0, match_iou=1.0, recoverable_conf=(0.0, 0.0),
            detected_conf=(1.0, 1.0), false_conf=(0.0, 1.0),
        )
        sim.ScenarioConfig(nms_iou=1.0, c_th=1e-9, overflow_cap=0.0)
        sim.ScenarioConfig(object_motion_driving=0.0, object_motion_stationary=-0.0)
        sim.ScenarioConfig(object_motion_driving=-0.0, object_motion_stationary=0.0)
