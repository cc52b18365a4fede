import configparser
import dataclasses

import numpy as np
import pytest

from flowdpp import sim
from flowdpp.config import ConfigError, parse_config
from flowdpp.controller import (
    ControllerConfig,
    ModelChoice,
    StepObservation,
    dpp_score,
    dpp_select,
    drift_bound_check,
    queue_update,
)
from flowdpp.detection import ConfidenceGrid, nms, threshold_detections
from flowdpp.policies import (
    AlwaysPolicy,
    DppPolicy,
    PolicyKind,
    UniformRandomPolicy,
    make_policy,
)
from flowdpp import flowmap


def tiny_scenario(**overrides):
    defaults = dict(horizon=60, flow_rows=16, flow_cols=16, grid_rows=4, grid_cols=4)
    defaults.update(overrides)
    return sim.ScenarioConfig(**defaults)


def frame_observation(frame, sc, coupled_arrival=False):
    """The StepObservation that sim.step scores on this frame."""
    _, num_h, p_h = sim.emulate_detector(frame, ModelChoice.H, sc)
    _, num_t, p_t = sim.emulate_detector(frame, ModelChoice.T, sc)
    return StepObservation(num_h, num_t, p_h, p_t, coupled_arrival)


class TestGenerateFrame:
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
        _, _, p_h = sim.emulate_detector(frame, ModelChoice.H, sc)
        _, _, p_t = sim.emulate_detector(frame, ModelChoice.T, sc)
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

    def test_hybrid_detects_at_least_as_many_post_nms(self):
        for seed in range(30):
            sc, frame = self.make_frame(seed)
            _, num_h, _ = sim.emulate_detector(frame, ModelChoice.H, sc)
            _, num_t, _ = sim.emulate_detector(frame, ModelChoice.T, sc)
            assert num_h >= num_t


class TestRun:
    def test_deterministic(self):
        sc = tiny_scenario()
        results = [sim.run(sc, AlwaysPolicy(ModelChoice.T)) for _ in range(2)]
        assert results[0].records == results[1].records

    def test_identical_frames_across_policies(self):
        # frame stream must not depend on policy decisions
        sc = tiny_scenario()
        rec_t = sim.run(sc, AlwaysPolicy(ModelChoice.T)).records
        rec_h = sim.run(sc, AlwaysPolicy(ModelChoice.H)).records
        for rt, rh in zip(rec_t, rec_h):
            assert (rt.regime, rt.num_truth) == (rh.regime, rh.num_truth)

    def test_queue_replay_matches_recursion(self):
        sc = tiny_scenario()
        result = sim.run(sc, make_policy(PolicyKind.DPP))
        q = 0.0
        for r in result.records:
            assert r.q_before == q
            q = queue_update(q, r.a, r.b)
            assert r.q_after == q
            assert q >= 0.0

    def test_drift_bound_holds(self):
        sc = tiny_scenario(horizon=200)
        for kind in (PolicyKind.DPP, PolicyKind.ALWAYS_H, PolicyKind.ALWAYS_T):
            result = sim.run(sc, make_policy(kind))
            assert drift_bound_check(result.trajectory()).ok

    def test_uncoupled_arrivals_follow_plain_detector(self):
        sc = tiny_scenario(couple_arrival=False)
        result = sim.run(sc, AlwaysPolicy(ModelChoice.H))
        cfg = ControllerConfig()
        for r in result.records:
            assert r.a == pytest.approx(cfg.w_fps * (sc.base_latency_t + 0.001 * r.num_truth))

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
        assert [r.t for r in result.records] == list(range(count))

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
        for frame, r in zip(frames, result.records):
            obs = frame_observation(frame, sc, couple)
            assert r.alpha is dpp_select(r.q_before, obs, cfg)
            flipped = dataclasses.replace(obs, coupled_arrival=not couple)
            rules_differ |= dpp_select(r.q_before, flipped, cfg) is not r.alpha
        assert rules_differ

    @pytest.mark.parametrize("couple", [True, False])
    def test_reward_is_uncoupled_score(self, couple):
        sc = tiny_scenario(horizon=80, couple_arrival=couple, mean_objects_stationary=0.8)
        frames = list(generated_frames(sc, (5,), sc.horizon))
        cfg = ControllerConfig()
        episode = []
        result = sim.run(sc, UniformRandomPolicy(), cfg=cfg, frames=frames, collect=episode)
        assert len(episode) == len(frames)
        for frame, r, (_, alpha, reward) in zip(frames, result.records, episode):
            assert alpha is r.alpha
            assert reward == dpp_score(alpha, r.q_before, frame_observation(frame, sc), cfg)

    def test_seed_changes_frames(self):
        sc = tiny_scenario()
        a = sim.run(sc, AlwaysPolicy(ModelChoice.T), seed=0).records
        b = sim.run(sc, AlwaysPolicy(ModelChoice.T), seed=1).records
        assert [r.num_truth for r in a] != [r.num_truth for r in b]


class TestSummarize:
    def test_recomputable_aggregates(self):
        sc = tiny_scenario(horizon=100)
        result = sim.run(sc, AlwaysPolicy(ModelChoice.H))
        s = sim.summarize(result)
        recs = result.records
        assert s.steps == 100
        assert s.avg_q == pytest.approx(np.mean([r.q_after for r in recs]))
        assert s.mean_drift == pytest.approx(np.mean([r.a - r.b for r in recs]))
        assert s.avg_accuracy == pytest.approx(np.mean([r.recall for r in recs]))
        assert s.decision_mix == {"H": 100, "T": 0}
        assert s.total_flops == 0
        assert s.overflow == any(r.q_after > sc.overflow_cap for r in recs)

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

    def test_episode_len_override(self):
        sc = tiny_scenario(horizon=50)
        episode = []
        sim.run(dataclasses.replace(sc, horizon=8), UniformRandomPolicy(),
                collect=episode)
        assert len(episode) == 8


def full_detector(frame, alpha, scenario):
    """emulate_detector without the empty-grid shortcut: always threshold and
    suppress, with flow-lowered thresholds for H and c_th for T."""
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
    """emulate_detector skips the flow map, thresholding and NMS on frames
    whose grid has no positive confidence; outputs must not change."""

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
                assert sim.emulate_detector(frame, alpha, sc) == full_detector(frame, alpha, sc)
        assert empty > 0 and non_empty > 0

    def test_tiny_positive_confidence_is_not_empty(self, monkeypatch):
        sc = tiny_scenario()
        frame = sim.generate_frame(
            dataclasses.replace(sc, mean_objects_stationary=0.0, false_positive_rate=0.0),
            np.random.default_rng(0), 0, sim.STATIONARY,
        )
        conf = frame.grid.conf.copy()
        conf[1, 2, 0] = 5e-324
        frame = dataclasses.replace(frame, grid=ConfidenceGrid(conf, frame.grid.boxes))
        calls = []
        process = flowmap.process
        monkeypatch.setattr(flowmap, "process", lambda *a: calls.append(a) or process(*a))
        for alpha in (ModelChoice.H, ModelChoice.T):
            assert sim.emulate_detector(frame, alpha, sc) == full_detector(frame, alpha, sc)
        assert len(calls) == 2  # once from each H path

    def test_process_not_called_on_empty_grids(self, monkeypatch):
        sc = DIFFERENTIAL_SCENARIOS["benchmark"]
        calls = []
        process = flowmap.process
        monkeypatch.setattr(flowmap, "process", lambda *a: calls.append(a) or process(*a))
        expected = 0
        for frame in generated_frames(sc, seeds=(0,), steps=150):
            before = len(calls)
            sim.emulate_detector(frame, ModelChoice.H, sc)
            sim.emulate_detector(frame, ModelChoice.T, sc)
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

        def records():
            policies = [
                make_policy(PolicyKind.DPP),
                make_policy(PolicyKind.ALWAYS_H),
                make_policy(PolicyKind.REINFORCE, seed=3),
                UniformRandomPolicy(),
            ]
            return [sim.run(sc, policy, cfg=cfg).records for policy in policies]

        fast = records()
        monkeypatch.setattr(sim, "emulate_detector", full_detector)
        assert records() == fast

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
        sim.ScenarioConfig(nms_iou=1.0, c_th=1e-9)
