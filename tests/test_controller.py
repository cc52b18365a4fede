from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdpp.controller import (
    ACTIONS,
    ControllerConfig,
    ModelChoice,
    StepObservation,
    arrival,
    dpp_flops,
    dpp_score,
    dpp_select,
    performance,
    queue_update,
    service,
)
from oracles import drift_bound_check, lyapunov

finite = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


class TestQueueUpdate:
    def test_simple(self):
        assert queue_update(5.0, 2.0, 3.0) == 4.0

    def test_clamps_at_zero(self):
        assert queue_update(1.0, 0.0, 5.0) == 0.0

    def test_rejects_negative(self):
        for args in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                queue_update(*args)

    @given(finite, finite, finite)
    @settings(max_examples=200)
    def test_matches_formula_and_nonnegative(self, q, a, b):
        got = queue_update(q, a, b)
        assert got == max(q + a - b, 0.0)
        assert got >= 0.0


class TestArrivalServicePerformance:
    def test_arrival(self):
        assert arrival(30.0, 0.133) == pytest.approx(3.99)
        assert arrival(30.0, 0.067) == pytest.approx(2.01)

    def test_arrival_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arrival(30.0, 0.0)

    def test_service_weights(self):
        cfg = ControllerConfig()
        assert service(ModelChoice.H, cfg) == 3.64
        assert service(ModelChoice.T, cfg) == 2.41

    def test_performance(self):
        cfg = ControllerConfig()
        assert performance(ModelChoice.H, 4, 3, cfg) == pytest.approx(1.005 * 4)
        assert performance(ModelChoice.T, 4, 3, cfg) == 3.0

    def test_performance_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            performance(ModelChoice.H, -1, 0, ControllerConfig())


class TestDppSelect:
    def test_zero_queue_maximizes_performance(self):
        cfg = ControllerConfig()
        # H wins on equal counts because of the w_p > 1 bonus
        assert dpp_select(0.0, StepObservation(2, 2), cfg) is ModelChoice.H
        # T wins when it alone sees an object
        assert dpp_select(0.0, StepObservation(0, 1), cfg) is ModelChoice.T

    def test_large_queue_maximizes_service(self):
        cfg = ControllerConfig()
        # w1 > w2, so the service term favors H at large Q even if T detects more
        assert dpp_select(1e7, StepObservation(0, 1), cfg) is ModelChoice.H

    def test_tie_break(self):
        obs = StepObservation(0, 0)
        cfg_h = ControllerConfig(tie_break=ModelChoice.H)
        cfg_t = ControllerConfig(tie_break=ModelChoice.T)
        assert dpp_select(0.0, obs, cfg_h) is ModelChoice.H
        assert dpp_select(0.0, obs, cfg_t) is ModelChoice.T

    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError):
            dpp_select(-1.0, StepObservation(0, 0), ControllerConfig())

    def test_score_formula(self):
        cfg = ControllerConfig()
        obs = StepObservation(2, 3)
        assert dpp_score(ModelChoice.H, 5.0, obs, cfg) == pytest.approx(
            90.0 * 1.005 * 2 + 5.0 * 3.64
        )
        assert dpp_score(ModelChoice.T, 5.0, obs, cfg) == pytest.approx(
            90.0 * 3 + 5.0 * 2.41
        )

    def test_coupled_score_subtracts_arrival_term(self):
        cfg = ControllerConfig()
        obs = StepObservation(2, 3, p_h=0.133, p_t=0.067)
        plain = dpp_score(ModelChoice.H, 5.0, obs, cfg)
        coupled = dpp_score(ModelChoice.H, 5.0, replace(obs, coupled_arrival=True), cfg)
        assert coupled == pytest.approx(plain - 5.0 * 30.0 * 0.133)

    @given(
        st.floats(0.0, 1e4),
        st.integers(0, 20),
        st.integers(0, 20),
        st.floats(1.0, 200.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_argmax(self, q, nh, nt, v, w1, w2):
        cfg = ControllerConfig(v=v, w1=w1, w2=w2)
        obs = StepObservation(nh, nt)
        scores = {a: dpp_score(a, q, obs, cfg) for a in ACTIONS}
        best = max(scores.values())
        winners = [a for a in ACTIONS if scores[a] == best]
        got = dpp_select(q, obs, cfg)
        if len(winners) == 1:
            assert got is winners[0]
        else:
            assert got is cfg.tie_break

    @given(st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=100)
    def test_at_most_one_switch_over_queue_sweep(self, nh, nt):
        # both scores are affine in Q, so the decision switches at most once
        cfg = ControllerConfig()
        obs = StepObservation(nh, nt)
        decisions = [dpp_select(float(q), obs, cfg) for q in np.linspace(0, 1e4, 500)]
        switches = sum(1 for x, y in zip(decisions, decisions[1:]) if x is not y)
        assert switches <= 1

    @given(st.floats(0.1, 100.0), st.floats(0.0, 1e3), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=100)
    def test_scale_invariance(self, scale, q, nh, nt):
        # multiplying V, w1, w2 by a common factor never changes the argmax
        base = ControllerConfig()
        scaled = ControllerConfig(v=90.0 * scale, w1=3.64 * scale, w2=2.41 * scale)
        obs = StepObservation(nh, nt)
        assert dpp_select(q, obs, base) is dpp_select(q, obs, scaled)


class TestLyapunovDrift:
    def test_lyapunov_values(self):
        assert lyapunov(0.0) == 0.0
        assert lyapunov(4.0) == 8.0

    def test_drift_bound_tight_when_one_rate_is_zero(self):
        # without clamping, slack is exactly a*b, so a = 0 makes it tight
        report = drift_bound_check([(5.0, 0.0, 3.0)])
        assert report.ok and report.max_slack == pytest.approx(0.0)

    def test_drift_bound_slack_is_ab_without_clamp(self):
        report = drift_bound_check([(5.0, 2.0, 3.0)])
        assert report.ok and report.max_slack == pytest.approx(6.0)

    def test_drift_bound_slack_with_clamp(self):
        report = drift_bound_check([(1.0, 0.0, 5.0)])
        assert report.ok and report.min_slack > 0.0

    def test_empty_trajectory(self):
        report = drift_bound_check([])
        assert report.ok and report.steps == 0

    @given(st.lists(st.tuples(finite, finite, finite), max_size=50))
    @settings(max_examples=100)
    def test_never_violates(self, triples):
        assert drift_bound_check(triples).ok


class TestFlops:
    def test_two_action_count(self):
        assert dpp_flops() == 9
        assert dpp_flops() <= 20
