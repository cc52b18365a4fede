"""Queue dynamics and the drift-plus-penalty model-selection rule.

The controller chooses between two detectors each step: H (hybrid, flow-map
assisted, more accurate, slower) and T (plain detector, faster).  It observes
the queue backlog Q and picks the action maximizing

    V * P(alpha) + Q * b(alpha)

where P is the performance model, b the service weight, and V the
accuracy/stability tradeoff coefficient.  At Q = 0 this maximizes accuracy;
for large Q it maximizes service.
"""

import enum
import math
from dataclasses import dataclass, field, fields

__all__ = [
    "ModelChoice",
    "ControllerConfig",
    "StepObservation",
    "queue_update",
    "arrival",
    "service",
    "performance",
    "dpp_score",
    "dpp_select",
    "lyapunov",
    "drift_bound_check",
    "DriftBoundReport",
    "dpp_flops",
    "REFERENCE_DPP_FLOPS",
]

# Per-decision cost reported for the original system; see dpp_flops() for the
# convention used by this implementation.
REFERENCE_DPP_FLOPS = 12


class ModelChoice(enum.Enum):
    H = "H"  # hybrid: detector with flow-map lowered thresholds
    T = "T"  # plain detector

    def __str__(self):
        return self.value


ACTIONS = (ModelChoice.H, ModelChoice.T)


@dataclass(frozen=True)
class ControllerConfig:
    v: float = 90.0
    w1: float = 3.64  # service weight when running H
    w2: float = 2.41  # service weight when running T
    w_fps: float = 30.0
    w_p: float = 1.005  # accuracy ratio of H over T
    tie_break: ModelChoice = ModelChoice.H

    def __post_init__(self):
        _check_finite(self)
        if not self.v >= 0:
            raise ValueError("v must be >= 0")
        for name in ("w1", "w2", "w_fps", "w_p"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


def _check_finite(config):
    """Reject a config dataclass that has a NaN or infinite float field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class StepObservation:
    """Per-step measurements needed to score both actions."""

    num_h: int
    num_t: int
    p_h: float = 0.0  # seconds per cycle when running H
    p_t: float = 0.0
    coupled_arrival: bool = False  # arrivals follow the chosen model's cycle time

    def latency(self, alpha):
        return self.p_h if alpha is ModelChoice.H else self.p_t


def queue_update(q, a, b):
    """One step of the backlog recursion max(Q + a - b, 0)."""
    if q < 0 or a < 0 or b < 0:
        raise ValueError("queue update arguments must be non-negative")
    return max(q + a - b, 0.0)


def arrival(w_fps, p):
    """Frames arriving during one processing cycle of length p seconds."""
    if w_fps <= 0 or p <= 0:
        raise ValueError("w_fps and p must be > 0")
    return w_fps * p


def service(alpha, cfg):
    """Service weight of the chosen model."""
    return cfg.w1 if alpha is ModelChoice.H else cfg.w2


def performance(alpha, num_h, num_t, cfg):
    """Detection performance: object count, weighted by w_p for H."""
    if num_h < 0 or num_t < 0:
        raise ValueError("object counts must be >= 0")
    return cfg.w_p * num_h if alpha is ModelChoice.H else float(num_t)


def dpp_score(alpha, q, obs, cfg):
    """Drift-plus-penalty score V*P(alpha) + Q*b(alpha).

    With obs.coupled_arrival the arrival rate depends on the chosen model's
    cycle time, so the drift term becomes Q*(a(alpha) - b(alpha)) and the
    score is V*P(alpha) + Q*(b(alpha) - w_fps*p(alpha)).  Otherwise arrivals
    are uncontrollable and the plain rule applies.
    """
    score = cfg.v * performance(alpha, obs.num_h, obs.num_t, cfg) + q * service(alpha, cfg)
    if obs.coupled_arrival:
        score -= q * arrival(cfg.w_fps, obs.latency(alpha))
    return score


def dpp_select(q, obs, cfg):
    """Argmax of dpp_score over {H, T}; exact ties go to cfg.tie_break."""
    if q < 0:
        raise ValueError("q must be >= 0")
    score_h = dpp_score(ModelChoice.H, q, obs, cfg)
    score_t = dpp_score(ModelChoice.T, q, obs, cfg)
    if score_h > score_t:
        return ModelChoice.H
    if score_t > score_h:
        return ModelChoice.T
    return cfg.tie_break


def lyapunov(q):
    """Quadratic potential Q^2 / 2."""
    if q < 0:
        raise ValueError("q must be >= 0")
    return 0.5 * q * q


@dataclass
class DriftBoundReport:
    steps: int = 0
    violations: list = field(default_factory=list)  # step indices
    max_slack: float = 0.0
    min_slack: float = float("inf")

    @property
    def ok(self):
        return not self.violations


def drift_bound_check(trajectory, tol=1e-9):
    """Verify the per-step Lyapunov drift bound on a simulated trajectory.

    Each element of trajectory is (q, a, b) observed before the update.  The
    check is L(Q') - L(Q) <= (a^2 + b^2)/2 + Q*(a - b) with Q' from
    queue_update; slack is bound minus actual drift (>= 0, with equality when
    the max-with-zero never clamps).
    """
    report = DriftBoundReport()
    for step, (q, a, b) in enumerate(trajectory):
        q_next = queue_update(q, a, b)
        drift = lyapunov(q_next) - lyapunov(q)
        bound = 0.5 * (a * a + b * b) + q * (a - b)
        slack = bound - drift
        report.steps += 1
        report.max_slack = max(report.max_slack, slack)
        report.min_slack = min(report.min_slack, slack)
        # the drift is a difference of two Q^2/2 terms, so its rounding error
        # scales with the potential itself; make tol relative to that
        scale = max(1.0, abs(bound), abs(drift), lyapunov(q))
        if slack < -tol * scale:
            report.violations.append(step)
    if report.steps == 0:
        report.min_slack = 0.0
    return report


def dpp_flops(num_actions=2):
    """FLOPs of one dpp_select under the documented convention.

    Convention: every multiply, add, and compare counts as one FLOP.  Per
    action the score costs one multiply for the weighted performance, two
    multiplies for V*P and Q*b, and one add; the argmax over n actions costs
    n - 1 compares.  Independent of Q and linear in the action count.
    """
    if num_actions < 1:
        raise ValueError("num_actions must be >= 1")
    return 4 * num_actions + (num_actions - 1)
