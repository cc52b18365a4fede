"""Independent reference computations shared by the tests.

Nothing here is imported by the package: the Lyapunov drift-bound verifier
checks simulated runs, and the straight-line MLP forward pass, the REINFORCE
objective and the per-array Adam step check the learner in flowdpp.policies.
"""

from dataclasses import dataclass, field

import numpy as np

from flowdpp.controller import queue_update
from flowdpp.policies import ACTION_INDEX, ADAM_BETA1, ADAM_BETA2, ADAM_EPS


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


def q_before(result):
    """The backlog each step of a SimResult started from: a run starts from
    an empty queue, and q holds each step's backlog after it."""
    return [0.0] + result.q[:-1].tolist()


def trajectory(result):
    """(Q before the update, a, b) per step of a SimResult."""
    return list(zip(q_before(result), result.a.tolist(), result.b.tolist()))


def forward_oracle(params, state):
    """Independent straight-line matrix-vector forward pass; returns (probs,
    h1, h2, logits)."""
    h1 = np.maximum(params.w1 @ state + params.b1, 0.0)
    h2 = np.maximum(params.w2 @ h1 + params.b2, 0.0)
    logits = params.w3 @ h2 + params.b3
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum(), h1, h2, logits


def returns_oracle(episode, gamma):
    returns, acc = [], 0.0
    for (_, _, r) in reversed(episode):
        acc = r + gamma * acc
        returns.append(acc)
    return np.array(returns[::-1]) / len(episode)


def objective_oracle(params, episode, gamma=0.99):
    """Per-step sum of log pi(a_t | s_t) * G_t, the REINFORCE objective whose
    analytic gradient policies.policy_gradient returns."""
    total = 0.0
    for (state, action, _), g in zip(episode, returns_oracle(episode, gamma)):
        probs = forward_oracle(params, state)[0]
        total += np.log(probs[ACTION_INDEX[action]]) * g
    return total


def adam_oracle(arrays, grads, m, v, step, lr):
    """Adam step number step, one array at a time: the update as first
    written, over lists of arrays in MlpParams.arrays() order.  Returns
    (new arrays, new m, new v)."""
    new_arrays, new_m, new_v = [], [], []
    for a, g, m, v in zip(arrays, grads, m, v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**step)
        v_hat = v / (1.0 - ADAM_BETA2**step)
        new_arrays.append(a + lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return new_arrays, new_m, new_v
