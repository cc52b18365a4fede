"""Decision policies: the drift-plus-penalty rule, the two static baselines,
and a REINFORCE policy-gradient controller with a small MLP.

The MLP maps a 10-entry state vector to action probabilities over (H, T);
action index 0 is H, index 1 is T.  Forward, backward, and the Adam step are
written out in numpy so gradients can be checked against finite differences.
"""

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .controller import ModelChoice, dpp_flops, dpp_select

__all__ = [
    "PolicyKind",
    "MlpParams",
    "AdamState",
    "init_mlp",
    "mlp_forward",
    "compress_state",
    "make_policy_state",
    "episode_objective",
    "policy_gradient",
    "reinforce_update",
    "reinforce_flops",
    "save_mlp",
    "load_mlp",
    "make_policy",
    "DppPolicy",
    "AlwaysPolicy",
    "ReinforcePolicy",
    "REFERENCE_REINFORCE_FLOPS",
]

REFERENCE_REINFORCE_FLOPS = 35_582

STATE_SIZE = 10
HIDDEN_SIZE = 128
NUM_ACTIONS = 2
ACTION_INDEX = {ModelChoice.H: 0, ModelChoice.T: 1}
INDEX_ACTION = (ModelChoice.H, ModelChoice.T)


class PolicyKind(enum.Enum):
    DPP = "dpp"
    ALWAYS_T = "always_t"  # Comp1
    ALWAYS_H = "always_h"  # Comp2
    REINFORCE = "reinforce"  # Comp3


@dataclass
class MlpParams:
    """Three fully connected layers; weight shape is (out, in)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        shapes = [a.shape for a in self.arrays()]
        (o1, i1), (o1b,), (o2, i2), (o2b,), (o3, i3), (o3b,) = shapes
        if o1 != o1b or o2 != o2b or o3 != o3b or i2 != o1 or i3 != o2:
            raise ValueError(f"inconsistent layer shapes: {shapes}")
        if not all(np.all(np.isfinite(a)) for a in self.arrays()):
            raise ValueError("parameters must be finite")

    def arrays(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    @property
    def layer_sizes(self):
        return (self.w1.shape[1], self.w1.shape[0], self.w2.shape[0], self.w3.shape[0])

    def copy(self):
        return MlpParams(*[a.copy() for a in self.arrays()])


def init_mlp(rng, sizes=(STATE_SIZE, HIDDEN_SIZE, HIDDEN_SIZE, NUM_ACTIONS)):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    arrays = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        arrays.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        arrays.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(*arrays)


def mlp_forward(params, state):
    """Forward pass; returns (action probabilities, cached activations).

    The output layer is raw logits + softmax (no ReLU) so both actions stay
    reachable with any sign of logit.
    """
    s = np.asarray(state, dtype=np.float64)
    if s.shape != (params.w1.shape[1],):
        raise ValueError(f"state shape {s.shape} does not match input size {params.w1.shape[1]}")
    z1 = params.w1 @ s + params.b1
    h1 = np.maximum(z1, 0.0)
    z2 = params.w2 @ h1 + params.b2
    h2 = np.maximum(z2, 0.0)
    logits = params.w3 @ h2 + params.b3
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    return probs, (s, h1, h2, logits)


def make_policy_state(q, a_prev, b_prev, b_cur, p_cur, cfg):
    """10-entry state vector: backlog, previous arrival, previous and current
    service weights, current performance, then the five controller constants
    (w1, w2, w_fps, w_p, V).
    """
    return np.array(
        [q, a_prev, b_prev, b_cur, p_cur, cfg.w1, cfg.w2, cfg.w_fps, cfg.w_p, cfg.v],
        dtype=np.float64,
    )


def _normalized_returns(episode, gamma):
    """Discounted returns, divided by episode length to keep gradient scale
    independent of the horizon."""
    rewards = [r for (_, _, r) in episode]
    returns = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns / len(rewards)


def episode_objective(params, episode, gamma=0.99):
    """REINFORCE objective sum_t log pi(a_t | s_t) * G_t (normalized returns);
    the analytic gradient of this quantity is what policy_gradient returns."""
    returns = _normalized_returns(episode, gamma)
    total = 0.0
    for (state, action, _), g in zip(episode, returns):
        probs, _ = mlp_forward(params, state)
        total += np.log(probs[ACTION_INDEX[action]]) * g
    return total


def policy_gradient(params, episode, gamma=0.99):
    """Analytic gradient of episode_objective with respect to every layer.

    Returns a list of arrays matching MlpParams.arrays() order.
    """
    if not episode:
        raise ValueError("episode must be non-empty")
    returns = _normalized_returns(episode, gamma)
    grads = [np.zeros_like(a) for a in params.arrays()]
    for (state, action, _), g in zip(episode, returns):
        probs, (s, h1, h2, _) = mlp_forward(params, state)
        dlogits = -probs * g
        dlogits[ACTION_INDEX[action]] += g
        grads[4] += np.outer(dlogits, h2)
        grads[5] += dlogits
        dh2 = params.w3.T @ dlogits
        dz2 = dh2 * (h2 > 0.0)
        grads[2] += np.outer(dz2, h1)
        grads[3] += dz2
        dh1 = params.w2.T @ dz2
        dz1 = dh1 * (h1 > 0.0)
        grads[0] += np.outer(dz1, s)
        grads[1] += dz1
    return grads


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros_like(cls, params):
        return cls(
            m=[np.zeros_like(a) for a in params.arrays()],
            v=[np.zeros_like(a) for a in params.arrays()],
        )


def reinforce_update(params, episode, lr=2e-4, gamma=0.99, opt=None,
                     beta1=0.9, beta2=0.999, eps=1e-8):
    """One REINFORCE + Adam ascent step on an episode of (state, action,
    reward) triples.  Returns (new params, new optimizer state); the inputs
    are not mutated.
    """
    grads = policy_gradient(params, episode, gamma)
    if opt is None:
        opt = AdamState.zeros_like(params)
    step = opt.step + 1
    new_arrays, new_m, new_v = [], [], []
    for a, g, m, v in zip(params.arrays(), grads, opt.m, opt.v):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        new_arrays.append(a + lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return MlpParams(*new_arrays), AdamState(new_m, new_v, step)


def reinforce_flops(params):
    """FLOPs of one forward pass under the multiply-add = 2 convention
    (matrix products only; bias adds and activations excluded)."""
    sizes = params.layer_sizes
    return 2 * sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))


_MAGIC = b"FGMLP1"


def save_mlp(params, path):
    """Flat binary format: magic "FGMLP1", four int32 LE layer sizes, then
    w1, b1, w2, b2, w3, b3 row-major as float64 LE."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<4i", *params.layer_sizes))
        for a in params.arrays():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_mlp(path):
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"bad MLP file magic: {magic!r}")
        sizes = struct.unpack("<4i", f.read(16))
        arrays = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = np.frombuffer(f.read(8 * fan_in * fan_out), dtype="<f8")
            arrays.append(w.reshape(fan_out, fan_in).astype(np.float64))
            b = np.frombuffer(f.read(8 * fan_out), dtype="<f8")
            arrays.append(b.astype(np.float64))
        return MlpParams(*arrays)


class DppPolicy:
    """Drift-plus-penalty selection; arrival-aware when the observation says
    the queue's arrivals are coupled to the chosen model's cycle time."""

    kind = PolicyKind.DPP

    def decide(self, q, obs, cfg, state, rng):
        return dpp_select(q, obs, cfg)

    def flops_per_decision(self):
        return dpp_flops()


class AlwaysPolicy:
    def __init__(self, choice):
        self.choice = choice
        self.kind = PolicyKind.ALWAYS_H if choice is ModelChoice.H else PolicyKind.ALWAYS_T

    def decide(self, q, obs, cfg, state, rng):
        return self.choice

    def flops_per_decision(self):
        return 0


def compress_state(state):
    """Elementwise x / (1 + |x|), mapping raw state values into (-1, 1).

    The raw state mixes scales (backlog in frames, V around 90, weights
    around 3); feeding it directly saturates the softmax for many random
    initializations, which kills exploration at the pinned learning rate.
    """
    state = np.asarray(state, dtype=np.float64)
    return state / (1.0 + np.abs(state))


class ReinforcePolicy:
    """Samples actions from the MLP policy distribution.

    Raw state vectors are compressed with compress_state before the forward
    pass; the same transform is applied when updating from an episode.
    """

    kind = PolicyKind.REINFORCE

    def __init__(self, params=None, seed=0):
        if params is None:
            params = init_mlp(np.random.default_rng(seed))
        self.params = params
        self.opt = AdamState.zeros_like(params)

    def decide(self, q, obs, cfg, state, rng):
        probs, _ = mlp_forward(self.params, compress_state(state))
        return INDEX_ACTION[rng.choice(NUM_ACTIONS, p=probs)]

    def update(self, episode, lr=2e-4, gamma=0.99):
        episode = [(compress_state(s), a, r) for (s, a, r) in episode]
        self.params, self.opt = reinforce_update(
            self.params, episode, lr=lr, gamma=gamma, opt=self.opt
        )

    def flops_per_decision(self):
        return reinforce_flops(self.params)


class UniformRandomPolicy:
    """Coin-flip baseline used when evaluating learned policies."""

    def decide(self, q, obs, cfg, state, rng):
        return INDEX_ACTION[rng.integers(NUM_ACTIONS)]

    def flops_per_decision(self):
        return 0


def make_policy(kind, seed=0):
    if kind is PolicyKind.DPP:
        return DppPolicy()
    if kind is PolicyKind.ALWAYS_T:
        return AlwaysPolicy(ModelChoice.T)
    if kind is PolicyKind.ALWAYS_H:
        return AlwaysPolicy(ModelChoice.H)
    return ReinforcePolicy(seed=seed)
