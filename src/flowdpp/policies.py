"""Decision policies: the drift-plus-penalty rule, the two static baselines,
and a REINFORCE policy-gradient controller with a small MLP.

decide(q, state, obs, cfg, rng) receives the backlog, the REINFORCE state
make_policy_state built for this step (None when nothing needs one), the
StepObservation, the config and the RNG; only REINFORCE reads state.

The MLP maps a 10-entry state vector to action probabilities over (H, T);
action index 0 is H, index 1 is T.  Forward, backward, and the Adam step are
written out in numpy so gradients can be checked against finite differences.
One forward pass serves a single decision and a whole episode: the gradient
runs it over the stacked (T, 10) state matrix, then one backward pass over
its rows, with no per-step loop.  A single state gives the bits of a batch
of one, not of a row of a larger batch.  Adam steps one flat vector of all
the parameters.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .controller import ACTIONS, ModelChoice, dpp_flops, dpp_select

__all__ = [
    "PolicyKind",
    "MlpParams",
    "AdamState",
    "init_mlp",
    "mlp_forward",
    "compress_state",
    "make_policy_state",
    "policy_gradient",
    "reinforce_update",
    "reinforce_flops",
    "make_policy",
    "DppPolicy",
    "AlwaysPolicy",
    "ReinforcePolicy",
    "UniformRandomPolicy",
]

# REINFORCE training defaults: the Adam step size and the return discount
LEARNING_RATE = 2e-4
DISCOUNT = 0.99
# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STATE_SIZE = 10
HIDDEN_SIZE = 128
NUM_ACTIONS = 2
ACTION_INDEX = {action: i for i, action in enumerate(ACTIONS)}


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
        if not all(np.isfinite(a).all() for a in self.arrays()):
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


def _forward(params, states):
    """Forward pass over a (T, in) state matrix or one state; returns (probs,
    h1, h2, logits), one row per state or vectors for one state.  The output
    layer is raw logits + softmax (no ReLU) so both actions stay reachable
    with any sign of logit."""
    h1 = np.maximum(states @ params.w1.T + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2.T + params.b2, 0.0)
    logits = h2 @ params.w3.T + params.b3
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True), h1, h2, logits


def mlp_forward(params, state):
    """Forward pass on one state; returns (action probabilities, cached
    activations).  It gives _forward's bits on a batch of one, but a row of
    a larger batch may differ from them in its last bits.
    """
    s = np.asarray(state, dtype=np.float64)
    if s.shape != (params.w1.shape[1],):
        raise ValueError(f"state shape {s.shape} does not match input size {params.w1.shape[1]}")
    probs, h1, h2, logits = _forward(params, s)
    return probs, (s, h1, h2, logits)


def compress_state(x):
    """x / (1 + |x|) of a float, or elementwise of an array, mapping raw state
    values into (-1, 1).

    The raw state mixes scales (backlog in frames, V around 90, weights
    around 3); feeding it directly saturates the softmax for many random
    initializations, which kills exploration at the pinned learning rate.
    """
    return x / (1.0 + abs(x))


def make_policy_state(q, prev, cfg):
    """The network's 10-entry input from q and the previous step's (a, b, perf):
    q, a, b twice, perf, then w1, w2, w_fps, w_p and V, each passed through
    compress_state.  No other code knows this layout or applies the transform.

    The entries are compressed as floats, which gives the same bits as the
    array form and costs less on 10 entries."""
    a, b, perf = prev
    raw = (q, a, b, b, perf, cfg.w1, cfg.w2, cfg.w_fps, cfg.w_p, cfg.v)
    return np.array([compress_state(x) for x in raw])


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


def _episode_arrays(params, episode, gamma):
    """The episode as a (T, in) state matrix, the taken action indices and
    the normalized returns."""
    if not episode:
        raise ValueError("episode must be non-empty")
    states = np.array([s for (s, _, _) in episode], dtype=np.float64)
    size = params.w1.shape[1]
    if states.shape != (len(episode), size):
        raise ValueError(f"episode states {states.shape} do not match input size {size}")
    actions = np.array([ACTION_INDEX[a] for (_, a, _) in episode])
    return states, actions, _normalized_returns(episode, gamma)


def policy_gradient(params, episode, gamma=DISCOUNT):
    """Analytic gradient of the REINFORCE objective sum_t log pi(a_t | s_t) * G_t
    (normalized returns) with respect to every layer, as matrix products over
    the whole episode.

    Returns a list of arrays matching MlpParams.arrays() order.
    """
    states, actions, returns = _episode_arrays(params, episode, gamma)
    probs, h1, h2, _ = _forward(params, states)
    # d objective / d logits, one row per step: G_t * (onehot(a_t) - probs)
    dlogits = -probs * returns[:, None]
    dlogits[np.arange(len(actions)), actions] += returns
    dz2 = (dlogits @ params.w3) * (h2 > 0.0)
    dz1 = (dz2 @ params.w2) * (h1 > 0.0)
    return [
        dz1.T @ states, dz1.sum(axis=0),
        dz2.T @ h1, dz2.sum(axis=0),
        dlogits.T @ h2, dlogits.sum(axis=0),
    ]


@dataclass
class AdamState:
    """Adam's moments as flat vectors over MlpParams.arrays(), joined in order."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, params):
        size = sum(a.size for a in params.arrays())
        return cls(m=np.zeros(size), v=np.zeros(size))


def reinforce_update(params, episode, lr=LEARNING_RATE, gamma=DISCOUNT, opt=None):
    """One REINFORCE + Adam ascent step on an episode of (state, action,
    reward) triples.  Returns (new params, new optimizer state); the inputs
    are not mutated.  Adam runs over the gradient and parameters joined in
    MlpParams.arrays() order, in the per-array operation order, so every
    entry gets the same bits; the new params are views of one vector.
    """
    g = np.concatenate([d.ravel() for d in policy_gradient(params, episode, gamma)])
    if opt is None:
        opt = AdamState.zeros_like(params)
    if opt.m.shape != g.shape or opt.v.shape != g.shape:
        raise ValueError(
            f"Adam state of sizes {opt.m.size} and {opt.v.size} does not match "
            f"the network's {g.size} parameters"
        )
    step = opt.step + 1
    m = ADAM_BETA1 * opt.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * opt.v + (1.0 - ADAM_BETA2) * g * g
    flat = np.concatenate([a.ravel() for a in params.arrays()], dtype=np.float64)
    # the bias-corrected moments stay unnamed, so each is freed once used
    flat += lr * (m / (1.0 - ADAM_BETA1**step)) / (np.sqrt(v / (1.0 - ADAM_BETA2**step)) + ADAM_EPS)
    ends = np.cumsum([a.size for a in params.arrays()]).tolist()
    views = [flat[e - a.size:e].reshape(a.shape) for a, e in zip(params.arrays(), ends)]
    return MlpParams(*views), AdamState(m, v, step)


def reinforce_flops(params):
    """FLOPs of one forward pass under the multiply-add = 2 convention
    (matrix products only; bias adds and activations excluded)."""
    sizes = params.layer_sizes
    return 2 * sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))


class DppPolicy:
    """Drift-plus-penalty selection; arrival-aware when the observation says
    the queue's arrivals are coupled to the chosen model's cycle time."""

    def decide(self, q, state, obs, cfg, rng):
        return dpp_select(q, obs, cfg)

    def flops_per_decision(self):
        return dpp_flops()


class AlwaysPolicy:
    def __init__(self, choice):
        self.choice = choice

    def decide(self, q, state, obs, cfg, rng):
        return self.choice

    def flops_per_decision(self):
        return 0


class ReinforcePolicy:
    """Samples actions from the MLP policy distribution over the input
    make_policy_state builds; an episode's states are that same input."""

    def __init__(self, params=None, seed=0):
        if params is None:
            params = init_mlp(np.random.default_rng(seed))
        self.params = params
        self.opt = AdamState.zeros_like(params)

    def decide(self, q, state, obs, cfg, rng):
        probs, _ = mlp_forward(self.params, state)
        p_h, p_t = probs.tolist()
        # rng.choice(2, p=probs) without its input checks: one uniform draw
        # against the normalized CDF, so the same stream gives the same action
        return ACTIONS[int(rng.random() >= p_h / (p_h + p_t))]

    def update(self, episode, lr, gamma):
        self.params, self.opt = reinforce_update(
            self.params, episode, lr=lr, gamma=gamma, opt=self.opt
        )

    def flops_per_decision(self):
        return reinforce_flops(self.params)


class UniformRandomPolicy:
    """Coin-flip baseline used when evaluating learned policies."""

    def decide(self, q, state, obs, cfg, rng):
        return ACTIONS[rng.integers(NUM_ACTIONS)]

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
