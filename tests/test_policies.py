import numpy as np
import pytest

from flowdpp import policies, sim
from flowdpp.controller import ACTIONS, ControllerConfig, ModelChoice, StepObservation
from flowdpp.policies import (
    ACTION_INDEX,
    AdamState,
    AlwaysPolicy,
    DppPolicy,
    MlpParams,
    PolicyKind,
    ReinforcePolicy,
    UniformRandomPolicy,
    compress_state,
    init_mlp,
    make_policy,
    make_policy_state,
    mlp_forward,
    policy_gradient,
    reinforce_flops,
    reinforce_update,
)
from oracles import adam_oracle, forward_oracle, objective_oracle, returns_oracle


def small_params(seed=0, sizes=(4, 5, 5, 2)):
    return init_mlp(np.random.default_rng(seed), sizes)


def zero_params(sizes=(4, 5, 5, 2)):
    arrays = []
    for i, o in zip(sizes[:-1], sizes[1:]):
        arrays.append(np.zeros((o, i)))
        arrays.append(np.zeros(o))
    return MlpParams(*arrays)


def random_episode(rng, params, length=6):
    in_size = params.layer_sizes[0]
    episode = []
    for _ in range(length):
        state = rng.normal(size=in_size)
        action = ModelChoice.H if rng.random() < 0.5 else ModelChoice.T
        episode.append((state, action, rng.normal()))
    return episode


def bits(arrays):
    """The arrays' entries as one int64 vector, so equality is bit equality."""
    return np.concatenate([np.ravel(a) for a in arrays]).view(np.int64)


def gradient_oracle(params, episode, gamma=0.99):
    """Per-step backward pass with outer products, accumulated over the
    episode; the reference for the batched policy_gradient."""
    grads = [np.zeros_like(a) for a in params.arrays()]
    for (state, action, _), g in zip(episode, returns_oracle(episode, gamma)):
        s = np.asarray(state, dtype=np.float64)
        probs, h1, h2, _ = forward_oracle(params, s)
        dlogits = -probs * g
        dlogits[ACTION_INDEX[action]] += g
        grads[4] += np.outer(dlogits, h2)
        grads[5] += dlogits
        dz2 = (params.w3.T @ dlogits) * (h2 > 0.0)
        grads[2] += np.outer(dz2, h1)
        grads[3] += dz2
        dz1 = (params.w2.T @ dz2) * (h1 > 0.0)
        grads[0] += np.outer(dz1, s)
        grads[1] += dz1
    return grads


def episode_with_dead_rows(length, seed):
    """Default-size parameters and an episode in which every third state
    drives all first-layer pre-activations negative (an all-zero ReLU row)."""
    rng = np.random.default_rng(seed)
    params = init_mlp(rng)
    params.w1[:, 0] = np.abs(params.w1[:, 0]) + 0.05
    episode = []
    for t in range(length):
        state = rng.uniform(-1.0, 1.0, size=10)
        if t % 3 == 1:
            state[0] = -1000.0
        action = ModelChoice.H if rng.random() < 0.5 else ModelChoice.T
        episode.append((state, action, rng.normal() * 10))
    return params, episode


class TestMlpForward:
    def test_zero_params_uniform(self):
        probs, _ = mlp_forward(zero_params(), np.ones(4))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_bias_dominates(self):
        params = zero_params()
        params.b3[:] = (10.0, -10.0)
        probs, _ = mlp_forward(params, np.zeros(4))
        assert probs[0] > 0.9999 and probs.sum() == pytest.approx(1.0)

    def test_against_oracle(self):
        rng = np.random.default_rng(1)
        params = small_params(1)
        for _ in range(10):
            state = rng.normal(size=4)
            probs, cache = mlp_forward(params, state)
            np.testing.assert_allclose(probs, forward_oracle(params, state)[0], atol=1e-12)
            assert probs.sum() == pytest.approx(1.0)
            np.testing.assert_array_equal(cache[0], state)

    @pytest.mark.parametrize("sizes", [(10, 128, 128, 2), (4, 5, 5, 2)])
    def test_single_state_is_bit_identical_to_matrix_vector_formula(self, sizes):
        # decisions feed timeseries.csv, so the batch-of-one forward pass
        # must reproduce the matrix-vector products bit for bit
        rng = np.random.default_rng(29)
        for seed in range(20):
            params = init_mlp(np.random.default_rng(seed), sizes)
            for _ in range(25):
                state = compress_state(rng.normal(scale=5.0, size=sizes[0]))
                probs, (s, h1, h2, logits) = mlp_forward(params, state)
                want = forward_oracle(params, state)
                for got, expected in zip((probs, h1, h2, logits), want):
                    np.testing.assert_array_equal(got, expected)
                np.testing.assert_array_equal(s, state)

    @pytest.mark.parametrize("sizes", [(10, 128, 128, 2), (4, 5, 5, 2)])
    def test_single_state_is_bit_identical_to_its_batch_row(self, sizes):
        # mlp_forward equals _forward on a batch of one; a row of a larger
        # batch may differ from it in its last bits
        rng = np.random.default_rng(31)
        for seed in range(20):
            params = init_mlp(np.random.default_rng(seed), sizes)
            for _ in range(25):
                state = compress_state(rng.normal(scale=5.0, size=sizes[0]))
                probs, (_, h1, h2, logits) = mlp_forward(params, state)
                batch = policies._forward(params, state[None])
                for got, row in zip((probs, h1, h2, logits), batch):
                    np.testing.assert_array_equal(got, row[0])

    def test_rejects_wrong_state_size(self):
        with pytest.raises(ValueError):
            mlp_forward(small_params(), np.zeros(3))

    def test_default_sizes(self):
        params = init_mlp(np.random.default_rng(0))
        assert params.layer_sizes == (10, 128, 128, 2)
        probs, _ = mlp_forward(params, np.zeros(10))
        assert probs.shape == (2,)


class TestPolicyGradient:
    def test_matches_finite_differences(self):
        # central differences on 20 random coordinates of every layer
        rng = np.random.default_rng(7)
        params = small_params(3)
        episode = random_episode(rng, params)
        grads = policy_gradient(params, episode)
        h = 1e-5
        for layer, (arr, grad) in enumerate(zip(params.arrays(), grads)):
            flat_idx = rng.choice(arr.size, size=min(20, arr.size), replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, arr.shape)
                bumped = params.copy()
                bumped.arrays()[layer][idx] += h
                plus = objective_oracle(bumped, episode)
                bumped.arrays()[layer][idx] -= 2 * h
                minus = objective_oracle(bumped, episode)
                fd = (plus - minus) / (2 * h)
                scale = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(fd - grad[idx]) / scale < 1e-4, (layer, idx)

    @pytest.mark.parametrize("length", [1, 5, 50])
    def test_batched_matches_per_step_oracle(self, length):
        params, episode = episode_with_dead_rows(length, seed=length)
        if length > 1:
            dead = [np.all(forward_oracle(params, s)[1] == 0.0) for s, _, _ in episode]
            assert any(dead) and not all(dead)
            assert {a for _, a, _ in episode} == {ModelChoice.H, ModelChoice.T}
        for got, want in zip(policy_gradient(params, episode), gradient_oracle(params, episode)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_rejects_empty_episode(self):
        with pytest.raises(ValueError):
            policy_gradient(small_params(), [])

    def test_rejects_wrong_state_size(self):
        episode = [(np.zeros(4), ModelChoice.H, 1.0), (np.zeros(3), ModelChoice.T, 1.0)]
        with pytest.raises(ValueError):
            policy_gradient(small_params(), episode)

    def test_zero_return_episode_has_zero_gradient(self):
        params = small_params(5)
        episode = [(np.ones(4), ModelChoice.H, 0.0), (np.ones(4), ModelChoice.T, 0.0)]
        for g in policy_gradient(params, episode):
            np.testing.assert_array_equal(g, np.zeros_like(g))


class TestReinforceUpdate:
    def test_inputs_not_mutated_and_deterministic(self):
        rng = np.random.default_rng(11)
        params = small_params(11)
        before = [a.copy() for a in params.arrays()]
        episode = random_episode(rng, params)
        new1, opt1 = reinforce_update(params, episode)
        new2, _ = reinforce_update(params, episode)
        for a, b in zip(params.arrays(), before):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(new1.arrays(), new2.arrays()):
            np.testing.assert_array_equal(a, b)
        assert opt1.step == 1

    def test_ascends_objective(self):
        rng = np.random.default_rng(13)
        params = small_params(13)
        episode = random_episode(rng, params)
        new, _ = reinforce_update(params, episode, lr=1e-3)
        assert objective_oracle(new, episode) > objective_oracle(params, episode)

    def test_zero_gradient_step_is_noop_direction(self):
        params = small_params(17)
        episode = [(np.ones(4), ModelChoice.H, 0.0)]
        new, _ = reinforce_update(params, episode)
        for a, b in zip(new.arrays(), params.arrays()):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_training_equals_per_step_oracle_training(self, monkeypatch):
        # the acceptance criterion-7 scene, at 40 episodes of 10 steps
        scenario = sim.ScenarioConfig(
            horizon=10, start_driving=False, p_stay_stationary=1.0, p_stay_driving=0.0,
            mean_objects_stationary=2.5, miss_prob=0.7, false_positive_rate=0.0,
        )
        batched, batched_rewards = sim.train_reinforce(scenario, episodes=40, seed=3)
        monkeypatch.setattr(policies, "policy_gradient", gradient_oracle)
        oracle, oracle_rewards = sim.train_reinforce(scenario, episodes=40, seed=3)
        assert batched_rewards == oracle_rewards
        assert len(set(oracle_rewards)) > 1
        for got, want in zip(batched.params.arrays(), oracle.params.arrays()):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert oracle.opt.step == batched.opt.step == 40

    @pytest.mark.parametrize("sizes", [(10, 128, 128, 2), (4, 5, 5, 2)])
    def test_chained_updates_equal_per_array_adam_oracle(self, sizes):
        # every fifth episode, the first included, has all-zero returns
        rng = np.random.default_rng(43)
        params = init_mlp(np.random.default_rng(47), sizes)
        opt = AdamState.zeros_like(params)
        want = [a.copy() for a in params.arrays()]
        m, v = ([np.zeros_like(a) for a in want] for _ in range(2))
        for step in range(1, 51):
            episode = random_episode(rng, params, length=10)
            if step % 5 == 1:
                episode = [(s, a, 0.0) for s, a, _ in episode]
            grads = policy_gradient(params, episode)
            want, m, v = adam_oracle(want, grads, m, v, step, policies.LEARNING_RATE)
            params, opt = reinforce_update(params, episode, opt=opt)
            assert opt.step == step
            np.testing.assert_array_equal(bits(params.arrays()), bits(want))
            np.testing.assert_array_equal(opt.m.view(np.int64), bits(m))
            np.testing.assert_array_equal(opt.v.view(np.int64), bits(v))
        assert not np.array_equal(bits(params.arrays()), bits(init_mlp(
            np.random.default_rng(47), sizes).arrays()))

    def test_new_params_are_views_of_one_finite_vector(self):
        params = small_params(23)
        new, opt = reinforce_update(params, random_episode(np.random.default_rng(23), params))
        flat = new.w1.base
        assert flat.shape == opt.m.shape == opt.v.shape == (sum(a.size for a in params.arrays()),)
        assert all(a.base is flat for a in new.arrays())
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in new.arrays()]), flat)
        assert [a.shape for a in new.arrays()] == [a.shape for a in params.arrays()]

    def test_non_finite_step_is_rejected(self):
        params = small_params(29)
        episode = [(np.ones(4), ModelChoice.H, 1.0)]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            reinforce_update(params, episode, lr=np.inf)

    @pytest.mark.parametrize("opt", [
        AdamState.zeros_like(zero_params((4, 6, 5, 2))),  # another architecture: 77
        AdamState(np.zeros(1), np.zeros(1)),  # would broadcast over every parameter
        AdamState(np.zeros(67), np.zeros(1)),
    ])
    def test_rejects_optimizer_state_of_another_size(self, opt):
        params = small_params(31)  # 67 parameters
        with pytest.raises(ValueError, match=rf"sizes {opt.m.size} and {opt.v.size} .* 67 param"):
            reinforce_update(params, [(np.ones(4), ModelChoice.H, 1.0)], opt=opt)

    def test_optimizer_state_chains(self):
        rng = np.random.default_rng(19)
        params = small_params(19)
        opt = AdamState.zeros_like(params)
        for step in range(1, 4):
            episode = random_episode(rng, params)
            params, opt = reinforce_update(params, episode, opt=opt)
            assert opt.step == step


class TestFlopsAndState:
    def test_reference_architecture_flops(self):
        params = init_mlp(np.random.default_rng(0))
        got = reinforce_flops(params)
        assert got == 2 * (10 * 128 + 128 * 128 + 128 * 2) == 35_840

    def test_tiny_architecture(self):
        assert reinforce_flops(zero_params((1, 1, 1, 1))) == 6

    def test_policy_state_layout(self):
        cfg = ControllerConfig()
        # the previous step's b fills two entries, and every entry x enters
        # the network as x / (1 + |x|)
        state = make_policy_state(2.0, (3.99, 2.5, 1.125), cfg)
        raw = np.array([2.0, 3.99, 2.5, 2.5, 1.125, 3.64, 2.41, 30.0, 1.005, 90.0])
        np.testing.assert_array_equal(state, raw / (1.0 + np.abs(raw)), strict=True)

    def test_compress_state_range_and_sign(self):
        x = np.array([-90.0, -1.0, 0.0, 1.0, 500.0])
        y = compress_state(x)
        assert np.all(np.abs(y) < 1.0)
        np.testing.assert_array_equal(np.sign(y), np.sign(x))
        assert compress_state(1.0) == 0.5


class TestPolicies:
    def obs(self):
        return StepObservation(1, 1, p_h=0.133, p_t=0.067)

    def test_always_policies_constant(self):
        cfg = ControllerConfig()
        rng = np.random.default_rng(0)
        prev = (2.0, 2.4, 1.0)
        always_h = AlwaysPolicy(ModelChoice.H)
        always_t = AlwaysPolicy(ModelChoice.T)
        for _ in range(5):
            assert always_h.decide(3.0, prev, self.obs(), cfg, rng) is ModelChoice.H
            assert always_t.decide(3.0, prev, self.obs(), cfg, rng) is ModelChoice.T
        assert always_h.flops_per_decision() == 0

    def test_dpp_policy_delegates(self):
        cfg = ControllerConfig()
        policy = DppPolicy()
        assert policy.decide(0.0, None, StepObservation(2, 2), cfg, None) is ModelChoice.H
        assert policy.flops_per_decision() == 9

    def test_reinforce_policy_samples_both_actions(self):
        policy = ReinforcePolicy(seed=0)
        rng = np.random.default_rng(0)
        cfg = ControllerConfig()
        state = make_policy_state(1.0, (2.0, 2.4, 1.0), cfg)
        seen = {policy.decide(1.0, state, self.obs(), cfg, rng) for _ in range(200)}
        assert seen == {ModelChoice.H, ModelChoice.T}
        assert policy.flops_per_decision() == 35_840

    def test_reinforce_decide_equals_generator_choice(self):
        cfg = ControllerConfig()
        learners = [ReinforcePolicy(seed=seed) for seed in range(5)]
        # a leaning, a saturated-H and a saturated-T output layer
        for learner, bias in zip(learners[2:], [(3.0, -3.0), (800.0, -800.0), (-800.0, 800.0)]):
            learner.params.b3[:] = bias
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        state_rng = np.random.default_rng(37)
        seen = [set() for _ in learners]
        for draw in range(12_000):
            which = draw % len(learners)
            q, *prev = state_rng.uniform(0.0, 20.0, size=4).tolist()
            state = make_policy_state(q, prev, cfg)
            probs, _ = mlp_forward(learners[which].params, state)
            if which >= 3:
                assert probs.tolist() in ([1.0, 0.0], [0.0, 1.0])
            want = ACTIONS[twin.choice(2, p=probs)]
            got = learners[which].decide(q, state, self.obs(), cfg, rng)
            assert got is want, draw
            seen[which].add(got)
        both = {ModelChoice.H, ModelChoice.T}
        assert seen == [both, both, both, {ModelChoice.H}, {ModelChoice.T}]

    def test_reinforce_decide_on_a_draw_equal_to_p_h(self, monkeypatch):
        # Generator.choice picks T when the uniform draw equals P(H) exactly
        cfg = ControllerConfig()
        learner = ReinforcePolicy(seed=0)
        rng, twin, peek = (np.random.default_rng(41) for _ in range(3))
        for _ in range(100):
            u = peek.random()
            probs = np.array([u, 1.0 - u])
            assert probs[0] + probs[1] == 1.0
            monkeypatch.setattr(policies, "mlp_forward", lambda params, state: (probs, None))
            assert twin.choice(2, p=probs) == 1
            assert learner.decide(0.0, (0.0, 0.0, 0.0), self.obs(), cfg, rng) is ModelChoice.T

    def test_uniform_policy_is_seed_deterministic(self):
        cfg = ControllerConfig()
        draws = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            policy = UniformRandomPolicy()
            draws.append([policy.decide(0.0, None, self.obs(), cfg, rng) for _ in range(20)])
        assert draws[0] == draws[1]
        assert set(draws[0]) == {ModelChoice.H, ModelChoice.T}

    def test_make_policy_kinds(self):
        assert isinstance(make_policy(PolicyKind.DPP), DppPolicy)
        assert make_policy(PolicyKind.ALWAYS_T).choice is ModelChoice.T
        assert make_policy(PolicyKind.ALWAYS_H).choice is ModelChoice.H
        assert isinstance(make_policy(PolicyKind.REINFORCE), ReinforcePolicy)

    def test_action_index_convention(self):
        assert ACTION_INDEX[ModelChoice.H] == 0
        assert ACTION_INDEX[ModelChoice.T] == 1
