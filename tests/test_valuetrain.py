import math
from collections import deque
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from uavnav import neuro, radio, sinrmap, valuetrain, world
from uavnav.valuetrain import (
    JammerSchedule,
    ReplayBuffer,
    TrainRunConfig,
    discounted_returns,
    epsilon,
    ground_truth_oracle,
    lookahead_select,
    run_episode,
    sample_scenario,
    train,
)
from uavnav.world import Action, ScenarioConfig, UavState

from conftest import single_station_env


def zero_value_net(input_size=34):
    specs = neuro.dense_specs(input_size, (4,), 1, "relu", "tanh")
    return neuro.NetworkParams(
        specs=specs,
        weights=[np.zeros((input_size, 4)), np.zeros((4, 1))],
        biases=[np.zeros(4), np.zeros(1)],
        standardizer=neuro.Standardizer.identity(input_size),
    )


def simple_scenario(start=(0.0, 0.0), dest=(30.0, 0.0), vmax=4.0, **kw):
    return ScenarioConfig(
        starts=(start,), destinations=(dest,), radii=(0.5,), max_speeds=(vmax,), **kw
    )


class TestEpsilon:
    def test_schedule_endpoints_and_midpoint(self):
        cfg = TrainRunConfig(total_episodes=1000, epsilon_decay_fraction=0.4)
        span = cfg.epsilon_decay_span
        assert span == 400
        assert epsilon(0, cfg) == 0.5
        assert epsilon(span, cfg) == pytest.approx(0.1)
        assert epsilon(span // 2, cfg) == pytest.approx(0.3)
        assert epsilon(span * 3, cfg) == pytest.approx(0.1)

    def test_rejects_negative_episode(self):
        with pytest.raises(ValueError):
            epsilon(-1, TrainRunConfig())


class TestDiscountedReturns:
    def test_two_step(self):
        assert discounted_returns([0.0, 2.0], 0.9) == pytest.approx([1.8, 2.0])

    def test_zeros(self):
        assert discounted_returns([0.0] * 5, 0.9) == [0.0] * 5

    def test_matches_double_loop_oracle(self, rng):
        rewards = list(rng.normal(size=20))
        gamma = 0.93
        got = discounted_returns(rewards, gamma)
        for t in range(20):
            expected = sum(gamma ** (k - t) * rewards[k] for k in range(t, 20))
            assert got[t] == pytest.approx(expected, rel=1e-12)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(5):
            buf.extend([[float(i)]], [float(i)])
        assert len(buf) == 3
        assert buf.arrays()[1].tolist() == [2.0, 3.0, 4.0]

    def test_sample_shapes_and_leaves_the_entries(self, rng):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.extend([[i, i + 1.0]], [i * 0.5])
        before = ring_bytes(buf)
        feats, targets = buf.sample(4, rng)
        assert feats.shape == (4, 2) and targets.shape == (4,)
        assert ring_bytes(buf) == before
        buf.extend([[99.0, 98.0]], [1.0])
        assert ring_bytes(buf) != before

    @settings(max_examples=150, deadline=None)
    @given(capacity=hst.integers(1, 12), width=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1),
           batches=hst.lists(hst.integers(0, 30), min_size=1, max_size=12))
    def test_matches_a_deque_through_wrap_around(self, capacity, width, seed, batches):
        rng = np.random.default_rng(seed)
        buf, ref = ReplayBuffer(capacity), DequeReplay(capacity)
        for n in batches:
            feats, targets = rng.normal(size=(n, width)), rng.normal(size=n)
            buf.extend(feats, targets)
            for f, t in zip(feats, targets):
                ref.push(f, t)
            assert len(buf) == len(ref.entries)
            if not len(buf):
                assert buf.arrays()[1].shape == (0,)
                continue
            got, want = buf.arrays(), ref.as_arrays()
            assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
            assert got[1].tobytes() == want[1].tobytes()
            draw = int(rng.integers(1, 2 * capacity + 1))
            got = buf.sample(draw, np.random.default_rng(seed + n))
            want = ref.sample(draw, np.random.default_rng(seed + n))
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_arrays_are_read_only_views_a_later_extend_overwrites(self):
        buf = ReplayBuffer(capacity=2)
        buf.extend([[1.0], [2.0]], [1.0, 2.0])
        feats, targets = buf.arrays()
        assert not feats.flags.writeable and not targets.flags.writeable
        buf.extend([[3.0], [4.0]], [3.0, 4.0])
        assert feats[:, 0].tolist() == targets.tolist() == [3.0, 4.0]

    def test_grows_by_doubling_up_to_capacity(self):
        buf = ReplayBuffer(600_000)
        buf.extend(np.zeros((5, 34)), np.zeros(5))
        sizes = []
        for _ in range(10):
            buf.extend(np.ones((1, 34)), [1.0])
            sizes.append(len(buf._rows))
        assert sizes == [10] * 5 + [20] * 5
        buf.extend(np.zeros((1000, 34)), np.zeros(1000))
        assert len(buf._rows) == 1015  # a batch larger than double is stored as it is

    def test_rejects_bad_rows_and_keeps_its_entries(self):
        buf = ReplayBuffer(4)
        buf.extend(np.ones((3, 2)), [0.5, 1.0, 1.5])
        before = ring_bytes(buf)
        for feats, targets in ((np.array([[1.0, math.nan]]), [0.0]), (np.ones((1, 2)), [math.inf]),
                               (np.ones((1, 3)), [0.0]), (np.ones((2, 2)), [0.0])):
            with pytest.raises(ValueError):
                buf.extend(feats, targets)
            assert ring_bytes(buf) == before and len(buf) == 3


def ring_bytes(ring):
    """The bytes of every entry of a ring, oldest first."""
    return tuple(a.tobytes() for a in ring.arrays())


class DequeReplay:
    """The replay buffer as a deque of (features, target) pairs: the reference the ring must equal."""

    def __init__(self, capacity):
        self.entries = deque(maxlen=capacity)

    def push(self, features, target):
        self.entries.append((np.asarray(features, dtype=float), float(target)))

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.entries), size=min(batch_size, len(self.entries)))
        return (np.stack([self.entries[i][0] for i in idx]),
                np.array([self.entries[i][1] for i in idx]))

    def as_arrays(self):
        return np.stack([e[0] for e in self.entries]), np.array([e[1] for e in self.entries])


class TestJammerSchedule:
    def test_change_period(self, rng):
        sched = JammerSchedule(change_period=100, powers=(1.0,))
        j0 = sched.jammer_for_episode(0, rng, None)
        j1 = sched.jammer_for_episode(1, rng, j0)
        assert j1 is j0
        j100 = sched.jammer_for_episode(100, rng, j1)
        assert j100 is not j1

    def test_samples_inside_bounds(self, rng):
        sched = JammerSchedule(x_bounds=(-5, 5), y_bounds=(0, 2), powers=(0.5, 1.0))
        for _ in range(50):
            j = sched.sample(rng)
            assert -5 <= j.position[0] <= 5
            assert 0 <= j.position[1] <= 2
            assert j.tx_power in (0.5, 1.0)


def reference_lookahead(value_net, self_state, neighbors, space, oracle, gamma, t, cfg,
                        j_n=4, scale=0.5):
    """Plain per-action reference: propagate, estimate reward, score, argmax."""
    dt = cfg.dt
    moved = [(ob[0] + ob[2] * dt, ob[1] + ob[3] * dt, ob[2], ob[3], ob[4]) for ob in neighbors]
    best_score, best_action = -math.inf, None
    for a in space:
        nxt = world.propagate(self_state, a, dt, cfg.arrival_tolerance)
        level = int(oracle(np.array([nxt.position]))[0])
        conn = float(world.CONNECTIVITY_BANDS[level]) if t % cfg.n_t == 0 else 0.0
        coll = 0.0
        for ob in neighbors:
            d = world.segment_closest_approach(
                self_state.position, a.velocity(), (ob[0], ob[1]), (ob[2], ob[3]), dt
            )
            coll = min(coll, float(world.collision_ramp(d - self_state.radius - ob[4])))
        reward = conn + coll + (2.0 if nxt.arrived else 0.0) + cfg.movement_penalty
        frame = world.to_agent_frame(nxt, moved, level, j_n)
        value = neuro.forward_batch(value_net, frame)[0][0]
        score = scale * reward + gamma * value
        if score > best_score:
            best_score, best_action = score, a
    return best_action


class TestLookaheadSelect:
    def test_single_action_space(self, strong_env):
        net = zero_value_net()
        cfg = simple_scenario()
        st = cfg.initial_states()[0]
        only = Action(2.0, 0.0)
        got = lookahead_select(net, st, [], [only], ground_truth_oracle(strong_env),
                               0.95, 0, cfg)
        assert got is only

    def test_empty_space_rejected(self, strong_env):
        cfg = simple_scenario()
        with pytest.raises(ValueError):
            lookahead_select(zero_value_net(), cfg.initial_states()[0], [], [],
                             ground_truth_oracle(strong_env), 0.95, 0, cfg)

    def test_arriving_action_dominates_with_stub_net(self, strong_env):
        # Destination one step ahead: immediate arrival reward 2 beats cruising.
        cfg = simple_scenario(start=(28.5, 0.0), dest=(30.0, 0.0))
        st = cfg.initial_states()[0]
        space = world.sample_action_space(st, cfg, 3, 5)
        got = lookahead_select(zero_value_net(), st, [], space,
                               ground_truth_oracle(strong_env), 0.95, 1, cfg)
        nxt = world.propagate(st, got, cfg.dt, cfg.arrival_tolerance)
        assert nxt.arrived

    def test_tie_breaks_to_first_action(self, strong_env):
        # Stub net and all rewards equal (far from everything, not gated).
        cfg = simple_scenario()
        st = cfg.initial_states()[0]
        space = world.sample_action_space(st, cfg, 3, 5)
        got = lookahead_select(zero_value_net(), st, [], space,
                               ground_truth_oracle(strong_env), 0.95, 1, cfg)
        assert got is space[0]

    def test_scale_invariance_of_argmax(self, strong_env, rng):
        # Scaling rewards and values by the same positive constant keeps the argmax.
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        cfg = simple_scenario(start=(5.0, 3.0), dest=(-20.0, 14.0))
        st = cfg.initial_states()[0]
        nbs = [(8.0, 4.0, -1.0, 0.5, 0.5)]
        space = world.sample_action_space(st, cfg, 3, 5)
        oracle = ground_truth_oracle(strong_env)
        a1 = lookahead_select(net, st, nbs, space, oracle, 0.95, 0, cfg, reward_scale=0.5)
        # tanh output cannot be scaled linearly; emulate with identity output
        specs = neuro.dense_specs(34, (8,), 1, "relu", "identity")
        lin = neuro.NetworkParams(specs=specs, weights=[w.copy() for w in net.weights],
                                  biases=[b.copy() for b in net.biases],
                                  standardizer=net.standardizer)
        lin2 = lin.copy()
        lin2.weights[-1][:] *= 3.0
        lin2.biases[-1][:] *= 3.0
        b1 = lookahead_select(lin, st, nbs, space, oracle, 0.95, 0, cfg, reward_scale=0.5)
        b2 = lookahead_select(lin2, st, nbs, space, oracle, 0.95, 0, cfg, reward_scale=1.5)
        assert b1 is b2
        assert a1 in space

    def test_matches_scalar_reference(self, rng):
        env = single_station_env(
            jammer=radio.Jammer(position=(10.0, 0.0), tx_power=0.8)
        )
        oracle = ground_truth_oracle(env)
        net = neuro.init_network(neuro.dense_specs(34, (16, 8), 1, "relu", "tanh"), rng)
        for trial in range(30):
            start = tuple(rng.uniform(-30, 30, 2))
            dest = tuple(rng.uniform(-30, 30, 2))
            if math.dist(start, dest) < 1:
                continue
            cfg = simple_scenario(start=start, dest=dest, vmax=float(rng.uniform(2, 8)))
            st = cfg.initial_states()[0]
            nbs = [
                tuple(rng.uniform(-30, 30, 2)) + tuple(rng.uniform(-4, 4, 2)) + (0.5,)
                for _ in range(int(rng.integers(0, 4)))
            ]
            space = world.sample_action_space(st, cfg, 3, 5)
            t = int(rng.integers(0, 8))
            fast = lookahead_select(net, st, nbs, space, oracle, 0.95, t, cfg)
            slow = reference_lookahead(net, st, nbs, space, oracle, 0.95, t, cfg)
            assert fast.speed == pytest.approx(slow.speed)
            assert fast.heading == pytest.approx(slow.heading)


def random_lookahead_agents(rng, cfg, counts):
    """Agents for a lookahead, agent a with counts[a] neighbors: (states, neighbors)."""
    states = []
    for _ in counts:
        dest = rng.uniform(-30, 30, 2)
        vmax = float(rng.uniform(2, 8))
        if rng.random() < 0.5:  # within one step: some actions snap onto the destination
            start = dest + rng.uniform(-1, 1, 2) * vmax * cfg.dt / 2
        else:
            start = rng.uniform(-30, 30, 2)
        states.append(UavState(
            position=tuple(start), velocity=(0.0, 0.0), radius=float(rng.uniform(0.3, 1.0)),
            destination=tuple(dest), max_speed=vmax,
            orientation=float(rng.uniform(-math.pi, math.pi)),
        ))
    nbs = [[tuple(rng.uniform(-30, 30, 2)) + tuple(rng.uniform(-4, 4, 2))
            + (float(rng.uniform(0.3, 1.0)),) for _ in range(n)] for n in counts]
    return states, nbs


class TestStackedLookahead:
    @settings(max_examples=80, deadline=None)
    @given(a=hst.integers(1, 4), n=hst.integers(0, 3), t=hst.integers(0, 7),
           learned=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
    def test_stacked_equals_one_agent_calls(self, a, n, t, learned, seed):
        rng = np.random.default_rng(seed)
        env = single_station_env(jammer=radio.Jammer(position=(10.0, 0.0), tx_power=0.8))
        if learned:
            model = sinrmap.init_map_model(env, 2, rng, hidden=(8,))
            inner = sinrmap.learned_oracle(model, env.stations, env.uav_altitude)
        else:
            inner = ground_truth_oracle(env)
        queries = []

        def oracle(positions):
            queries.append(np.array(positions))
            return inner(positions)

        net = neuro.init_network(neuro.dense_specs(34, (16, 8), 1, "relu", "tanh"), rng)
        cfg = simple_scenario()
        states, nbs = random_lookahead_agents(rng, cfg, [n] * a)
        grids = [world.action_grid(s, cfg, 3, 5) for s in states]
        speeds = np.stack([g[0] for g in grids])
        headings = np.stack([g[1] for g in grids])

        values = []  # the value net's outputs of each lookahead

        def forward(params, x):
            out = real_forward(params, x)
            if params is net:
                values.append(out[0])
            return out

        real_forward = neuro.forward_batch
        with mock.patch.object(neuro, "forward_batch", forward):
            stacked = valuetrain.lookahead_index(net, states, nbs, speeds, headings, oracle,
                                                 0.95, t, cfg)
            assert len(queries) == 1 and queries[0].shape == (a, 15, 2)
            for i in range(a):
                one = valuetrain.lookahead_index(net, [states[i]], [nbs[i]], speeds[i:i + 1],
                                                 headings[i:i + 1], oracle, 0.95, t, cfg)
                assert one[0] == stacked[i]
                assert queries[-1].tobytes() == queries[0][i:i + 1].tobytes()
        assert np.concatenate(values[1:]).tobytes() == values[0].tobytes()


    @settings(max_examples=80, deadline=None)
    @given(counts=hst.lists(hst.integers(0, 5), min_size=1, max_size=6), t=hst.integers(0, 7),
           learned=hst.booleans(), near_origin=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
    def test_ragged_neighbors_equal_one_call_per_count(self, counts, t, learned, near_origin,
                                                       seed):
        """Agents with 0 to j_n + 1 neighbors in one call get the indices, oracle
        queries, rewards, feature rows and values of one call per neighbor count.
        An agent near the origin would touch a zero-filled neighbor slot."""
        rng = np.random.default_rng(seed)
        env = single_station_env(jammer=radio.Jammer(position=(10.0, 0.0), tx_power=0.8))
        if learned:
            model = sinrmap.init_map_model(env, 2, rng, hidden=(8,))
            inner = sinrmap.learned_oracle(model, env.stations, env.uav_altitude)
        else:
            inner = ground_truth_oracle(env)
        queries, seen = [], []  # oracle positions; (feature rows, values) of each forward

        def oracle(positions):
            queries.append(np.array(positions))
            return inner(positions)

        def forward(params, x):
            out = real_forward(params, x)
            if params is net:
                seen.append((np.array(x), out[0]))
            return out

        rewards = []

        def transition_rewards(*args):
            rewards.append(real_rewards(*args))
            return rewards[-1]

        net = neuro.init_network(neuro.dense_specs(34, (16, 8), 1, "relu", "tanh"), rng)
        cfg = simple_scenario()
        states, nbs = random_lookahead_agents(rng, cfg, counts)
        if near_origin:
            states[0] = replace(states[0], position=tuple(rng.uniform(-1.5, 1.5, 2)))
        speeds, headings = world.action_grids(states, cfg)
        real_forward, real_rewards = neuro.forward_batch, world.transition_rewards
        with mock.patch.object(neuro, "forward_batch", forward), \
                mock.patch.object(world, "transition_rewards", transition_rewards):
            ragged = valuetrain.lookahead_index(net, states, nbs, speeds, headings, oracle,
                                                0.95, t, cfg)
            for count in sorted(set(counts)):
                group = [a for a, c in enumerate(counts) if c == count]
                one = valuetrain.lookahead_index(
                    net, [states[a] for a in group], [nbs[a] for a in group], speeds[group],
                    headings[group], oracle, 0.95, t, cfg)
                assert one.tolist() == ragged[group].tolist()
                assert queries[-1].tobytes() == queries[0][group].tobytes()
                assert rewards[-1].tobytes() == rewards[0][group].tobytes()
                rows, values = seen[-1]
                assert rows.tobytes() == seen[0][0][group].tobytes()
                assert values.tobytes() == seen[0][1][group].tobytes()
        assert len(queries) == 1 + len(set(counts))


class TestRunEpisode:
    def test_coins_are_drawn_before_one_lookahead_per_step(self, strong_env, monkeypatch):
        # Three agents far from their destinations stay active for all three steps.
        cfg = ScenarioConfig(
            starts=((-40.0, -20.0), (-40.0, 0.0), (-40.0, 20.0)),
            destinations=((40.0, -20.0), (40.0, 0.0), (40.0, 20.0)),
            radii=(0.5,) * 3, max_speeds=(4.0,) * 3, max_episode_steps=3,
        )
        rng = np.random.default_rng(9)
        calls = []
        real = valuetrain.lookahead_index

        def spy(value_net, states, *args, **kwargs):
            calls.append((len(states), rng.bit_generator.state))
            return real(value_net, states, *args, **kwargs)

        monkeypatch.setattr(valuetrain, "lookahead_index", spy)
        run_episode(zero_value_net(), strong_env, cfg, 0.5, None, rng, 0.95)
        # Replay the stream: per step, each agent's coin in agent order, then
        # one lookahead over the agents whose coin came up greedy.
        replay = np.random.default_rng(9)
        expected = []
        for _ in range(3):
            greedy = 0
            for _ in range(3):
                if replay.random() <= 0.5:
                    replay.integers(15)
                else:
                    greedy += 1
            if greedy:
                expected.append((greedy, replay.bit_generator.state))
        assert any(g < 3 for g, _ in expected)  # the seed mixes explored and greedy agents
        assert calls == expected

    def test_full_exploration_reproduces_seeded_stream(self, strong_env):
        cfg = sample_scenario(np.random.default_rng(3), n_agents=3)
        logs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            buf = ReplayBuffer(1000)
            log = run_episode(zero_value_net(), strong_env, cfg, 1.0, buf, rng, 0.95)
            logs.append((tuple(log.reward_sums), log.steps, ring_bytes(buf)))
        assert logs[0] == logs[1]

    def test_single_agent_one_step_arrival(self, strong_env):
        cfg = simple_scenario(start=(28.3, 0.0), dest=(30.0, 0.0))
        buf = ReplayBuffer(100)
        log = run_episode(zero_value_net(), strong_env, cfg, 0.0, buf,
                          np.random.default_rng(0), 0.95)
        assert log.arrived == [True]
        assert log.steps == 1
        # One transition: arrival 2 + movement penalty (connectivity 0, full coverage).
        assert log.reward_sums[0] == pytest.approx(2.0 - 0.05)
        # Buffer got the visited state plus the arrived terminal anchored at 0.
        assert len(buf) == 2
        targets = buf.arrays()[1].tolist()
        assert targets[0] == pytest.approx(valuetrain.TARGET_SCALE * 1.95)
        assert targets[1] == 0.0

    def test_buffer_growth_accounting(self, strong_env):
        cfg = sample_scenario(np.random.default_rng(5), n_agents=2)
        buf = ReplayBuffer(100000)
        log = run_episode(zero_value_net(), strong_env, cfg, 1.0, buf,
                          np.random.default_rng(7), 0.95)
        visited = sum(min(log.steps, cfg.max_episode_steps) for _ in range(2))
        # states pushed = steps each agent was active; <= visited, plus <= 2 terminals
        assert len(buf) <= visited + 2
        assert len(buf) > 0


class TestTrain:
    def _tiny_setup(self):
        env = single_station_env(tx_power=1e6)
        rng = np.random.default_rng(11)
        scenarios = [sample_scenario(rng, n_agents=2, max_episode_steps=60)
                     for _ in range(3)]
        from uavnav.orca import generate_bootstrap_set

        pairs, _ = generate_bootstrap_set(scenarios, env, 0.9)
        return env, pairs

    def test_smoke_tiny_gamma(self):
        env, pairs = self._tiny_setup()
        cfg = TrainRunConfig(total_episodes=3, gamma=0.05, agents=2,
                             pretrain_epochs=2, seed=1)
        result = train(cfg, pairs, env, JammerSchedule(change_period=10),
                       scenario_kwargs={"n_agents": 2, "max_episode_steps": 60})
        assert result.episode == 3
        assert [p.episode for p in result.curve] == [0, 1, 2]

    def test_deterministic_under_seed(self):
        env, pairs = self._tiny_setup()
        digests = []
        for _ in range(2):
            cfg = TrainRunConfig(total_episodes=4, agents=2, pretrain_epochs=2, seed=9)
            result = train(cfg, pairs, env, JammerSchedule(change_period=2),
                           scenario_kwargs={"n_agents": 2, "max_episode_steps": 60})
            import json

            digests.append(
                (
                    json.dumps(neuro.to_dict(result.value_net), sort_keys=True),
                    tuple((p.episode, p.mean_reward, p.jammer_x) for p in result.curve),
                    ring_bytes(result.buffer),
                )
            )
        assert digests[0] == digests[1]

    def test_resume_from_a_kept_checkpoint_gives_the_uninterrupted_bits(self):
        env, pairs = self._tiny_setup()
        cfg = TrainRunConfig(total_episodes=5, agents=2, pretrain_epochs=1, checkpoint_every=2,
                             seed=3)
        kw = {"scenario_kwargs": {"n_agents": 2, "max_episode_steps": 60}}
        schedule = JammerSchedule(change_period=3)

        def kept(c):  # a checkpoint's state is live: keep a copy
            feats, targets = c.buffer.arrays()
            buffer = ReplayBuffer(cfg.replay_capacity)
            buffer.extend(feats, targets)
            adam = neuro.AdamState(c.adam.m.copy(), c.adam.v.copy(), c.adam.step)
            return valuetrain.Checkpoint(c.episode, c.value_net.copy(), adam, buffer,
                                         list(c.curve), c.rng_states, c.jammer)

        checkpoints = []
        whole = train(cfg, pairs, env, schedule, **kw,
                      on_checkpoint=lambda c: checkpoints.append(kept(c)))
        assert [c.episode for c in checkpoints] == [2, 4, 5]

        def bits(c):
            return (c.episode, c.value_net.flat.tobytes(), c.adam.m.tobytes(),
                    c.adam.v.tobytes(), c.adam.step, c.curve, ring_bytes(c.buffer),
                    c.rng_states, c.jammer)

        for k in (0, 1):
            resumed = train(cfg, pairs, env, schedule, **kw, resume=checkpoints[k])
            assert bits(resumed) == bits(whole) == bits(checkpoints[-1])

    def test_rollouts_read_the_trained_net_without_subnormals(self, monkeypatch):
        env, pairs = self._tiny_setup()
        cfg = TrainRunConfig(total_episodes=3, agents=2, pretrain_epochs=1, seed=4)
        kw = {"scenario_kwargs": {"n_agents": 2, "max_episode_steps": 60}}
        start = train(replace(cfg, total_episodes=1), pairs, env, JammerSchedule(), **kw)
        net, adam = start.value_net, start.adam
        tiny = np.finfo(float).tiny
        for a in (net.flat, adam.m, adam.v):
            a[::3] = tiny / 8  # v stays >= 0
        seen = []
        real = valuetrain.run_episode

        def spy(value_net, *args, **kwargs):
            seen.append((value_net is net, *(
                int(((x != 0.0) & (np.abs(x) < tiny)).sum()) for x in (net.flat, adam.m, adam.v))))
            return real(value_net, *args, **kwargs)

        monkeypatch.setattr(valuetrain, "run_episode", spy)
        result = train(cfg, pairs, env, JammerSchedule(), **kw, resume=start)
        assert result.value_net is net
        assert seen == [(True, 0, 0, 0)] * 2

    def test_curve_csv_round_trip(self, tmp_path):
        env, pairs = self._tiny_setup()
        cfg = TrainRunConfig(total_episodes=3, agents=2, pretrain_epochs=1, seed=2)
        result = train(cfg, pairs, env, JammerSchedule(),
                       scenario_kwargs={"n_agents": 2, "max_episode_steps": 60})
        path = tmp_path / "curve.csv"
        valuetrain.write_curve_csv(result.curve, path, extra_comments=("digest=q",))
        back = valuetrain.read_curve_csv(path)
        assert [(p.episode, p.mean_reward) for p in back] == [
            (p.episode, p.mean_reward) for p in result.curve
        ]


class TestScenarioSampler:
    def test_separation_and_travel_floor(self, rng):
        for _ in range(20):
            sc = sample_scenario(rng, n_agents=4)
            for i in range(4):
                assert math.dist(sc.starts[i], sc.destinations[i]) >= 50.0
                for j in range(i + 1, 4):
                    assert math.dist(sc.starts[i], sc.starts[j]) > 1.0
            assert all(4.0 <= v <= 8.0 for v in sc.max_speeds)

    def test_coverage_filter_sees_only_candidates_that_pass_the_cheap_checks(self):
        """The filter runs after the separation and travel checks, so it never
        sees a candidate that those reject; the draws, and so the scenario, are
        the same in either order."""
        seen = []

        def recording(point):
            seen.append((point, point[0] + point[1] > -30.0))
            return seen[-1][1]

        sc = sample_scenario(np.random.default_rng(6), n_agents=4, min_separation=20.0,
                             position_ok=recording)
        # Each endpoint, starts first, ends the run of candidates drawn for it.
        accepted = list(sc.starts) + list(sc.destinations)
        k = 0
        for point, ok in seen:
            if k < 4:
                others, travel_from = sc.starts[:k], None
            else:
                others, travel_from = sc.destinations[:k - 4], sc.starts[k - 4]
            assert all(math.dist(point, p) > 20.0 for p in others)
            if travel_from is not None:
                assert math.dist(point, travel_from) >= 50.0
            if ok and point == accepted[k]:
                k += 1
        assert k == 8
        assert any(not ok for _, ok in seen)  # the filter did reject some candidates
