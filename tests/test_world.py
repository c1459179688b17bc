import math
from dataclasses import fields, replace
from functools import partial

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from uavnav import nav, neuro, orca, radio, valuetrain, world
from uavnav.world import (
    Action,
    EpisodeState,
    ScenarioConfig,
    StepRules,
    UavState,
    collision_ramp,
    propagate,
    sample_action_space,
    segment_closest_approach,
    step_all,
    to_agent_frame,
    transition_rewards,
    wrap_angle,
)

from conftest import single_station_env


RULES = StepRules()


def step_one(state, actions, env, rules=RULES):
    """step_all on a batch of one episode."""
    (nxt,), (rewards,), (flags,) = step_all([state], [actions], env, rules)
    return nxt, rewards, flags


def make_state(pos=(0, 0), vel=(0, 0), dest=(50, 0), vmax=6.0, radius=0.5, orientation=0.0):
    return UavState(
        position=pos, velocity=vel, radius=radius, destination=dest,
        max_speed=vmax, orientation=orientation,
    )


def two_agent_config(starts, dests, vmax=6.0):
    n = len(starts)
    return ScenarioConfig(
        starts=tuple(starts), destinations=tuple(dests),
        radii=(0.5,) * n, max_speeds=(vmax,) * n,
    )


class TestAgentFrameRows:
    @settings(max_examples=100, deadline=None)
    @given(a=hst.integers(1, 4), m=hst.integers(1, 15), n=hst.integers(0, 5),
           j_n=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1))
    def test_stacked_rows_equal_per_agent_rows(self, a, m, n, j_n, seed):
        rng = np.random.default_rng(seed)
        dest = rng.uniform(-40, 40, (a, 2))
        pos = rng.uniform(-40, 40, (a, m, 2))
        pos[:, 0] = dest  # a candidate snapped onto its destination
        vel = rng.uniform(-8, 8, (a, m, 2))
        ori = rng.uniform(-4, 4, (a, m))
        radii = rng.uniform(0.3, 1.0, a)
        vmax = rng.uniform(12, 20, a)
        obs = np.concatenate([rng.uniform(-40, 40, (a, n, 2)), rng.uniform(-8, 8, (a, n, 2)),
                              rng.uniform(0.3, 1.0, (a, n, 1))], axis=-1)
        levels = rng.integers(0, 3, (a, m))
        rows = world.agent_frame_rows(pos, vel, ori, dest, radii, vmax, obs, levels, j_n)
        assert rows.shape == (a, m, world.frame_length(j_n))
        for i in range(a):
            one = world.agent_frame_rows(pos[i:i + 1], vel[i:i + 1], ori[i:i + 1], dest[i:i + 1],
                                         radii[i:i + 1], vmax[i:i + 1], obs[i:i + 1],
                                         levels[i:i + 1], j_n)
            assert rows[i:i + 1].tobytes() == one.tobytes()
            for k in range(m):
                state = UavState(position=tuple(pos[i, k]), velocity=tuple(vel[i, k]),
                                 radius=radii[i], destination=tuple(dest[i]),
                                 max_speed=vmax[i], orientation=ori[i, k])
                frame = to_agent_frame(state, [tuple(o) for o in obs[i]], levels[i, k], j_n)
                assert np.allclose(rows[i, k], frame, atol=1e-9)


    @settings(max_examples=100, deadline=None)
    @given(counts=hst.lists(hst.integers(0, 5), min_size=1, max_size=5),
           m=hst.integers(1, 15), j_n=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1))
    def test_ragged_rows_equal_rows_of_the_present_neighbors(self, counts, m, j_n, seed):
        """Absent slots hold junk at each agent's first candidate position,
        nearer to it than any neighbor; the mask must hide it."""
        rng = np.random.default_rng(seed)
        a, n = len(counts), max(counts)
        dest = rng.uniform(-40, 40, (a, 2))
        pos = rng.uniform(-40, 40, (a, m, 2))
        vel = rng.uniform(-8, 8, (a, m, 2))
        ori = rng.uniform(-4, 4, (a, m))
        radii = rng.uniform(0.3, 1.0, a)
        vmax = rng.uniform(12, 20, a)
        obs = np.concatenate([rng.uniform(-40, 40, (a, n, 2)), rng.uniform(-8, 8, (a, n, 2)),
                              rng.uniform(0.3, 1.0, (a, n, 1))], axis=-1)
        present = np.arange(n) < np.array(counts)[:, None]
        for i in range(a):
            obs[i, ~present[i]] = (*pos[i, 0], 1.0, 1.0, 0.5)
        levels = rng.integers(0, 3, (a, m))
        rows = world.agent_frame_rows(pos, vel, ori, dest, radii, vmax, obs, levels, j_n,
                                      present)
        for i, c in enumerate(counts):
            one = world.agent_frame_rows(pos[i:i + 1], vel[i:i + 1], ori[i:i + 1], dest[i:i + 1],
                                         radii[i:i + 1], vmax[i:i + 1], obs[i:i + 1, :c],
                                         levels[i:i + 1], j_n)
            assert rows[i:i + 1].tobytes() == one.tobytes()


class TestAgentFrame:
    def test_no_neighbors_padding(self):
        vec = to_agent_frame(make_state(), [], sinr_level=2, j_n=3)
        assert len(vec) == 9 + 18 + 1 == world.frame_length(3)
        for k in range(3):
            block = vec[9 + 6 * k : 9 + 6 * (k + 1)]
            assert block[4] == world.FAR_NEIGHBOR
            assert block[0] == block[1] == block[2] == block[3] == block[5] == 0
        assert vec[-1] == 2

    def test_destination_north_rotates_onto_x_axis(self):
        st = make_state(pos=(3, 4), dest=(3, 24), orientation=math.pi / 2)
        v = to_agent_frame(st, [], 1, 1)[:9]
        assert v[2] == pytest.approx(20.0)  # destination on +x
        assert v[3] == pytest.approx(0.0)
        assert v[4] == pytest.approx(20.0)  # d_d
        assert v[5] == 0.0  # azimuth to destination
        assert v[8] == pytest.approx(0.0)  # heading relative to goal direction

    def test_neighbor_under_90_degree_rotation(self):
        # Destination due north: frame rotation is -90 degrees.
        st = make_state(pos=(0, 0), dest=(0, 10))
        nb = (3.0, 4.0, 1.0, 0.0, 0.4)  # position (3,4), velocity (1,0)
        b = to_agent_frame(st, [nb], 0, 1)[9:15]
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation by -90 deg
        exp_pos = rot @ np.array([3.0, 4.0])
        exp_vel = rot @ np.array([1.0, 0.0])
        assert b[0] == pytest.approx(exp_pos[0])
        assert b[1] == pytest.approx(exp_pos[1])
        assert b[2] == pytest.approx(exp_vel[0])
        assert b[3] == pytest.approx(exp_vel[1])
        assert b[4] == pytest.approx(5.0)
        assert b[5] == pytest.approx(math.atan2(exp_pos[1], exp_pos[0]))

    def test_truncates_to_nearest(self):
        st = make_state()
        far = (40.0, 0.0, 0.0, 0.0, 0.5)
        near = (1.0, 1.0, 0.0, 0.0, 0.5)
        frame = to_agent_frame(st, [far, near], 2, 1)
        assert frame[9 + 4] == pytest.approx(math.sqrt(2))

    def test_global_frame_invariance(self, rng):
        for _ in range(50):
            shift = rng.uniform(-100, 100, 2)
            theta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(theta), math.sin(theta)

            def xf(p):
                return (c * p[0] - s * p[1] + shift[0], s * p[0] + c * p[1] + shift[1])

            def xfv(v):
                return (c * v[0] - s * v[1], s * v[0] + c * v[1])

            pos = rng.uniform(-20, 20, 2)
            vel = rng.uniform(-3, 3, 2)
            dest = rng.uniform(-20, 20, 2)
            ori = rng.uniform(-math.pi, math.pi)
            nbs = [
                tuple(rng.uniform(-20, 20, 2)) + tuple(rng.uniform(-3, 3, 2)) + (0.5,)
                for _ in range(3)
            ]
            a = to_agent_frame(
                make_state(tuple(pos), tuple(vel), tuple(dest), orientation=ori), nbs, 1, 4
            )
            nbs_t = [xf(n[:2]) + xfv(n[2:4]) + (n[4],) for n in nbs]
            b = to_agent_frame(
                make_state(xf(pos), xfv(vel), xf(dest), orientation=ori + theta), nbs_t, 1, 4
            )
            assert np.allclose(a, b, atol=1e-9)


class TestActionSpace:
    def test_grid_size_and_required_members(self):
        st = make_state(vmax=4.0, orientation=0.3)
        space = sample_action_space(st, StepRules(n_speeds=2, n_headings=3))
        assert len(space) == 6
        assert any(a.speed == 0.0 and a.heading == pytest.approx(0.3) for a in space)

    def test_heading_extremes(self):
        st = make_state(orientation=0.0)
        rules = StepRules(turn_rate_limit=math.pi / 3, dt=0.5, n_speeds=2, n_headings=3)
        space = sample_action_space(st, rules)
        headings = sorted({a.heading for a in space})
        assert headings[0] == pytest.approx(-math.pi / 6)
        assert headings[-1] == pytest.approx(math.pi / 6)

    def test_constraints_hold_for_all_actions(self, rng):
        rules = StepRules(turn_rate_limit=1.2, dt=0.4, n_speeds=4, n_headings=6)
        for _ in range(50):
            ori = float(rng.uniform(-math.pi, math.pi))
            st = make_state(vmax=float(rng.uniform(1, 9)), orientation=ori)
            space = sample_action_space(st, rules)
            assert len(space) == 24
            for a in space:
                assert 0.0 <= a.speed <= st.max_speed + 1e-12
                turn = abs(wrap_angle(a.heading - ori))
                assert turn <= 1.2 * 0.4 + 1e-9
            # keep-heading action present even with an even heading count
            assert any(a.heading == pytest.approx(wrap_angle(ori)) for a in space)

    @settings(max_examples=300, deadline=None)
    @given(
        orientation=hst.floats(-10.0, 10.0),
        vmax=hst.floats(0.1, 20.0),
        dt=hst.floats(0.05, 2.0),
        turn_rate=hst.floats(0.01, 3.0),
        n_speeds=hst.integers(2, 5),
        n_headings=hst.integers(3, 9),
    )
    def test_action_grid_matches_scalar_path(
        self, orientation, vmax, dt, turn_rate, n_speeds, n_headings
    ):
        st = make_state(vmax=vmax, orientation=orientation)
        rules = StepRules(dt=dt, turn_rate_limit=turn_rate, n_speeds=n_speeds,
                          n_headings=n_headings)
        speeds, headings = world.action_grid(st, rules)
        # The per-action scalar construction, bit for bit.
        max_turn = rules.dt * rules.turn_rate_limit
        offsets = np.linspace(-max_turn, max_turn, n_headings)
        if not np.isclose(offsets, 0.0).any():
            offsets[np.argmin(np.abs(offsets))] = 0.0
        expected = [
            (float(s), wrap_angle(st.orientation + float(o)))
            for s in np.linspace(0.0, vmax, n_speeds)
            for o in offsets
        ]
        assert np.column_stack([speeds, headings]).tobytes() == np.array(expected).tobytes()
        space = sample_action_space(st, rules)
        assert [(a.speed, a.heading) for a in space] == expected

    @settings(max_examples=100, deadline=None)
    @given(
        agents=hst.lists(hst.tuples(hst.floats(0.1, 20.0), hst.floats(-10.0, 10.0)),
                         min_size=1, max_size=6),
        dt=hst.floats(0.05, 2.0),
        turn_rate=hst.floats(0.01, 3.0),
        n_speeds=hst.integers(2, 5),
        n_headings=hst.integers(3, 9),
    )
    def test_action_grids_equal_per_state_grids(self, agents, dt, turn_rate, n_speeds,
                                                n_headings):
        states = [make_state(vmax=v, orientation=o) for v, o in agents]
        rules = StepRules(dt=dt, turn_rate_limit=turn_rate, n_speeds=n_speeds,
                          n_headings=n_headings)
        speeds, headings = world.action_grids(states, rules)
        assert speeds.shape == headings.shape == (len(states), n_speeds * n_headings)
        for st, s, h in zip(states, speeds, headings):
            one_s, one_h = world.action_grid(st, rules)
            assert s.tobytes() == one_s.tobytes() and h.tobytes() == one_h.tobytes()

    @settings(max_examples=500)
    @given(hst.lists(hst.one_of(hst.floats(-100.0, 100.0),
                                hst.floats(allow_nan=False, allow_infinity=False)),
                     min_size=1, max_size=20))
    @example([math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0, 2 * math.pi])
    @example([math.nextafter(s * math.pi, d) for s in (1, -1) for d in (-math.inf, math.inf)]
             + [k * 2 * math.pi for k in (-1e6, -3, -1, 1, 3, 1e6)])
    def test_wrap_angles_matches_scalar(self, angles):
        """Bit for bit, not a last-ulp twin: np.mod is math.fmod plus the +2*pi
        fix-up that wrap_angle applies, and a zero remainder (+0.0 from np.mod,
        either sign from fmod) takes wrap_angle's <= 0 branch either way."""
        got = world.wrap_angles(np.array(angles))
        assert got.tobytes() == np.array([wrap_angle(a) for a in angles]).tobytes()


class TestPropagate:
    def test_zero_speed_holds(self):
        st = make_state(pos=(1, 2))
        out = propagate(st, Action(0.0, 1.0), 0.5)
        assert out.position == (1, 2)
        assert out.orientation == 1.0

    def test_straight_step(self):
        st = make_state(pos=(0, 0))
        out = propagate(st, Action(2.0, 0.0), 0.5)
        assert out.position == pytest.approx((1.0, 0.0))
        assert out.velocity == pytest.approx((2.0, 0.0))

    def test_snap_to_destination(self):
        st = make_state(pos=(49.9, 0), dest=(50, 0))
        out = propagate(st, Action(2.0, 0.0), 0.5, arrival_tolerance=0.2)
        assert out.arrived
        assert out.position == (50.0, 0.0)
        assert out.velocity == (0.0, 0.0)

    def test_snap_on_pass_through(self):
        # Destination inside the step segment but far from the endpoint.
        st = make_state(pos=(0, 0), dest=(1, 0), vmax=8.0)
        out = propagate(st, Action(8.0, 0.0), 0.5, arrival_tolerance=0.2)
        assert out.arrived and out.position == (1.0, 0.0)

    def test_speed_limit_preserved(self, rng):
        for _ in range(50):
            st = make_state(vmax=float(rng.uniform(1, 9)))
            for a in sample_action_space(st, RULES):
                out = propagate(st, a, RULES.dt)
                assert math.hypot(*out.velocity) <= st.max_speed + 1e-12


class TestMinFutureDistance:
    """Closest approach of two agents over one step: segment_closest_approach."""

    def test_parallel_constant_gap(self):
        d = segment_closest_approach((0.0, 0.0), (3.0, 0.0), (0.0, 5.0), (3.0, 0.0), 0.5)
        assert d == pytest.approx(5.0)

    def test_head_on_closing(self):
        # Gap 2, closing speed 2, window 0.5 -> minimum 1 at the window end.
        d = segment_closest_approach((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (-1.0, 0.0), 0.5)
        assert d == pytest.approx(1.0)

    def test_matches_dense_sampling_oracle(self, rng):
        for _ in range(200):
            p1 = rng.uniform(-10, 10, 2)
            v1 = rng.uniform(-5, 5, 2)
            p2 = rng.uniform(-10, 10, 2)
            v2 = rng.uniform(-5, 5, 2)
            dt = float(rng.uniform(0.1, 2.0))
            got = segment_closest_approach(tuple(p1), tuple(v1), tuple(p2), tuple(v2), dt)
            ts = np.linspace(0, dt, 2001)
            dense = np.min(
                np.hypot(
                    p1[0] + ts * v1[0] - p2[0] - ts * v2[0],
                    p1[1] + ts * v1[1] - p2[1] - ts * v2[1],
                )
            )
            assert got <= dense + 1e-9
            assert got == pytest.approx(dense, abs=1e-4)


class TestRewards:
    def test_connectivity_gating(self):
        levels = np.array([0, 1, 2])
        none, no = np.zeros(3), np.zeros(3, dtype=bool)
        assert transition_rewards(levels, True, none, no, 0.0).tolist() == [-1.0, -0.5, 0.0]
        assert transition_rewards(levels, False, none, no, 0.0).tolist() == [0.0] * 3

    def test_collision_band_values(self):
        assert collision_ramp(1.0 - 0.5 - 0.5) == -1.0
        assert collision_ramp(1.1 - 0.5 - 0.5) == pytest.approx(-0.5)
        assert collision_ramp(1.2 - 0.5 - 0.5) == pytest.approx(0.0)
        assert collision_ramp(5.0 - 0.5 - 0.5) == 0.0

    def test_collision_continuity_and_monotonicity(self, rng):
        for _ in range(200):
            r_i, r_j = rng.uniform(0.1, 1.0, 2)
            base = r_i + r_j
            d = float(rng.uniform(base, base + 0.4))
            eps = 1e-9
            a = collision_ramp(d - r_i - r_j)
            b = collision_ramp(d + eps - r_i - r_j)
            assert b >= a
            assert abs(b - a) < 1e-6

    def test_total_is_component_sum(self, rng):
        for _ in range(100):
            gated = bool(rng.random() < 0.5)
            levels = rng.integers(0, 3, 4)
            coll = collision_ramp(rng.uniform(-0.1, 0.3, 4))
            arrived = rng.random(4) < 0.3
            got = transition_rewards(levels, gated, coll, arrived, -0.05)
            for k in range(4):
                conn = float(world.CONNECTIVITY_BANDS[levels[k]]) if gated else 0.0
                bonus = world.ARRIVAL_BONUS if arrived[k] else 0.0
                assert got[k] == conn + float(coll[k]) + bonus + -0.05
        assert world.ARRIVAL_BONUS == 2.0


class TestStepAll:
    def test_pass_through_collision_detected(self, strong_env):
        cfg = two_agent_config([(0, 0), (4, 0)], [(40, 0), (-40, 0)], vmax=8.0)
        ep = EpisodeState(uavs=cfg.initial_states())
        # Full-speed head-on: they swap sides within one step, crossing mid-segment.
        actions = [Action(8.0, 0.0), Action(8.0, math.pi)]
        ep2, rewards, flags = step_one(ep, actions, strong_env)
        assert flags.collided.tolist() == [True, True]
        assert rewards == [0.0 + -1.0 + 0.0 + RULES.movement_penalty] * 2
        assert ep2.any_collision

    def test_straight_run_arrives_in_kinematic_steps(self, strong_env):
        dist, vmax, dt = 30.0, 4.0, 0.5
        cfg = two_agent_config([(0, 0)], [(dist, 0)], vmax=vmax)
        ep = EpisodeState(uavs=cfg.initial_states())
        expected_steps = math.ceil(dist / (vmax * dt))
        steps = 0
        while not ep.all_arrived:
            ep, _, _ = step_one(ep, [Action(vmax, 0.0)] if not ep.uavs[0].arrived else [None],
                                strong_env, StepRules(dt=dt))
            steps += 1
            assert steps <= expected_steps
        assert steps == expected_steps

    def test_disconnection_flag_on_gated_failure(self):
        env = single_station_env(tx_power=1e-9)  # hopeless coverage
        cfg = two_agent_config([(0, 0)], [(40, 0)])
        ep = EpisodeState(uavs=cfg.initial_states())
        ep, rewards, flags = step_one(ep, [Action(4.0, 0.0)], env)  # t=0 gated
        assert flags.disconnected.tolist() == [True]
        assert rewards == [-1.0 + 0.0 + 0.0 + RULES.movement_penalty]
        assert ep.ever_disconnected == [True]
        ep, rewards, flags = step_one(ep, [Action(4.0, 0.0)], env)  # t=1 not gated
        assert flags.disconnected.tolist() == [False]
        assert rewards == [RULES.movement_penalty]
        assert ep.ever_disconnected == [True]

    def test_arrived_agents_hold_and_are_ignored(self, strong_env):
        cfg = two_agent_config([(0, 0), (10, 0)], [(0.5, 0), (-40, 0)], vmax=4.0)
        ep = EpisodeState(uavs=cfg.initial_states())
        ep, rewards, flags = step_one(ep, [Action(4.0, 0.0), Action(4.0, math.pi)],
                                      strong_env)
        assert flags.arrived.tolist() == [True, False]
        assert rewards[0] == 0.0 + 0.0 + world.ARRIVAL_BONUS + RULES.movement_penalty
        # Arrived agent 0 sits at its destination; agent 1 passes right through it.
        for _ in range(3):
            ep, rewards, flags = step_one(ep, [None, Action(4.0, math.pi)], strong_env)
            assert flags.arrived.tolist() == [True, False]
            assert flags.collided.tolist() == [False, False]
            assert rewards == [0.0, RULES.movement_penalty]
        assert ep.uavs[0].position == (0.5, 0.0)

    def test_action_count_and_none_mismatch_rejected(self, strong_env):
        cfg = two_agent_config([(0, 0), (10, 0)], [(40, 0), (-40, 0)])
        ep = EpisodeState(uavs=cfg.initial_states())
        with pytest.raises(ValueError):
            step_one(ep, [Action(1.0, 0.0)], strong_env)
        with pytest.raises(ValueError):
            step_one(ep, [Action(1.0, 0.0), None], strong_env)

    def test_deterministic(self, strong_env):
        cfg = two_agent_config([(0, 0), (10, 5)], [(40, 0), (-40, 5)])
        runs = []
        for _ in range(2):
            ep = EpisodeState(uavs=cfg.initial_states())
            ep, rewards, _ = step_one(
                ep, [Action(3.0, 0.1), Action(2.0, math.pi - 0.1)], strong_env
            )
            runs.append((tuple(ep.uavs[0].position), rewards))
        assert runs[0] == runs[1]


class TestStepAllCollisionProperty:
    """step_all's per-agent collision results against the scalar pair functions."""

    @settings(max_examples=300, deadline=None)
    @given(
        agents=hst.lists(
            hst.tuples(
                hst.floats(-2.0, 2.0), hst.floats(-2.0, 2.0),  # start
                hst.floats(0.1, 1.0),  # radius
                hst.floats(0.0, 6.0), hst.floats(-math.pi, math.pi),  # speed, heading
            ),
            min_size=2, max_size=4,
        )
    )
    def test_worst_pair_and_contact_match_scalar_pairs(self, agents):
        starts = [(x, y) for x, y, _, _, _ in agents]
        radii = [r for _, _, r, _, _ in agents]
        for i in range(len(agents)):
            for j in range(i + 1, len(agents)):
                gap = math.hypot(starts[i][0] - starts[j][0], starts[i][1] - starts[j][1])
                assume(gap > radii[i] + radii[j])
        cfg = ScenarioConfig(
            starts=tuple(starts),
            destinations=tuple((100.0 + 10 * k, 100.0) for k in range(len(agents))),
            radii=tuple(radii), max_speeds=(6.0,) * len(agents),
        )
        actions = [Action(v, h) for _, _, _, v, h in agents]
        ep = EpisodeState(uavs=cfg.initial_states())
        env = single_station_env(tx_power=1e6)
        ep2, rewards, flags = step_one(ep, actions, env)
        levels = radio.quantize_many(ep2.sinr, env)
        for i in range(len(agents)):
            dists = {
                j: segment_closest_approach(starts[i], actions[i].velocity(), starts[j],
                                            actions[j].velocity(), RULES.dt)
                for j in range(len(agents)) if j != i
            }
            worst = min(0.0, min(float(collision_ramp(d - radii[i] - radii[j]))
                                 for j, d in dists.items()))
            conn = float(world.CONNECTIVITY_BANDS[levels[i]])  # t = 0 is gated
            assert rewards[i] == conn + worst + 0.0 + RULES.movement_penalty
            assert flags.collided[i] == any(
                d <= radii[i] + radii[j] for j, d in dists.items()
            )


def reference_step_terms(state, actions, nxt, sinr_next, env, rules):
    """Per agent, the scalar reward terms of its step (connectivity, collision,
    arrival, movement), or None for an agent that had arrived before the step.

    The connectivity band comes from the level thresholds on gated steps, the
    collision term is the worst pair penalty by a Python min from 0.0 over the
    active partners in index order, and the arrival bonus is 2.0.
    """
    prev = state.uavs
    out = []
    for i, uav in enumerate(prev):
        if uav.arrived:
            out.append(None)
            continue
        s = float(sinr_next[i])
        if state.t % rules.n_t != 0:
            conn = 0.0
        elif s < env.sinr_threshold:
            conn = -1.0
        elif s < env.sinr_threshold + env.margin:
            conn = -0.5
        else:
            conn = 0.0
        worst = 0.0
        for j, other in enumerate(prev):
            if j == i or other.arrived:
                continue
            d = segment_closest_approach(uav.position, actions[i].velocity(), other.position,
                                         actions[j].velocity(), rules.dt)
            gap = d - uav.radius - other.radius
            pen = -1.0 if gap <= 0.0 else -(1.0 - gap / 0.2) if gap <= 0.2 else 0.0
            worst = min(worst, pen)
        out.append((conn, worst, 2.0 if nxt[i].arrived else 0.0, rules.movement_penalty))
    return out


def random_step(rng, n, **rules_kw):
    """One random joint step of n agents within a few metres of each other:
    about a quarter have arrived and hold, half the others head straight for
    their nearby destination.  Returns (state, actions, rules), the rules
    with a random movement penalty."""
    center = rng.uniform(-60.0, 60.0, 2)
    # Radii off a round grid keep the ramp's low bits busy.
    radii = tuple(float(r) for r in rng.uniform(0.3, 0.8, n))
    starts = []
    while len(starts) < n:
        p = tuple(center + rng.uniform(-2.0, 2.0, 2))
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > radii[len(starts)] + radii[k]
               for k, q in enumerate(starts)):
            starts.append(p)
    dests = [tuple(np.add(p, rng.uniform(-3.0, 3.0, 2))) for p in starts]
    cfg = ScenarioConfig(starts=tuple(starts), destinations=tuple(dests),
                         radii=radii, max_speeds=(6.0,) * n)
    rules = StepRules(movement_penalty=float(rng.uniform(-0.1, 0.0)), **rules_kw)
    held = rng.random(n) < 0.25
    uavs = [replace(u, position=u.destination, arrived=True) if h else u
            for u, h in zip(cfg.initial_states(), held)]
    state = EpisodeState(uavs=uavs, t=int(rng.integers(0, 8)))
    actions = [None if h else Action(
        float(rng.uniform(0.0, 6.0)),
        u.orientation if rng.random() < 0.5 else float(rng.uniform(-math.pi, math.pi)),
    ) for u, h in zip(uavs, held)]
    return state, actions, rules


class TestStepAllRewardsBitForBit:
    def test_random_steps_equal_the_scalar_reference(self):
        rng = np.random.default_rng(2024)
        env = single_station_env(jammer=radio.Jammer(position=(20.0, 0.0), tx_power=1e-4))
        seen = dict.fromkeys(("contact", "ramp", "arrival", "held", "gated", "ungated",
                              "band, ramp and arrival"), 0)
        seen_levels = set()
        for _ in range(3000):
            state, actions, rules = random_step(rng, int(rng.integers(1, 5)))
            held = np.array([a is None for a in actions])
            nxt, rewards, _ = step_one(state, actions, env, rules)
            terms = reference_step_terms(state, actions, nxt.uavs, nxt.sinr, env, rules)
            expected = [0.0 if k is None else k[0] + k[1] + k[2] + k[3] for k in terms]
            assert rewards == expected
            assert [r.hex() for r in rewards] == [e.hex() for e in expected]
            live = [k for k in terms if k is not None]
            seen["contact"] += any(k[1] == -1.0 for k in live)
            seen["ramp"] += any(-1.0 < k[1] < 0.0 for k in live)
            seen["arrival"] += any(k[2] for k in live)
            seen["band, ramp and arrival"] += any(k[0] and -1.0 < k[1] < 0.0 and k[2]
                                                  for k in live)
            seen["held"] += bool(held.any())
            seen["gated" if state.t % rules.n_t == 0 else "ungated"] += 1
            seen_levels.update(radio.quantize_many(nxt.sinr, env)[~held].tolist())
        assert min(seen.values()) > 0, seen
        assert seen_levels == {0, 1, 2}


class TestStepAllBatch:
    """One step_all over a batch of episodes against a step of each alone."""

    ENV = single_station_env(jammer=radio.Jammer(position=(20.0, 0.0), tx_power=1e-4))

    @settings(max_examples=150, deadline=None)
    @given(
        dt=hst.sampled_from((0.3, 0.5, 0.8)), n_t=hst.integers(1, 4),
        episodes=hst.lists(hst.tuples(hst.integers(1, 4), hst.integers(0, 2**32 - 1)),
                           min_size=1, max_size=6),
    )
    def test_batch_equals_one_episode_at_a_time(self, dt, n_t, episodes):
        steps = [random_step(np.random.default_rng(seed), n, dt=dt, n_t=n_t)
                 for n, seed in episodes]
        states, actions, _ = (list(part) for part in zip(*steps))
        rules = steps[0][2]
        batch = step_all(states, actions, self.ENV, rules)
        assert [len(part) for part in batch] == [len(steps)] * 3
        for b, (nxt, rewards, flags) in enumerate(zip(*batch)):
            one, one_rewards, one_flags = step_one(states[b], actions[b], self.ENV, rules)
            assert nxt == one  # agents, t and the ever-flags
            assert nxt.sinr.tobytes() == one.sinr.tobytes()
            assert [r.hex() for r in rewards] == [r.hex() for r in one_rewards]
            for got, want in zip(flags, one_flags):
                assert got.dtype == want.dtype == bool
                assert got.tobytes() == want.tobytes()

    def test_batch_reaches_every_case(self):
        """The drawn steps mix arrived agents, contacts, and gated and ungated
        episodes."""
        rng = np.random.default_rng(5)
        steps = [random_step(rng, 4, dt=0.8, n_t=3) for _ in range(6)]
        states, actions, _ = (list(part) for part in zip(*steps))
        rules = steps[0][2]
        nxt, _, flags = step_all(states, actions, self.ENV, rules)
        assert any(a is None for acts in actions for a in acts)
        assert any(f.collided.any() for f in flags)
        assert {s.t % rules.n_t == 0 for s in states} == {True, False}
        assert all(ep.t == s.t + 1 for ep, s in zip(nxt, states))

    def test_length_mismatch_rejected(self, strong_env):
        cfg = two_agent_config([(0, 0)], [(40, 0)])
        ep = EpisodeState(uavs=cfg.initial_states())
        with pytest.raises(ValueError, match="lengths differ"):
            step_all([ep, ep], [[Action(1.0, 0.0)]], strong_env, RULES)


class TestScenarioConfig:
    def test_rejects_overlapping_starts(self):
        with pytest.raises(ValueError):
            two_agent_config([(0, 0), (0.5, 0)], [(40, 0), (-40, 0)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                starts=((0, 0),), destinations=((1, 1), (2, 2)),
                radii=(0.5,), max_speeds=(4.0,),
            )

    def test_initial_states_face_destination(self):
        cfg = two_agent_config([(0, 0)], [(0, 30)])
        st = cfg.initial_states()[0]
        assert st.orientation == pytest.approx(math.pi / 2)

    def test_holds_only_the_mission(self):
        assert [f.name for f in fields(ScenarioConfig)] == [
            "starts", "destinations", "radii", "max_speeds"]


class TestStepRules:
    @pytest.mark.parametrize("bad", [
        {"dt": 0.0}, {"dt": -0.5}, {"n_t": 0}, {"max_episode_steps": 0},
        {"n_speeds": 1}, {"n_headings": 2},
    ], ids=["zero-dt", "negative-dt", "zero-n_t", "zero-step-cap", "one-speed", "two-headings"])
    def test_rejects_bad_rules(self, bad):
        with pytest.raises(ValueError):
            StepRules(**bad)


class TestTrajectoryFormat:
    def test_row_schema(self):
        st = make_state(pos=(1.5, -2.5), vel=(1.0, 0.0))
        row = world.format_trajectory_row(3, 7, 1, st, -2.5, 1, False, True, False)
        parts = row.split(",")
        assert len(parts) == len(world.TRAJECTORY_COLUMNS.split(","))
        assert parts[0] == "3" and parts[1] == "7" and parts[2] == "1"
        assert float(parts[3]) == 1.5 and float(parts[8]) == 1.0
        assert parts[9:] == ["0", "1", "0"]


class TestRolloutRecordsTrueLevels:
    """Frames, terminal frames and trajectory rows read the episode's own SINR;
    each level must be the ground truth at the recorded position."""

    # A disc of level 2 around the station, rimmed by level 1, then level 0.
    ENV = single_station_env(tx_power=1.0, jammer=radio.Jammer(position=(10.0, 0.0),
                                                                tx_power=1e-3))
    # Two agents fly out of the disc; the third arrives in one step.
    SCENARIO = ScenarioConfig(
        starts=((-18.0, -10.0), (-20.0, 0.0), (-1.5, 25.0)),
        destinations=((-38.0, -10.0), (-40.0, 0.0), (0.0, 25.0)),
        radii=(0.5,) * 3, max_speeds=(4.0,) * 3,
    )
    RULES = StepRules(max_episode_steps=20)

    def spy_frames(self, monkeypatch):
        made = {}  # id(frame) -> (position, frame); holding the frame keeps its id unique
        real = world.to_agent_frame

        def spy(state, neighbors, sinr_level, j_n):
            frame = real(state, neighbors, sinr_level, j_n)
            made[id(frame)] = (state.position, frame)
            return frame

        monkeypatch.setattr(world, "to_agent_frame", spy)
        return made

    def check(self, run, made):
        truth = partial(radio.levels, self.ENV)
        recorded = [f for frames in run.frames for f in frames] + [f for _, f in run.terminals]
        assert run.terminals and len(recorded) == len(made)
        for frame in recorded:
            position, _ = made[id(frame)]
            assert frame[-1] == truth(np.array(position))
        assert {int(f[-1]) for f in recorded} == {0, 1, 2}

    def test_training_episode(self, monkeypatch):
        made = self.spy_frames(monkeypatch)
        runs = []
        real_rollout = world.rollout

        def recording_rollout(*args, **kwargs):
            out = real_rollout(*args, **kwargs)
            runs.extend(out)
            return out

        monkeypatch.setattr(world, "rollout", recording_rollout)
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"),
                                 np.random.default_rng(2))
        buf = valuetrain.ReplayBuffer(1000)
        log = valuetrain.run_episode(net, self.ENV, self.SCENARIO, self.RULES, 0.5, buf,
                                     np.random.default_rng(1), 0.95)
        assert any(log.arrived)
        (run,) = runs
        self.check(run, made)
        # The buffer holds each agent's frames, then its terminal frame.
        terminals = dict(run.terminals)
        levels = [f[-1] for i, frames in enumerate(run.frames)
                  for f in frames + ([terminals[i]] if i in terminals else [])]
        assert buf.arrays()[0][:, -1].tolist() == levels

    def test_orca_episode(self, monkeypatch):
        made = self.spy_frames(monkeypatch)
        run = orca.run_orca_episode(self.SCENARIO, self.RULES, self.ENV)
        assert all(u.arrived for u in run.final.uavs)
        self.check(run, made)

    def test_initial_trajectory_rows(self):
        rows = []
        policy = nav.NavPolicy(neuro.init_network(
            neuro.dense_specs(34, (8,), 1, "relu", "tanh"), np.random.default_rng(2)),
            partial(radio.levels, self.ENV), 0.95)
        nav.run_trial(policy, self.SCENARIO, self.RULES, self.ENV, trajectory=rows)
        sinr = radio.sinr_many(self.ENV, np.array(self.SCENARIO.starts))
        levels = radio.quantize_many(sinr, self.ENV)
        first = [row.split(",") for row in rows if row.split(",")[1] == "0"]
        assert [int(parts[2]) for parts in first] == [0, 1, 2]
        for parts, s, level in zip(first, sinr.tolist(), levels.tolist()):
            assert float(parts[7]) == 10.0 * math.log10(s)
            assert int(parts[8]) == level
