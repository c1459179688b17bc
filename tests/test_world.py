import math

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from uavnav import radio, world
from uavnav.world import (
    Action,
    EpisodeState,
    RewardBreakdown,
    ScenarioConfig,
    UavState,
    propagate,
    reward_collision,
    reward_connectivity,
    reward_total,
    sample_action_space,
    segment_closest_approach,
    step_all,
    to_agent_frame,
    wrap_angle,
)

from conftest import single_station_env


def make_state(pos=(0, 0), vel=(0, 0), dest=(50, 0), vmax=6.0, radius=0.5, orientation=0.0):
    return UavState(
        position=pos, velocity=vel, radius=radius, destination=dest,
        max_speed=vmax, orientation=orientation,
    )


def two_agent_config(starts, dests, vmax=6.0, **kw):
    n = len(starts)
    return ScenarioConfig(
        starts=tuple(starts), destinations=tuple(dests),
        radii=(0.5,) * n, max_speeds=(vmax,) * n, **kw,
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
        cfg = two_agent_config([(0, 0)], [(50, 0)])
        space = sample_action_space(st, cfg, n_speeds=2, n_headings=3)
        assert len(space) == 6
        assert any(a.speed == 0.0 and a.heading == pytest.approx(0.3) for a in space)

    def test_heading_extremes(self):
        st = make_state(orientation=0.0)
        cfg = two_agent_config([(0, 0)], [(50, 0)], turn_rate_limit=math.pi / 3, dt=0.5)
        space = sample_action_space(st, cfg, n_speeds=2, n_headings=3)
        headings = sorted({a.heading for a in space})
        assert headings[0] == pytest.approx(-math.pi / 6)
        assert headings[-1] == pytest.approx(math.pi / 6)

    def test_constraints_hold_for_all_actions(self, rng):
        cfg = two_agent_config([(0, 0)], [(50, 0)], turn_rate_limit=1.2, dt=0.4)
        for _ in range(50):
            ori = float(rng.uniform(-math.pi, math.pi))
            st = make_state(vmax=float(rng.uniform(1, 9)), orientation=ori)
            space = sample_action_space(st, cfg, n_speeds=4, n_headings=6)
            assert len(space) == 24
            for a in space:
                assert 0.0 <= a.speed <= st.max_speed + 1e-12
                turn = abs(wrap_angle(a.heading - ori))
                assert turn <= 1.2 * 0.4 + 1e-9
            # keep-heading action present even with an even heading count
            assert any(a.heading == pytest.approx(wrap_angle(ori)) for a in space)

    def test_rejects_tiny_grids(self):
        st = make_state()
        cfg = two_agent_config([(0, 0)], [(50, 0)])
        with pytest.raises(ValueError):
            sample_action_space(st, cfg, n_speeds=1, n_headings=3)

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
        cfg = two_agent_config([(0, 0)], [(50, 0)], dt=dt, turn_rate_limit=turn_rate)
        speeds, headings = world.action_grid(st, cfg, n_speeds, n_headings)
        # The per-action scalar construction, bit for bit.
        max_turn = cfg.dt * cfg.turn_rate_limit
        offsets = np.linspace(-max_turn, max_turn, n_headings)
        if not np.isclose(offsets, 0.0).any():
            offsets[np.argmin(np.abs(offsets))] = 0.0
        expected = [
            (float(s), wrap_angle(st.orientation + float(o)))
            for s in np.linspace(0.0, vmax, n_speeds)
            for o in offsets
        ]
        assert np.column_stack([speeds, headings]).tobytes() == np.array(expected).tobytes()
        space = sample_action_space(st, cfg, n_speeds, n_headings)
        assert [(a.speed, a.heading) for a in space] == expected

    @given(hst.lists(hst.floats(-100.0, 100.0), min_size=1, max_size=20))
    @example([math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0, 2 * math.pi])
    def test_wrap_angles_matches_scalar(self, angles):
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
        cfg = two_agent_config([(0, 0)], [(50, 0)])
        for _ in range(50):
            st = make_state(vmax=float(rng.uniform(1, 9)))
            for a in sample_action_space(st, cfg, 3, 5):
                out = propagate(st, a, cfg.dt)
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
        t_s, m = 0.5, 0.1
        assert reward_connectivity(3, 4, 0.0, t_s, m) == 0.0
        assert reward_connectivity(4, 4, 0.4, t_s, m) == -1.0
        assert reward_connectivity(4, 4, 0.55, t_s, m) == -0.5
        assert reward_connectivity(4, 4, 0.6, t_s, m) == 0.0
        assert reward_connectivity(0, 4, 0.4, t_s, m) == -1.0  # step 0 is gated
        assert reward_connectivity(4, 4, 0.5, t_s, m) == -0.5  # threshold inclusive

    def test_collision_band_values(self):
        assert reward_collision(1.0, 0.5, 0.5) == -1.0
        assert reward_collision(1.1, 0.5, 0.5) == pytest.approx(-0.5)
        assert reward_collision(1.2, 0.5, 0.5) == pytest.approx(0.0)
        assert reward_collision(5.0, 0.5, 0.5) == 0.0

    def test_collision_continuity_and_monotonicity(self, rng):
        for _ in range(200):
            r_i, r_j = rng.uniform(0.1, 1.0, 2)
            base = r_i + r_j
            d = float(rng.uniform(base, base + 0.4))
            eps = 1e-9
            a = reward_collision(d, r_i, r_j)
            b = reward_collision(d + eps, r_i, r_j)
            assert b >= a
            assert abs(b - a) < 1e-6

    def test_total_is_component_sum(self, rng):
        for _ in range(100):
            t = int(rng.integers(0, 12))
            sinr = float(rng.uniform(0, 1.5))
            d = float(rng.uniform(0.5, 3.0))
            arrived = bool(rng.random() < 0.3)
            rb = reward_total(t, 4, sinr, d, 0.5, 0.5, arrived, -0.05, 0.5, 0.1)
            assert rb.total == pytest.approx(
                rb.connectivity + rb.collision + rb.arrival + rb.movement
            )
            assert rb.arrival == (2.0 if arrived else 0.0)
            assert rb.movement == -0.05


class TestStepAll:
    def test_pass_through_collision_detected(self, strong_env):
        cfg = two_agent_config([(0, 0), (4, 0)], [(40, 0), (-40, 0)], vmax=8.0)
        ep = EpisodeState(uavs=cfg.initial_states())
        # Full-speed head-on: they swap sides within one step, crossing mid-segment.
        actions = [Action(8.0, 0.0), Action(8.0, math.pi)]
        ep2, rewards, flags = step_all(ep, actions, strong_env, cfg)
        assert flags[0].collided and flags[1].collided
        assert rewards[0].collision == -1.0 and rewards[1].collision == -1.0
        assert ep2.any_collision

    def test_straight_run_arrives_in_kinematic_steps(self, strong_env):
        dist, vmax, dt = 30.0, 4.0, 0.5
        cfg = two_agent_config([(0, 0)], [(dist, 0)], vmax=vmax, dt=dt)
        ep = EpisodeState(uavs=cfg.initial_states())
        expected_steps = math.ceil(dist / (vmax * dt))
        steps = 0
        while not ep.all_arrived:
            ep, _, _ = step_all(ep, [Action(vmax, 0.0)] if not ep.uavs[0].arrived else [None],
                                strong_env, cfg)
            steps += 1
            assert steps <= expected_steps
        assert steps == expected_steps

    def test_disconnection_flag_on_gated_failure(self):
        env = single_station_env(tx_power=1e-9)  # hopeless coverage
        cfg = two_agent_config([(0, 0)], [(40, 0)])
        ep = EpisodeState(uavs=cfg.initial_states())
        ep, rewards, flags = step_all(ep, [Action(4.0, 0.0)], env, cfg)  # t=0 gated
        assert flags[0].disconnected
        assert rewards[0].connectivity == -1.0
        assert ep.ever_disconnected[0]
        assert ep.consecutive_disconnects[0] == 1
        ep, rewards, flags = step_all(ep, [Action(4.0, 0.0)], env, cfg)  # t=1 not gated
        assert not flags[0].disconnected
        assert rewards[0].connectivity == 0.0
        assert ep.consecutive_disconnects[0] == 1

    def test_arrived_agents_hold_and_are_ignored(self, strong_env):
        cfg = two_agent_config([(0, 0), (10, 0)], [(0.5, 0), (-40, 0)], vmax=4.0)
        ep = EpisodeState(uavs=cfg.initial_states())
        ep, _, flags = step_all(ep, [Action(4.0, 0.0), Action(4.0, math.pi)], strong_env, cfg)
        assert flags[0].arrived
        # Arrived agent 0 sits at its destination; agent 1 passes right through it.
        for _ in range(3):
            ep, _, flags = step_all(ep, [None, Action(4.0, math.pi)], strong_env, cfg)
            assert not flags[1].collided
        assert ep.uavs[0].position == (0.5, 0.0)

    def test_action_count_and_none_mismatch_rejected(self, strong_env):
        cfg = two_agent_config([(0, 0), (10, 0)], [(40, 0), (-40, 0)])
        ep = EpisodeState(uavs=cfg.initial_states())
        with pytest.raises(ValueError):
            step_all(ep, [Action(1.0, 0.0)], strong_env, cfg)
        with pytest.raises(ValueError):
            step_all(ep, [Action(1.0, 0.0), None], strong_env, cfg)

    def test_deterministic(self, strong_env):
        cfg = two_agent_config([(0, 0), (10, 5)], [(40, 0), (-40, 5)])
        runs = []
        for _ in range(2):
            ep = EpisodeState(uavs=cfg.initial_states())
            ep, rewards, _ = step_all(
                ep, [Action(3.0, 0.1), Action(2.0, math.pi - 0.1)], strong_env, cfg
            )
            runs.append((tuple(ep.uavs[0].position), rewards[0].total, rewards[1].total))
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
        _, rewards, flags = step_all(ep, actions, single_station_env(tx_power=1e6), cfg)
        for i in range(len(agents)):
            dists = {
                j: segment_closest_approach(starts[i], actions[i].velocity(), starts[j],
                                            actions[j].velocity(), cfg.dt)
                for j in range(len(agents)) if j != i
            }
            expected = min(0.0, min(reward_collision(d, radii[i], radii[j])
                                    for j, d in dists.items()))
            assert rewards[i].collision == expected
            assert flags[i].collided == any(
                d <= radii[i] + radii[j] for j, d in dists.items()
            )


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


class TestTrajectoryFormat:
    def test_row_schema(self):
        st = make_state(pos=(1.5, -2.5), vel=(1.0, 0.0))
        row = world.format_trajectory_row(
            3, 7, 1, st, -2.5, 1, world.StepFlags(False, True, False)
        )
        parts = row.split(",")
        assert len(parts) == len(world.TRAJECTORY_COLUMNS.split(","))
        assert parts[0] == "3" and parts[1] == "7" and parts[2] == "1"
        assert float(parts[3]) == 1.5 and float(parts[8]) == 1.0
        assert parts[9:] == ["0", "1", "0"]
