import math

import numpy as np
import pytest

from uavnav import orca, radio, world
from uavnav.orca import (
    HalfPlane,
    OrcaConfig,
    generate_bootstrap_set,
    orca_halfplane,
    orca_velocity,
    preferred_velocity,
    run_orca_episode,
)
from uavnav.world import ScenarioConfig, UavState

from conftest import single_station_env


def make_state(pos, vel=(0, 0), dest=(50, 0), vmax=6.0, radius=1.0):
    return UavState(
        position=pos, velocity=vel, radius=radius, destination=dest,
        max_speed=vmax, orientation=0.0,
    )


def swap_scenario(gap=20.0, vmax=4.0, radius=0.5, **kw):
    kw.setdefault("max_episode_steps", 200)
    return ScenarioConfig(
        starts=((-gap / 2, 0.0), (gap / 2, 0.0)),
        destinations=((gap / 2, 0.0), (-gap / 2, 0.0)),
        radii=(radius, radius),
        max_speeds=(vmax, vmax),
        **kw,
    )


def circle_scenario(n=4, r=15.0, vmax=4.0, radius=0.5, **kw):
    kw.setdefault("max_episode_steps", 300)
    starts, dests = [], []
    for k in range(n):
        a = 2 * math.pi * k / n
        starts.append((r * math.cos(a), r * math.sin(a)))
        dests.append((-r * math.cos(a), -r * math.sin(a)))
    return ScenarioConfig(
        starts=tuple(starts), destinations=tuple(dests),
        radii=(radius,) * n, max_speeds=(vmax,) * n, **kw,
    )


def rollout_min_pair_distance(scenario, env, config=None):
    """Continuous closest approach between any pair over a full ORCA rollout."""
    _, _, _, ep = run_orca_episode(scenario, env, config)
    return ep


class TestHalfPlane:
    def test_normal_must_be_unit(self):
        with pytest.raises(ValueError):
            HalfPlane(point=(0, 0), normal=(1.0, 1.0))

    def test_no_conflict_keeps_current_velocity(self):
        # Far neighbor, zero relative velocity: relative velocity (0,0) is
        # outside the truncated cone, so the half-plane permits it.
        me = make_state((0, 0), vel=(0, 0))
        nb = (10.0, 0.0, 0.0, 0.0, 1.0)
        hp = orca_halfplane(me, nb, tau=2.0, dt=0.5)
        assert hp.permits(me.velocity)

    def test_head_on_pair_mirror_symmetric(self):
        a = make_state((0, 0), vel=(2, 0))
        b = make_state((4, 0), vel=(-2, 0))
        hp_a = orca_halfplane(a, (4.0, 0.0, -2.0, 0.0, 1.0), tau=2.0, dt=0.5)
        hp_b = orca_halfplane(b, (0.0, 0.0, 2.0, 0.0, 1.0), tau=2.0, dt=0.5)
        assert hp_a.normal[0] == pytest.approx(-hp_b.normal[0])
        assert hp_a.normal[1] == pytest.approx(-hp_b.normal[1])
        assert hp_a.point[0] == pytest.approx(-hp_b.point[0])
        assert hp_a.point[1] == pytest.approx(-hp_b.point[1])

    def test_leg_normal_matches_cone_tangent_oracle(self):
        # Gap 4, radii 1+1, tau 2, closing 2 m/s toward a stationary neighbor.
        me = make_state((0, 0), vel=(2, 0))
        nb = (4.0, 0.0, 0.0, 0.0, 1.0)
        hp = orca_halfplane(me, nb, tau=2.0, dt=0.5)
        # Independent construction: cone tangents from the origin to the disc
        # at rel_pos with combined radius; relative velocity rides on the lower
        # (right) leg, whose outward normal is the tangent rotated -90 deg.
        half_angle = math.asin(2.0 / 4.0)
        tangent_angle = 0.0 - half_angle  # rel_pos is along +x
        outward = tangent_angle - math.pi / 2.0
        assert hp.normal[0] == pytest.approx(math.cos(outward))
        assert hp.normal[1] == pytest.approx(math.sin(outward))

    def test_collision_branch_pushes_apart(self):
        me = make_state((0, 0), vel=(0, 0))
        nb = (1.0, 0.0, 0.0, 0.0, 1.0)  # overlapping discs (combined radius 2)
        hp = orca_halfplane(me, nb, tau=2.0, dt=0.5)
        # Escape half-plane must exclude staying put.
        assert not hp.permits((0.0, 0.0))
        # The permitted side points away from the neighbor.
        assert hp.normal[0] < 0


class TestOrcaVelocity:
    def test_no_neighbors_returns_preferred(self):
        me = make_state((0, 0))
        v = orca_velocity(me, [], (3.0, 1.0), OrcaConfig(), dt=0.5)
        assert v == pytest.approx((3.0, 1.0))

    def test_out_of_range_neighbors_ignored(self):
        me = make_state((0, 0))
        nb = (100.0, 0.0, -4.0, 0.0, 1.0)
        v = orca_velocity(me, [nb], (3.0, 1.0), OrcaConfig(neighbor_range=15.0), dt=0.5)
        assert v == pytest.approx((3.0, 1.0))

    def test_speed_never_exceeds_max(self, rng):
        cfg = OrcaConfig()
        for _ in range(100):
            me = make_state(tuple(rng.uniform(-5, 5, 2)), vmax=float(rng.uniform(1, 6)))
            nbs = [
                tuple(rng.uniform(-8, 8, 2)) + tuple(rng.uniform(-4, 4, 2)) + (1.0,)
                for _ in range(int(rng.integers(0, 5)))
            ]
            pref = tuple(rng.uniform(-me.max_speed, me.max_speed, 2))
            v = orca_velocity(me, nbs, pref, cfg, dt=0.5)
            assert math.hypot(*v) <= me.max_speed + 1e-9

    def test_interior_preferred_velocity_unchanged(self):
        me = make_state((0, 0), vel=(0, 0), vmax=6.0)
        nb = (10.0, 0.0, 0.0, 0.0, 1.0)
        # Preferred velocity pointing away from the neighbor is feasible.
        v = orca_velocity(me, [nb], (-2.0, 0.5), OrcaConfig(), dt=0.5)
        assert v == pytest.approx((-2.0, 0.5))

    def test_symmetric_pair_deflects_mirror(self):
        a = make_state((-5, 0), vel=(4, 0), dest=(5, 0), vmax=4.0)
        b = make_state((5, 0), vel=(-4, 0), dest=(-5, 0), vmax=4.0)
        va = orca_velocity(a, [b.observable], (4.0, 0.0), OrcaConfig(), dt=0.5)
        vb = orca_velocity(b, [a.observable], (-4.0, 0.0), OrcaConfig(), dt=0.5)
        assert va[0] == pytest.approx(-vb[0], abs=1e-9)
        assert va[1] == pytest.approx(-vb[1], abs=1e-9)
        assert abs(va[1]) > 0  # lateral deflection happened


class TestRollouts:
    def test_two_agent_swap_no_collision(self, strong_env):
        scenario = swap_scenario()
        _, _, _, ep = run_orca_episode(scenario, strong_env)
        assert ep.all_arrived
        assert not ep.any_collision

    def test_four_agent_circle_no_collision(self, strong_env):
        scenario = circle_scenario()
        _, _, _, ep = run_orca_episode(scenario, strong_env)
        assert ep.all_arrived
        assert not ep.any_collision


class TestBootstrapSet:
    def test_single_agent_values_match_geometric_series(self, strong_env):
        # Straight free path: n-1 movement penalties then arrival+movement.
        dist, vmax, dt, gamma = 30.0, 4.0, 0.5, 0.9
        scenario = ScenarioConfig(
            starts=((0.0, 0.0),), destinations=((dist, 0.0),),
            radii=(0.5,), max_speeds=(vmax,), dt=dt, movement_penalty=-0.05,
        )
        pairs, skipped = generate_bootstrap_set([scenario], strong_env, gamma)
        assert skipped == 0
        n_steps = math.ceil(dist / (vmax * dt))
        assert len(pairs) == n_steps + 1  # visited states + arrived terminal
        for t in range(n_steps):
            m = n_steps - t
            expected = -0.05 * (1 - gamma**m) / (1 - gamma) + 2.0 * gamma ** (m - 1)
            assert pairs[t][1] == pytest.approx(expected, rel=1e-12)
        assert pairs[-1][1] == 0.0  # terminal state: empty future

    def test_two_agent_swap_zero_collisions_recorded(self, strong_env):
        pairs, skipped = generate_bootstrap_set(
            [swap_scenario()], strong_env, 0.95
        )
        assert skipped == 0
        # Collision reward never fires at -1 in any stored return: with gamma<1
        # a -1 terminal would drag values below the no-collision floor.
        assert all(v <= 2.0 for _, v in pairs)

    def test_value_range_invariant(self, strong_env, rng):
        from uavnav.valuetrain import sample_scenario

        scenarios = [sample_scenario(rng, n_agents=3) for _ in range(5)]
        pairs, _ = generate_bootstrap_set(scenarios, strong_env, 0.95)
        cap = scenarios[0].max_episode_steps
        floor = -(cap * 2.05)  # loose floor: worst per-step penalty is > -2.05
        assert all(floor <= v <= 2.0 for _, v in pairs)
        assert all(len(vec) == 9 + 6 * 4 + 1 for vec, _ in pairs)

    def test_failing_episode_is_skipped_and_the_others_kept(self, strong_env, monkeypatch):
        bad = circle_scenario(n=3, r=12.0)
        good = [swap_scenario(), circle_scenario()]
        expected, skipped = generate_bootstrap_set(good, strong_env, 0.95)
        assert skipped == 0 and expected
        real = orca.orca_velocity
        calls = []

        def failing(self_state, neighbors, pref, config, dt):
            # The bad episode's agents fail a few steps in, after some frames were recorded.
            if self_state.destination in bad.destinations:
                calls.append(self_state)
                if len(calls) > 7:
                    raise ValueError("degenerate half-plane")
            return real(self_state, neighbors, pref, config, dt)

        monkeypatch.setattr(orca, "orca_velocity", failing)
        pairs, skipped = generate_bootstrap_set([good[0], bad, good[1]], strong_env, 0.95)
        assert skipped == 1 and len(calls) == 8
        assert len(pairs) == len(expected)
        for (vec, value), (want_vec, want_value) in zip(pairs, expected):
            assert vec.tobytes() == want_vec.tobytes()
            assert value == want_value

    def test_export_import_round_trip(self, strong_env, tmp_path):
        from uavnav import neuro

        pairs, _ = generate_bootstrap_set([swap_scenario()], strong_env, 0.95)
        std = neuro.fit_standardizer(np.stack([p[0] for p in pairs]))
        path = tmp_path / "boot.csv"
        orca.write_bootstrap_csv(pairs, path, std, extra_comments=("digest=xyz",))
        back, std_arrays = orca.read_bootstrap_csv(path)
        assert len(back) == len(pairs)
        for (v1, t1), (v2, t2) in zip(pairs, back):
            assert t1 == t2
            assert (v1 == v2).all()
        assert np.array_equal(std_arrays[0], std.mean)
        assert np.array_equal(std_arrays[1], std.std)

    def test_preferred_velocity_caps_at_destination(self):
        st = make_state((49.0, 0.0), dest=(50.0, 0.0), vmax=6.0)
        v = preferred_velocity(st, dt=0.5)
        assert math.hypot(*v) == pytest.approx(2.0)  # 1 m remaining / 0.5 s
