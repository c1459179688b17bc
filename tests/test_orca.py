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
from uavnav.world import ScenarioConfig, StepRules, UavState

from conftest import draw_scenario, random_env, single_station_env


def make_state(pos, vel=(0, 0), dest=(50, 0), vmax=6.0, radius=1.0):
    return UavState(
        position=pos, velocity=vel, radius=radius, destination=dest,
        max_speed=vmax, orientation=0.0,
    )


# A step cap that every swap and circle below reaches its destinations within.
RULES = StepRules(max_episode_steps=300)


def swap_scenario(gap=20.0, vmax=4.0, radius=0.5):
    return ScenarioConfig(
        starts=((-gap / 2, 0.0), (gap / 2, 0.0)),
        destinations=((gap / 2, 0.0), (-gap / 2, 0.0)),
        radii=(radius, radius),
        max_speeds=(vmax, vmax),
    )


def circle_scenario(n=4, r=15.0, vmax=4.0, radius=0.5):
    starts, dests = [], []
    for k in range(n):
        a = 2 * math.pi * k / n
        starts.append((r * math.cos(a), r * math.sin(a)))
        dests.append((-r * math.cos(a), -r * math.sin(a)))
    return ScenarioConfig(
        starts=tuple(starts), destinations=tuple(dests),
        radii=(radius,) * n, max_speeds=(vmax,) * n,
    )


# Agents see neighbors only within 4 m, so the fast swap of mixed_groups collides.
SHORT_SIGHTED = OrcaConfig(neighbor_range=4.0)


def mixed_groups():
    """(rules, scenarios) groups, each flown in one lockstep rollout: seeded
    scenarios of 1-4 agents under three dt and n_t pairs, a swap that
    collides under SHORT_SIGHTED and one that hits its step cap."""
    rng = np.random.default_rng(16)
    one, two, three, four = (draw_scenario(rng, n_agents=k, speed_range=(3.0, 8.0))
                             for k in (1, 2, 3, 4))
    return [
        (StepRules(n_t=4), [one, four, swap_scenario(gap=30.0, vmax=8.0)]),
        (StepRules(dt=0.25, n_t=3), [two]),
        (StepRules(n_t=1), [three]),
        (StepRules(dt=0.3, max_episode_steps=20), [swap_scenario(gap=60.0, vmax=3.0)]),
    ]


def permits(hp, velocity, tol=1e-12) -> bool:
    """Whether velocity lies in the permitted half-plane hp (up to tol)."""
    return ((velocity[0] - hp.point[0]) * hp.normal[0]
            + (velocity[1] - hp.point[1]) * hp.normal[1]) >= -tol


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
        assert permits(hp, me.velocity)

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
        assert not permits(hp, (0.0, 0.0))
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
        _, _, _, ep = run_orca_episode(scenario, RULES, strong_env)
        assert ep.all_arrived
        assert not ep.any_collision

    def test_four_agent_circle_no_collision(self, strong_env):
        scenario = circle_scenario()
        _, _, _, ep = run_orca_episode(scenario, RULES, strong_env)
        assert ep.all_arrived
        assert not ep.any_collision


class TestBootstrapSet:
    def test_single_agent_values_match_geometric_series(self, strong_env):
        # Straight free path: n-1 movement penalties then arrival+movement.
        dist, vmax, dt, gamma = 30.0, 4.0, 0.5, 0.9
        scenario = ScenarioConfig(
            starts=((0.0, 0.0),), destinations=((dist, 0.0),),
            radii=(0.5,), max_speeds=(vmax,),
        )
        rules = StepRules(dt=dt, movement_penalty=-0.05)
        pairs, skipped = generate_bootstrap_set([scenario], rules, strong_env, gamma)
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
            [swap_scenario()], RULES, strong_env, 0.95
        )
        assert skipped == 0
        # Collision reward never fires at -1 in any stored return: with gamma<1
        # a -1 terminal would drag values below the no-collision floor.
        assert all(v <= 2.0 for _, v in pairs)

    def test_value_range_invariant(self, strong_env, rng):
        scenarios = [draw_scenario(rng, n_agents=3) for _ in range(5)]
        rules = StepRules()
        pairs, _ = generate_bootstrap_set(scenarios, rules, strong_env, 0.95)
        cap = rules.max_episode_steps
        floor = -(cap * 2.05)  # loose floor: worst per-step penalty is > -2.05
        assert all(floor <= v <= 2.0 for _, v in pairs)
        assert all(len(vec) == 9 + 6 * 4 + 1 for vec, _ in pairs)

    def test_failing_episode_is_skipped_and_the_others_kept(self, strong_env, monkeypatch):
        bad = circle_scenario(n=3, r=12.0)
        good = [swap_scenario(), circle_scenario()]
        expected, skipped = generate_bootstrap_set(good, RULES, strong_env, 0.95)
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
        pairs, skipped = generate_bootstrap_set([good[0], bad, good[1]], RULES, strong_env,
                                                0.95)
        assert skipped == 1 and len(calls) == 8
        assert len(pairs) == len(expected)
        for (vec, value), (want_vec, want_value) in zip(pairs, expected):
            assert vec.tobytes() == want_vec.tobytes()
            assert value == want_value

    def test_over_speed_velocity_fails_only_its_episode(self, strong_env, monkeypatch):
        bad = circle_scenario(n=3, r=12.0)
        good = [swap_scenario(), circle_scenario()]
        expected, _ = generate_bootstrap_set(good, RULES, strong_env, 0.95)
        real = orca.orca_velocity

        def too_fast(self_state, neighbors, pref, config, dt):
            if self_state.destination in bad.destinations:
                # Along +x, past the 1e-9 slack UavState allows over max_speed.
                return (self_state.max_speed + 1e-6, 0.0)
            return real(self_state, neighbors, pref, config, dt)

        monkeypatch.setattr(orca, "orca_velocity", too_fast)
        pairs, skipped = generate_bootstrap_set([good[0], bad, good[1]], RULES, strong_env,
                                                0.95)
        assert skipped == 1
        with pytest.raises(ValueError, match="exceeds max_speed"):
            run_orca_episode(bad, RULES, strong_env)
        assert len(pairs) == len(expected)
        for (vec, value), (want_vec, want_value) in zip(pairs, expected):
            assert vec.tobytes() == want_vec.tobytes()
            assert value == want_value

    def test_lockstep_equals_one_episode_at_a_time(self):
        env = random_env(np.random.default_rng(4))
        levels = set()
        for rules, scenarios in mixed_groups():
            pairs, skipped = generate_bootstrap_set(scenarios, rules, env, 0.95, SHORT_SIGHTED)
            expected = []
            for scenario in scenarios:
                one, one_skipped = generate_bootstrap_set([scenario], rules, env, 0.95,
                                                          SHORT_SIGHTED)
                assert one_skipped == 0
                expected += one
            assert skipped == 0
            levels |= {int(vec[-1]) for vec, _ in pairs}
            assert len(pairs) == len(expected)
            for (vec, value), (want_vec, want_value) in zip(pairs, expected):
                assert vec.tobytes() == want_vec.tobytes()
                assert value == want_value
        assert len(levels) == 3  # every SINR level occurs

    def test_no_scenarios_give_no_pairs(self, strong_env):
        assert generate_bootstrap_set([], RULES, strong_env, 0.95) == ([], 0)

    def test_orca_episode_is_its_part_of_the_lockstep_rollout(self, monkeypatch):
        env = random_env(np.random.default_rng(4))
        groups = mixed_groups()
        runs = []
        real_rollout = world.rollout

        def recording_rollout(*args, **kwargs):
            out = real_rollout(*args, **kwargs)
            runs.extend(out)
            return out

        monkeypatch.setattr(world, "rollout", recording_rollout)
        for rules, scenarios in groups:
            generate_bootstrap_set(scenarios, rules, env, 0.95, SHORT_SIGHTED)
        flown = [(rules, scenario) for rules, scenarios in groups for scenario in scenarios]
        assert len(runs) == len(flown)
        monkeypatch.setattr(world, "rollout", real_rollout)
        collided = capped = 0
        for (rules, scenario), run in zip(flown, runs):
            alone = run_orca_episode(scenario, rules, env, SHORT_SIGHTED)
            assert [[f.tobytes() for f in fs] for fs in run.frames] == [
                [f.tobytes() for f in fs] for fs in alone.frames]
            assert run.rewards == alone.rewards
            assert [(i, f.tobytes()) for i, f in run.terminals] == [
                (i, f.tobytes()) for i, f in alone.terminals]
            assert run.final == alone.final
            assert run.final.sinr.tobytes() == alone.final.sinr.tobytes()
            collided += run.final.any_collision
            capped += run.final.t == rules.max_episode_steps and not run.final.all_arrived
        assert collided == 1 and capped == 1

    def test_export_import_round_trip(self, strong_env, tmp_path):
        from uavnav import neuro

        pairs, _ = generate_bootstrap_set([swap_scenario()], RULES, strong_env, 0.95)
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
