import json
import math

import numpy as np
import pytest

from uavnav import nav, neuro, radio, sinrmap, valuetrain, world
from uavnav.nav import MetricsReport, NavPolicy, compare_modes, navigate_step, run_evaluation
from uavnav.world import Action, ScenarioConfig

from conftest import single_station_env


def zero_value_net(input_size=34):
    specs = neuro.dense_specs(input_size, (4,), 1, "relu", "tanh")
    return neuro.NetworkParams(
        specs=specs,
        weights=[np.zeros((input_size, 4)), np.zeros((4, 1))],
        biases=[np.zeros(4), np.zeros(1)],
        standardizer=neuro.Standardizer.identity(input_size),
    )


def trained_constant_map(env, rng, k_n=2, samples=2000, epochs=30):
    """Map model fitted on a uniform-coverage environment (labels all 2)."""
    cloud = sinrmap.MeasurementCloud(samples)
    for m in sinrmap.sample_measurements(env, samples, rng, (-40, -40, 40, 40), k_n):
        cloud.record(m)
    model = sinrmap.init_map_model(env, k_n, rng, hidden=(8,))
    model, curve = sinrmap.retrain(
        model, cloud, sinrmap.MapTrainConfig(epochs=epochs), rng
    )
    return model, curve


class StraightPolicy:
    """Always full speed at the current heading; ignores everything else."""

    def choose_actions(self, states, neighbors, env, t, scenario, gamma,
                       j_n=4, n_speeds=3, n_headings=5):
        return [Action(speed=state.max_speed, heading=state.orientation) for state in states]


class TestNavPolicy:
    def test_mode_validation(self):
        net = zero_value_net()
        with pytest.raises(ValueError):
            NavPolicy(value_net=net, mode="bogus")
        with pytest.raises(ValueError):
            NavPolicy(value_net=net, mode="proposed")
        with pytest.raises(ValueError):
            NavPolicy(value_net=net, mode="outdated")

    def test_outdated_strips_jammer(self):
        env = single_station_env(jammer=radio.Jammer(position=(1, 1), tx_power=2.0))
        pol = NavPolicy.outdated(zero_value_net(), env)
        assert pol.snapshot.jammer is None


class TestNavigateStep:
    def test_perfect_mode_equals_trainer_lookahead(self, strong_env, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        pol = NavPolicy.perfect(net)
        sc = valuetrain.sample_scenario(np.random.default_rng(2), n_agents=1)
        st = sc.initial_states()[0]
        space = world.sample_action_space(st, sc, 3, 5)
        expected = valuetrain.lookahead_select(
            net, st, [], space, valuetrain.ground_truth_oracle(strong_env), 0.95, 0, sc
        )
        (got,) = navigate_step(pol, [st], [[]], strong_env, 0, sc, 0.95)
        assert got.speed == expected.speed and got.heading == expected.heading

    def test_learned_mode_matches_perfect_on_uniform_field(self, strong_env, rng):
        model, curve = trained_constant_map(strong_env, rng)
        assert curve[-1] == 1.0  # uniform labels: regressor rounds to 2 everywhere
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        sc = valuetrain.sample_scenario(np.random.default_rng(3), n_agents=1)
        st = sc.initial_states()[0]
        for t in range(4):
            (a1,) = navigate_step(NavPolicy.learned(net, model), [st], [[]], strong_env, t, sc,
                                  0.95)
            (a2,) = navigate_step(NavPolicy.perfect(net), [st], [[]], strong_env, t, sc, 0.95)
            assert a1.speed == a2.speed and a1.heading == a2.heading
            st = world.propagate(st, a1, sc.dt, sc.arrival_tolerance)

    def test_outdated_mode_ignores_jammer(self, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        clean = single_station_env(tx_power=1e6)
        jammed = clean.with_jammer(radio.Jammer(position=(5.0, 0.0), tx_power=1e9))
        pol = NavPolicy.outdated(net, jammed)
        sc = valuetrain.sample_scenario(np.random.default_rng(4), n_agents=1)
        st = sc.initial_states()[0]
        (a_clean,) = navigate_step(pol, [st], [[]], clean, 0, sc, 0.95)
        (a_jammed,) = navigate_step(pol, [st], [[]], jammed, 0, sc, 0.95)
        assert a_clean.speed == a_jammed.speed and a_clean.heading == a_jammed.heading

    def test_rejects_arrived_agent(self, strong_env):
        sc = ScenarioConfig(starts=((0.0, 0.0),), destinations=((30.0, 0.0),),
                            radii=(0.5,), max_speeds=(4.0,))
        st = sc.initial_states()[0]
        st = world.propagate(st, Action(4.0, 0.0), 10.0, arrival_tolerance=100.0)
        with pytest.raises(ValueError):
            navigate_step(NavPolicy.perfect(zero_value_net()), [st], [[]], strong_env, 0, sc,
                          0.95)


class TestRunEvaluation:
    def test_trivial_scenario_full_success(self, strong_env):
        # Destination adjacent: the arrival reward dominates even a stub net.
        pol = NavPolicy.perfect(zero_value_net())
        adjacent = ScenarioConfig(
            starts=((0.0, 0.0),), destinations=((1.5, 0.0),),
            radii=(0.5,), max_speeds=(4.0,), max_episode_steps=20,
        )
        rep = run_evaluation(pol, strong_env, trials=4, seed=5, gamma=0.95,
                             scenarios=[adjacent])
        assert rep.success_rate == 1.0
        assert rep.disconnection_rate == 0.0
        assert rep.collision_rate == 0.0

    def test_corridor_straight_policy_always_collides(self, strong_env):
        logs = []
        for _ in range(3):
            sc = ScenarioConfig(
                starts=((-10.0, 0.0), (10.0, 0.0)),
                destinations=((10.0, 0.0), (-10.0, 0.0)),
                radii=(0.5, 0.5), max_speeds=(4.0, 4.0), max_episode_steps=60,
            )
            logs.append(nav.run_trial(StraightPolicy(), sc, strong_env, 0.95))
        rep = MetricsReport.from_trials(logs)
        assert rep.collision_rate == 1.0
        assert rep.success_rate == 0.0

    def test_rates_are_exact_rationals_and_recomputable(self, strong_env):
        pol = NavPolicy.perfect(zero_value_net())
        rep = run_evaluation(
            pol, strong_env, trials=5, seed=8, gamma=0.95,
            scenario_kwargs={"n_agents": 2, "max_episode_steps": 50},
        )
        succ = sum(sum(log.successes()) for log in rep.per_trial)
        disc = sum(sum(log.disconnected) for log in rep.per_trial)
        coll = sum(sum(log.collided) for log in rep.per_trial)
        n = sum(len(log.arrived) for log in rep.per_trial)
        assert rep.success_rate == succ / n
        assert rep.disconnection_rate == disc / n
        assert rep.collision_rate == coll / n

    def test_deterministic_reports(self, strong_env, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        pol = NavPolicy.perfect(net)
        reps = [
            run_evaluation(pol, strong_env, trials=3, seed=11, gamma=0.95,
                           scenario_kwargs={"n_agents": 2, "max_episode_steps": 60})
            for _ in range(2)
        ]
        assert nav.report_to_dict({"perfect": reps[0]}, 11) == nav.report_to_dict(
            {"perfect": reps[1]}, 11
        )


class TestCompareModes:
    def test_jammer_off_modes_identical(self, strong_env, rng):
        model, _ = trained_constant_map(strong_env, rng)
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        reports = compare_modes(
            net, model, strong_env, trials=3, seed=21, gamma=0.95,
            scenario_kwargs={"n_agents": 2, "max_episode_steps": 80},
        )
        base = nav.report_to_dict({"m": reports["perfect"]}, 21)["modes"]["m"]
        for mode in ("proposed", "outdated"):
            other = nav.report_to_dict({"m": reports[mode]}, 21)["modes"]["m"]
            assert other == base

    def test_proposed_requires_map(self, strong_env):
        with pytest.raises(ValueError):
            compare_modes(zero_value_net(), None, strong_env, trials=1, seed=1, gamma=0.9)

    def test_report_json_round_trip(self, strong_env, tmp_path):
        pol = NavPolicy.perfect(zero_value_net())
        rep = run_evaluation(pol, strong_env, trials=2, seed=3, gamma=0.95,
                             scenario_kwargs={"n_agents": 1, "max_episode_steps": 40})
        path = tmp_path / "report.json"
        nav.write_report_json({"perfect": rep}, path, seed=3, config_digest="beef")
        data = json.loads(path.read_text())
        assert data["config_digest"] == "beef"
        assert data["modes"]["perfect"]["agent_trials"] == rep.agent_trials
        assert data["modes"]["perfect"]["success_rate"] == rep.success_rate

    def test_trajectory_rows_schema(self, strong_env):
        pol = NavPolicy.perfect(zero_value_net())
        rows = []
        run_evaluation(pol, strong_env, trials=1, seed=4, gamma=0.95,
                       scenario_kwargs={"n_agents": 2, "max_episode_steps": 30},
                       trajectory=rows)
        assert rows
        n_cols = len(world.TRAJECTORY_COLUMNS.split(","))
        for row in rows:
            assert len(row.split(",")) == n_cols


class RecklessLookahead:
    """A policy's lookahead, except that agents whose top speed is RECKLESS fly
    straight at it; logs the step, neighbor counts and dt of every call."""

    RECKLESS = 7.25

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def choose_actions(self, states, neighbors, env, t, scenario, gamma,
                       j_n=4, n_speeds=3, n_headings=5):
        self.calls.append((t, tuple(len(nbs) for nbs in neighbors), scenario.dt))
        picked = self.inner.choose_actions(states, neighbors, env, t, scenario, gamma,
                                           j_n, n_speeds, n_headings)
        return [Action(speed=s.max_speed, heading=s.orientation) if s.max_speed == self.RECKLESS
                else a for s, a in zip(states, picked)]


class TestLockstep:
    def scenarios(self):
        fast = RecklessLookahead.RECKLESS
        head_on = ScenarioConfig(
            starts=((-10.0, 0.0), (10.0, 0.0)), destinations=((10.0, 0.0), (-10.0, 0.0)),
            radii=(0.5, 0.5), max_speeds=(fast, fast), max_episode_steps=60,
        )
        capped = ScenarioConfig(starts=((0.0, 0.0),), destinations=((60.0, 0.0),),
                                radii=(0.5,), max_speeds=(4.0,), max_episode_steps=3)
        staggered = ScenarioConfig(
            starts=((0.0, 0.0), (0.0, 10.0), (0.0, 20.0)),
            destinations=((5.0, 0.0), (15.0, 10.0), (25.0, 20.0)),
            radii=(0.5,) * 3, max_speeds=(fast,) * 3, max_episode_steps=60,
        )
        sampled = valuetrain.sample_scenario(np.random.default_rng(7), n_agents=3,
                                             max_episode_steps=40)
        other_dt = valuetrain.sample_scenario(np.random.default_rng(8), n_agents=2, dt=0.4,
                                              max_episode_steps=40)
        return [head_on, capped, staggered, sampled, other_dt]

    def test_lockstep_equals_one_trial_at_a_time(self, rng):
        env = single_station_env(tx_power=2.0, jammer=radio.Jammer(position=(10.0, 5.0),
                                                                   tx_power=0.5))
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        scenarios = self.scenarios()
        policy = RecklessLookahead(NavPolicy.perfect(net))
        rows: list = []
        rep = run_evaluation(policy, env, trials=7, seed=0, gamma=0.95,
                             scenarios=scenarios, trajectory=rows)
        one_rows: list = []
        logs = []
        for trial in range(7):
            trial_rows: list = []
            logs.append(nav.run_trial(RecklessLookahead(NavPolicy.perfect(net)),
                                      scenarios[trial % 5], env, 0.95, trajectory=trial_rows))
            # run_trial numbers its rows episode 0; renumber them as trial.
            one_rows += [f"{trial}," + row.split(",", 1)[1] for row in trial_rows]
        assert rep == MetricsReport.from_trials(logs)
        assert rows == one_rows

        # The batch holds what the lockstep loop has to get right.
        head_on, capped, staggered = rep.per_trial[:3]
        assert all(head_on.collided) and head_on.steps < max(log.steps for log in logs)
        assert capped.steps == 3 and not any(capped.arrived)
        assert rep.per_trial[5:] == rep.per_trial[:2]  # the list is cycled
        first_step = {}  # (episode, agent, flag) -> first step at which the flag is set
        for row in rows:
            episode, t, agent, *_, arrived, collided, _ = row.split(",")
            for flag, value in (("arrived", arrived), ("collided", collided)):
                if value == "1":
                    first_step.setdefault((episode, agent, flag), int(t))
        assert head_on.steps == first_step["0", "0", "collided"]  # it stopped right after
        assert len({first_step["2", agent, "arrived"] for agent in "012"}) == 3
        # One call per step and dt; agents with different neighbor counts share it.
        dts_by_step: dict = {}
        for t, _, dt in policy.calls:
            dts_by_step.setdefault(t, []).append(dt)
        assert all(len(dts) == len(set(dts)) for dts in dts_by_step.values())
        assert any(sorted(dts) == [0.4, 0.5] for dts in dts_by_step.values())
        assert any(len(set(counts)) >= 3 for _, counts, _ in policy.calls)

    def test_empty_scenario_list_rejected(self, strong_env):
        with pytest.raises(ValueError, match="scenarios is an empty list"):
            run_evaluation(NavPolicy.perfect(zero_value_net()), strong_env, trials=2, seed=1,
                           gamma=0.95, scenarios=[])

    def test_group_key_covers_every_scenario_field_a_decision_reads(self, rng):
        """Agents share a lookahead call when their scenarios agree on
        ScenarioConfig.STEP_FIELDS, so one decision must read no other field."""
        sc = valuetrain.sample_scenario(np.random.default_rng(9), n_agents=3)
        read = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(sc, name)

        ep = world.EpisodeState(uavs=sc.initial_states())
        env = single_station_env(jammer=radio.Jammer(position=(10.0, 5.0), tx_power=0.5))
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        for policy in (NavPolicy.perfect(net), NavPolicy.outdated(net, env)):
            for t in (0, 1):
                navigate_step(policy, ep.uavs, [ep.neighbors_of(i) for i in range(3)], env, t,
                              Recording(), 0.95)
        assert read and read <= set(ScenarioConfig.STEP_FIELDS)
