import json
import math
from functools import partial

import numpy as np
import pytest

from uavnav import nav, neuro, radio, sinrmap, valuetrain, world
from uavnav.nav import (
    MetricsReport, NavPolicy, compare_modes, mode_oracle, navigate_step, run_evaluation,
)
from uavnav.valuetrain import MissionRules
from uavnav.world import Action, ScenarioConfig, StepRules

from conftest import draw_scenario, single_station_env


RULES = StepRules()


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

    def choose_actions(self, states, neighbors, t, rules):
        return [Action(speed=state.max_speed, heading=state.orientation) for state in states]


def mode_policy(net, mode, env, map_model=None, gamma=0.95):
    """The policy that compare_modes flies in mode."""
    return NavPolicy(net, mode_oracle(mode, env, map_model), gamma)


class TestModeOracle:
    def test_mode_validation(self, strong_env):
        with pytest.raises(ValueError):
            mode_oracle("bogus", strong_env)
        with pytest.raises(ValueError):
            mode_oracle("proposed", strong_env)

    def test_outdated_reads_jammer_free_levels(self):
        env = single_station_env(jammer=radio.Jammer(position=(1, 1), tx_power=2.0))
        clean = partial(radio.levels, env.without_jammer())
        points = np.array([[x, y] for x in range(-20, 21, 5) for y in range(-20, 21, 5)], float)
        assert (mode_oracle("outdated", env)(points) == clean(points)).all()
        assert (mode_oracle("perfect", env)(points) != clean(points)).any()


class TestNavigateStep:
    def test_perfect_mode_equals_trainer_lookahead(self, strong_env, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        pol = mode_policy(net, "perfect", strong_env)
        sc = draw_scenario(np.random.default_rng(2), n_agents=1)
        st = sc.initial_states()[0]
        space = world.sample_action_space(st, RULES)
        expected = valuetrain.lookahead_select(
            net, st, [], space, partial(radio.levels, strong_env), 0.95, 0, RULES
        )
        (got,) = navigate_step(pol, [st], [[]], 0, RULES)
        assert got.speed == expected.speed and got.heading == expected.heading

    def test_learned_mode_matches_perfect_on_uniform_field(self, strong_env, rng):
        model, curve = trained_constant_map(strong_env, rng)
        assert curve[-1] == 1.0  # uniform labels: regressor rounds to 2 everywhere
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        sc = draw_scenario(np.random.default_rng(3), n_agents=1)
        st = sc.initial_states()[0]
        for t in range(4):
            (a1,) = navigate_step(mode_policy(net, "proposed", strong_env, model), [st], [[]],
                                  t, RULES)
            (a2,) = navigate_step(mode_policy(net, "perfect", strong_env), [st], [[]], t, RULES)
            assert a1.speed == a2.speed and a1.heading == a2.heading
            st = world.propagate(st, a1, RULES.dt, RULES.arrival_tolerance)

    def test_outdated_mode_ignores_jammer(self, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        clean = single_station_env(tx_power=1e6)
        jammed = clean.with_jammer(radio.Jammer(position=(5.0, 0.0), tx_power=1e9))
        sc = draw_scenario(np.random.default_rng(4), n_agents=1)
        st = sc.initial_states()[0]
        (a_clean,) = navigate_step(mode_policy(net, "outdated", clean), [st], [[]], 0, RULES)
        (a_jammed,) = navigate_step(mode_policy(net, "outdated", jammed), [st], [[]], 0, RULES)
        assert a_clean.speed == a_jammed.speed and a_clean.heading == a_jammed.heading

    def test_rejects_arrived_agent(self, strong_env):
        sc = ScenarioConfig(starts=((0.0, 0.0),), destinations=((30.0, 0.0),),
                            radii=(0.5,), max_speeds=(4.0,))
        st = sc.initial_states()[0]
        st = world.propagate(st, Action(4.0, 0.0), 10.0, arrival_tolerance=100.0)
        with pytest.raises(ValueError):
            navigate_step(mode_policy(zero_value_net(), "perfect", strong_env), [st], [[]], 0,
                          RULES)


class TestRunEvaluation:
    def test_trivial_scenario_full_success(self, strong_env):
        # Destination adjacent: the arrival reward dominates even a stub net.
        pol = mode_policy(zero_value_net(), "perfect", strong_env)
        adjacent = ScenarioConfig(
            starts=((0.0, 0.0),), destinations=((1.5, 0.0),),
            radii=(0.5,), max_speeds=(4.0,),
        )
        rep = run_evaluation(pol, strong_env, StepRules(max_episode_steps=20), [adjacent] * 4)
        assert rep.success_rate == 1.0
        assert rep.disconnection_rate == 0.0
        assert rep.collision_rate == 0.0

    def test_corridor_straight_policy_always_collides(self, strong_env):
        logs = []
        for _ in range(3):
            sc = ScenarioConfig(
                starts=((-10.0, 0.0), (10.0, 0.0)),
                destinations=((10.0, 0.0), (-10.0, 0.0)),
                radii=(0.5, 0.5), max_speeds=(4.0, 4.0),
            )
            logs.append(nav.run_trial(StraightPolicy(), sc, StepRules(max_episode_steps=60),
                                      strong_env))
        rep = MetricsReport.from_trials(logs)
        assert rep.collision_rate == 1.0
        assert rep.success_rate == 0.0

    def test_rates_are_exact_rationals_and_recomputable(self, strong_env):
        pol = mode_policy(zero_value_net(), "perfect", strong_env)
        rep = run_evaluation(pol, strong_env, StepRules(max_episode_steps=50),
                             nav.sample_scenarios(strong_env, MissionRules(n_agents=2), 5, 8))
        succ = sum(sum(log.successes()) for log in rep.per_trial)
        disc = sum(sum(log.disconnected) for log in rep.per_trial)
        coll = sum(sum(log.collided) for log in rep.per_trial)
        n = sum(len(log.arrived) for log in rep.per_trial)
        assert rep.success_rate == succ / n
        assert rep.disconnection_rate == disc / n
        assert rep.collision_rate == coll / n

    def test_deterministic_reports(self, strong_env, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        pol = mode_policy(net, "perfect", strong_env)
        reps = [
            run_evaluation(pol, strong_env, StepRules(max_episode_steps=60),
                           nav.sample_scenarios(strong_env, MissionRules(n_agents=2), 3, 11))
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
            net, model, strong_env, StepRules(max_episode_steps=80), MissionRules(n_agents=2),
            trials=3, seed=21, gamma=0.95,
        )
        # Two agents per trial, as the mission rules ask.
        assert [len(log.arrived) for log in reports["perfect"].per_trial] == [2, 2, 2]
        base = nav.report_to_dict({"m": reports["perfect"]}, 21)["modes"]["m"]
        for mode in ("proposed", "outdated"):
            other = nav.report_to_dict({"m": reports[mode]}, 21)["modes"]["m"]
            assert other == base

    def test_proposed_requires_map(self, strong_env):
        with pytest.raises(ValueError):
            compare_modes(zero_value_net(), None, strong_env, RULES, MissionRules(), trials=1,
                          seed=1, gamma=0.9)

    def test_report_json_round_trip(self, strong_env, tmp_path):
        pol = mode_policy(zero_value_net(), "perfect", strong_env)
        rep = run_evaluation(pol, strong_env, StepRules(max_episode_steps=40),
                             nav.sample_scenarios(strong_env, MissionRules(n_agents=1), 2, 3))
        path = tmp_path / "report.json"
        nav.write_report_json({"perfect": rep}, path, seed=3, config_digest="beef")
        data = json.loads(path.read_text())
        assert data["config_digest"] == "beef"
        assert data["modes"]["perfect"]["agent_trials"] == rep.agent_trials
        assert data["modes"]["perfect"]["success_rate"] == rep.success_rate

    def test_trajectory_rows_schema(self, strong_env):
        pol = mode_policy(zero_value_net(), "perfect", strong_env)
        rows = []
        run_evaluation(pol, strong_env, StepRules(max_episode_steps=30),
                       nav.sample_scenarios(strong_env, MissionRules(n_agents=2), 1, 4),
                       trajectory=rows)
        assert rows
        n_cols = len(world.TRAJECTORY_COLUMNS.split(","))
        for row in rows:
            assert len(row.split(",")) == n_cols


class RecklessLookahead:
    """A policy's lookahead, except that agents whose top speed is RECKLESS fly
    straight at it; logs the step and neighbor counts of every call."""

    RECKLESS = 7.25

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def choose_actions(self, states, neighbors, t, rules):
        self.calls.append((t, tuple(len(nbs) for nbs in neighbors)))
        picked = self.inner.choose_actions(states, neighbors, t, rules)
        return [Action(speed=s.max_speed, heading=s.orientation) if s.max_speed == self.RECKLESS
                else a for s, a in zip(states, picked)]


class TestLockstep:
    RULES = StepRules(max_episode_steps=40)

    def scenarios(self):
        """Seven trials: the four scenarios below, then the first three again."""
        fast = RecklessLookahead.RECKLESS
        head_on = ScenarioConfig(
            starts=((-10.0, 0.0), (10.0, 0.0)), destinations=((10.0, 0.0), (-10.0, 0.0)),
            radii=(0.5, 0.5), max_speeds=(fast, fast),
        )
        # 200 m at 4 m/s takes 100 steps of 0.5 s: it flies to the step cap.
        capped = ScenarioConfig(starts=((0.0, 0.0),), destinations=((200.0, 0.0),),
                                radii=(0.5,), max_speeds=(4.0,))
        staggered = ScenarioConfig(
            starts=((0.0, 0.0), (0.0, 10.0), (0.0, 20.0)),
            destinations=((5.0, 0.0), (15.0, 10.0), (25.0, 20.0)),
            radii=(0.5,) * 3, max_speeds=(fast,) * 3,
        )
        sampled = draw_scenario(np.random.default_rng(7), n_agents=3)
        return [head_on, capped, staggered, sampled, head_on, capped, staggered]

    ENV = single_station_env(tx_power=2.0, jammer=radio.Jammer(position=(10.0, 5.0),
                                                               tx_power=0.5))

    def policy(self, rng):
        net = neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"), rng)
        return RecklessLookahead(mode_policy(net, "perfect", self.ENV))

    def test_lockstep_equals_one_trial_at_a_time(self, rng):
        env = self.ENV
        scenarios = self.scenarios()
        policy = self.policy(rng)
        rows: list = []
        rep = run_evaluation(policy, env, self.RULES, scenarios, trajectory=rows)
        one_rows: list = []
        logs = []
        for trial in range(7):
            trial_rows: list = []
            logs.append(nav.run_trial(RecklessLookahead(policy.inner), scenarios[trial],
                                      self.RULES, env, trajectory=trial_rows))
            # run_trial numbers its rows episode 0; renumber them as trial.
            one_rows += [f"{trial}," + row.split(",", 1)[1] for row in trial_rows]
        assert rep == MetricsReport.from_trials(logs)
        assert rows == one_rows

        # The batch holds what the lockstep loop has to get right.
        head_on, capped, staggered = rep.per_trial[:3]
        assert all(head_on.collided) and head_on.steps < max(log.steps for log in logs)
        assert capped.steps == self.RULES.max_episode_steps and not any(capped.arrived)
        assert rep.per_trial[4:] == rep.per_trial[:3]  # the repeated scenarios
        first_step = {}  # (episode, agent, flag) -> first step at which the flag is set
        for row in rows:
            episode, t, agent, *_, arrived, collided, _ = row.split(",")
            for flag, value in (("arrived", arrived), ("collided", collided)):
                if value == "1":
                    first_step.setdefault((episode, agent, flag), int(t))
        assert head_on.steps == first_step["0", "0", "collided"]  # it stopped right after
        assert len({first_step["2", agent, "arrived"] for agent in "012"}) == 3
        # Agents with different neighbor counts share a call.
        assert any(len(set(counts)) >= 3 for _, counts in policy.calls)

    def test_one_decision_call_per_step_covers_every_active_agent(self, rng):
        policy = self.policy(rng)
        rows: list = []
        run_evaluation(policy, self.ENV, self.RULES, self.scenarios(), trajectory=rows)
        # A trial's rows at t hold its state before step t; it flew step t if
        # it has rows at t + 1, and its agents not yet arrived then chose.
        parsed = [row.split(",") for row in rows]
        flown = {(episode, int(t) - 1) for episode, t, *_ in parsed}
        steps = max(t for _, t in flown) + 1
        active = [0] * steps
        for episode, t, *_, arrived, _, _ in parsed:
            if (episode, int(t)) in flown and arrived == "0":
                active[int(t)] += 1
        assert [t for t, _ in policy.calls] == list(range(steps))
        assert [len(counts) for _, counts in policy.calls] == active

    def test_empty_scenario_list_rejected(self, strong_env):
        with pytest.raises(ValueError, match="scenarios is an empty list"):
            run_evaluation(mode_policy(zero_value_net(), "perfect", strong_env), strong_env,
                           RULES, [])
