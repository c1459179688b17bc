import json
import math
from functools import partial

import numpy as np
import pytest

from uavnav import config as cfgmod
from uavnav import nav, neuro, radio, sinrmap, valuetrain, world
from uavnav.nav import (
    MODES, MetricsReport, NavPolicy, compare_modes, mode_oracle, navigate_step, run_evaluation,
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


def straight_step(policy, states, neighbors, t, rules):
    """A navigate_step that flies full speed at the current heading and ignores the rest."""
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
            NavPolicy(net, partial(radio.levels, strong_env), 0.95), st, [], space, 0, RULES
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

    def test_corridor_straight_policy_always_collides(self, strong_env, monkeypatch):
        monkeypatch.setattr(nav, "navigate_step", straight_step)
        pol = mode_policy(zero_value_net(), "perfect", strong_env)
        logs = []
        for _ in range(3):
            sc = ScenarioConfig(
                starts=((-10.0, 0.0), (10.0, 0.0)),
                destinations=((10.0, 0.0), (-10.0, 0.0)),
                radii=(0.5, 0.5), max_speeds=(4.0, 4.0),
            )
            logs.append(nav.run_trial(pol, sc, StepRules(max_episode_steps=60), strong_env))
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


# A jammer that emits at ENV_ON's station, and the three ways of it not emitting.
JAMMER_ON = radio.Jammer(position=(10.0, 5.0), tx_power=0.5)
ENV_ON = single_station_env(tx_power=2.0, jammer=JAMMER_ON)
JAMMER_OFF = {
    "absent": None,
    "inactive": radio.Jammer(position=(10.0, 5.0), tx_power=0.5, active=False),
    "silent": radio.Jammer(position=(10.0, 5.0), tx_power=0.0),
}


class TestSharedFlights:
    RULES = StepRules(max_episode_steps=40)
    MISSIONS = MissionRules(n_agents=2, position_bound=20.0, min_travel=15.0)

    def net(self):
        return neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"),
                                  np.random.default_rng(5))

    def counted_rollouts(self, monkeypatch):
        """Patches world.rollout to log each call; returns the log."""
        calls = []
        inner = world.rollout

        def rollout(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(world, "rollout", rollout)
        return calls

    def compare(self, env, modes, map_model=None, trajectories=None):
        return compare_modes(self.net(), map_model, env, self.RULES, self.MISSIONS, trials=3,
                             seed=8, gamma=0.95, modes=modes, trajectories=trajectories)

    def alone(self, env, mode):
        """mode flown by itself, through run_evaluation: its report dict and rows."""
        rows: list = []
        rep = run_evaluation(mode_policy(self.net(), mode, env), env, self.RULES,
                             nav.sample_scenarios(env, self.MISSIONS, 3, 8), trajectory=rows)
        return nav.report_to_dict({mode: rep}, 8)["modes"][mode], rows

    @pytest.mark.parametrize("off", sorted(JAMMER_OFF))
    def test_shared_flight_equals_each_mode_flown_alone(self, off):
        env = ENV_ON.with_jammer(JAMMER_OFF[off])
        assert env.jammer is None or not env.jammer.emits
        trajectories: dict = {}
        reports = self.compare(env, ("outdated", "perfect"), trajectories=trajectories)
        shared = nav.report_to_dict(reports, 8)["modes"]
        for mode in ("outdated", "perfect"):
            report, rows = self.alone(env, mode)
            assert shared[mode] == report
            assert trajectories[mode] == rows
        # Each mode owns its rows: one file's list is not the other's.
        assert trajectories["outdated"] is not trajectories["perfect"]

    @pytest.mark.parametrize("off", sorted(JAMMER_OFF))
    def test_one_flight_per_distinct_level_map(self, off, monkeypatch):
        env = ENV_ON.with_jammer(JAMMER_OFF[off])
        model = sinrmap.init_map_model(env, 1, np.random.default_rng(3), hidden=(4,))
        scenarios = nav.sample_scenarios(env, self.MISSIONS, 3, 8)
        calls = self.counted_rollouts(monkeypatch)
        self.compare(env, ("outdated", "perfect"))
        assert calls == [scenarios]
        calls.clear()
        reports = self.compare(env, MODES, map_model=model)
        # One rollout: the trials once per distinct level map, the learned map's first.
        assert calls == [scenarios * 2]
        assert reports["outdated"] is reports["perfect"]
        assert reports["proposed"] is not reports["perfect"]

    def test_emitting_jammer_flies_every_mode(self, monkeypatch):
        env = cfgmod.load(preset="center-1w").env
        model = sinrmap.init_map_model(env, 2, np.random.default_rng(3), hidden=(4,))
        calls = self.counted_rollouts(monkeypatch)
        trajectories: dict = {}
        reports = compare_modes(self.net(), model, env, self.RULES, self.MISSIONS, trials=2,
                                seed=8, gamma=0.95, trajectories=trajectories)
        assert calls == [nav.sample_scenarios(env, self.MISSIONS, 2, 8) * 3]
        assert len({id(reports[m]) for m in MODES}) == 3
        assert sorted(trajectories) == sorted(MODES)
        calls.clear()
        trajectories = {}
        self.compare(ENV_ON, ("outdated", "perfect"), trajectories=trajectories)
        assert calls == [nav.sample_scenarios(ENV_ON, self.MISSIONS, 3, 8) * 2]
        # The environment of the shared-flight test tells the two maps apart once its jammer emits.
        assert trajectories["outdated"] != trajectories["perfect"]

    def test_bad_mode_fails_before_any_flight(self, strong_env, monkeypatch):
        calls = self.counted_rollouts(monkeypatch)
        with pytest.raises(ValueError, match="needs a map model"):
            self.compare(strong_env, ("outdated", "perfect", "proposed"))
        with pytest.raises(ValueError, match="mode must be one of"):
            self.compare(strong_env, ("outdated", "bogus"))
        assert calls == []


def active_per_step(rows) -> list[int]:
    """Per step t, the agents that chose an action at t, read from trajectory rows."""
    # A trial's rows at t hold its state before step t; it flew step t if it
    # has rows at t + 1, and its agents not yet arrived then chose.
    parsed = [row.split(",") for row in rows]
    flown = {(episode, int(t) - 1) for episode, t, *_ in parsed}
    active = [0] * (max(t for _, t in flown) + 1)
    for episode, t, *_, arrived, _, _ in parsed:
        if (episode, int(t)) in flown and arrived == "0":
            active[int(t)] += 1
    return active


class RecklessLookahead:
    """A navigate_step: the lookahead, except that agents whose top speed is
    RECKLESS fly straight at it; logs the step and neighbor counts of every call."""

    RECKLESS = 7.25

    def __init__(self):
        self.inner = nav.navigate_step
        self.calls = []

    def __call__(self, policy, states, neighbors, t, rules):
        self.calls.append((t, tuple(len(nbs) for nbs in neighbors)))
        picked = self.inner(policy, states, neighbors, t, rules)
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
        return mode_policy(net, "perfect", self.ENV)

    def reckless(self, monkeypatch):
        """Patches nav.navigate_step with a fresh RecklessLookahead and returns it."""
        step = RecklessLookahead()
        monkeypatch.setattr(nav, "navigate_step", step)
        return step

    def test_lockstep_equals_one_trial_at_a_time(self, rng, monkeypatch):
        env = self.ENV
        scenarios = self.scenarios()
        policy = self.policy(rng)
        step = self.reckless(monkeypatch)
        rows: list = []
        rep = run_evaluation(policy, env, self.RULES, scenarios, trajectory=rows)
        lockstep_calls = list(step.calls)
        one_rows: list = []
        logs = []
        for trial in range(7):
            trial_rows: list = []
            logs.append(nav.run_trial(policy, scenarios[trial], self.RULES, env,
                                      trajectory=trial_rows))
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
        assert any(len(set(counts)) >= 3 for _, counts in lockstep_calls)

    def test_one_decision_call_per_step_covers_every_active_agent(self, rng, monkeypatch):
        policy = self.policy(rng)
        step = self.reckless(monkeypatch)
        rows: list = []
        run_evaluation(policy, self.ENV, self.RULES, self.scenarios(), trajectory=rows)
        active = active_per_step(rows)
        assert [t for t, _ in step.calls] == list(range(len(active)))
        assert [len(counts) for _, counts in step.calls] == active

    def test_empty_scenario_list_rejected(self, strong_env):
        with pytest.raises(ValueError, match="scenarios is an empty list"):
            run_evaluation(mode_policy(zero_value_net(), "perfect", strong_env), strong_env,
                           RULES, [])


class TestOneRolloutForEveryMap:
    """compare_modes on center-1w, where the three modes read three level maps."""

    RULES = StepRules(max_episode_steps=40)
    # Trials 0, 1 and 3 end early in a different mode each; the rest fly to the cap.
    MISSIONS = MissionRules(n_agents=3, position_bound=30.0, min_travel=20.0)
    ENV = cfgmod.load(preset="center-1w").env

    def net(self):
        return neuro.init_network(neuro.dense_specs(34, (8,), 1, "relu", "tanh"),
                                  np.random.default_rng(7))

    def model(self):
        return sinrmap.init_map_model(self.ENV, 2, np.random.default_rng(3), hidden=(4,))

    def compare(self, trajectories):
        return compare_modes(self.net(), self.model(), self.ENV, self.RULES, self.MISSIONS,
                             trials=4, seed=8, gamma=0.95, trajectories=trajectories)

    def test_equals_each_mode_flown_alone(self):
        trajectories: dict = {}
        merged = nav.report_to_dict(self.compare(trajectories), 8)["modes"]
        net, model = self.net(), self.model()
        scenarios = nav.sample_scenarios(self.ENV, self.MISSIONS, 4, 8)
        ends = {}
        for mode in MODES:
            rows: list = []
            alone = run_evaluation(mode_policy(net, mode, self.ENV, model), self.ENV, self.RULES,
                                   scenarios, trajectory=rows)
            assert merged[mode] == nav.report_to_dict({mode: alone}, 8)["modes"][mode]
            assert trajectories[mode] == rows
            assert rows[0].startswith("0,0,0,")  # each mode numbers its trials from 0
            ends[mode] = [log.steps for log in alone.per_trial]
        # Each map's block of agents shrinks at its own steps.
        early = {mode: [t for t in steps if t < self.RULES.max_episode_steps]
                 for mode, steps in ends.items()}
        assert all(early.values()) and len({tuple(steps) for steps in ends.values()}) == 3

    def test_one_decision_call_per_step_covers_every_mode(self, monkeypatch):
        step = RecklessLookahead()  # no agent has the reckless top speed: it only logs
        monkeypatch.setattr(nav, "navigate_step", step)
        queried = {}  # mode -> the number of agents of each of its oracle's calls
        inner = nav.mode_oracle

        def mode_oracle(mode, *args):
            levels = inner(mode, *args)

            def logged(positions):
                queried.setdefault(mode, []).append(len(positions))
                return levels(positions)

            return logged

        monkeypatch.setattr(nav, "mode_oracle", mode_oracle)
        trajectories: dict = {}
        self.compare(trajectories)
        active = {mode: active_per_step(rows) for mode, rows in trajectories.items()}
        steps = max(len(counts) for counts in active.values())
        assert [t for t, _ in step.calls] == list(range(steps))
        assert [len(counts) for _, counts in step.calls] == [
            sum(counts[t] for counts in active.values() if t < len(counts)) for t in range(steps)
        ]
        # Each map's oracle scores only its own agents, and only while it has any.
        assert queried == active
