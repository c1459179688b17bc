"""Real-time navigation with a chosen radio-map source and the evaluation
harness comparing the learned map against outdated and perfect baselines.

A flight counts as a success only if the agent reaches its destination within
the step cap without ever colliding and without ever failing a gated
connectivity check (i.e. mission completed with constraints respected).
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import neuro, radio, sinrmap, valuetrain, world
from .valuetrain import NavPolicy
from .world import Action, EpisodeState, ScenarioConfig, StepRules

MODES = ("proposed", "outdated", "perfect")


def mode_source(mode: str, env_truth: radio.RadioEnvironment,
                map_model: sinrmap.MapModel | None = None):
    """The level map an evaluation mode reads in env_truth: the learned map
    (proposed), the jammer-free environment (outdated) or env_truth itself
    (perfect).  perfect reads the jammer-free environment too when the jammer
    does not emit (radio.Jammer.emits), whose levels are then the same, so
    modes with equal sources read equal levels."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "proposed":
        if map_model is None:
            raise ValueError("proposed mode needs a map model")
        return map_model
    if mode == "perfect" and env_truth.jammer is not None and env_truth.jammer.emits:
        return env_truth
    return env_truth.without_jammer()


def mode_oracle(mode: str, env_truth: radio.RadioEnvironment,
                map_model: sinrmap.MapModel | None = None):
    """The levels oracle of mode_source(mode, env_truth, map_model)."""
    source = mode_source(mode, env_truth, map_model)
    if isinstance(source, sinrmap.MapModel):
        return sinrmap.learned_oracle(source)
    return functools.partial(radio.levels, source)


def navigate_step(policy: NavPolicy, states, neighbors, t: int,
                  rules: StepRules) -> list[Action]:
    """Greedy one-step-lookahead Actions of a step's active agents (states, with
    neighbors[a] seen by states[a]): valuetrain.lookahead_actions on the
    policy's level map.
    """
    if any(s.arrived for s in states):
        raise ValueError("agent already arrived")
    return valuetrain.lookahead_actions(policy, states, neighbors, t, rules)


@dataclass
class TrialLog(world.Outcome):
    def successes(self) -> list[bool]:
        return [
            a and not c and not d
            for a, c, d in zip(self.arrived, self.collided, self.disconnected)
        ]


@dataclass
class MetricsReport:
    trials: int
    agent_trials: int
    success_count: int
    disconnection_count: int
    collision_count: int
    per_trial: list[TrialLog] = field(repr=False)

    @property
    def success_rate(self) -> float:
        return self.success_count / self.agent_trials

    @property
    def disconnection_rate(self) -> float:
        return self.disconnection_count / self.agent_trials

    @property
    def collision_rate(self) -> float:
        return self.collision_count / self.agent_trials

    @staticmethod
    def from_trials(logs: list["TrialLog"]) -> "MetricsReport":
        agent_trials = sum(len(log.arrived) for log in logs)
        return MetricsReport(
            trials=len(logs),
            agent_trials=agent_trials,
            success_count=sum(sum(log.successes()) for log in logs),
            disconnection_count=sum(sum(log.disconnected) for log in logs),
            collision_count=sum(sum(log.collided) for log in logs),
            per_trial=logs,
        )


def run_trial(policy: NavPolicy, scenario: ScenarioConfig, rules: StepRules,
              env_truth: radio.RadioEnvironment, trajectory: list | None = None) -> TrialLog:
    """Roll out one scenario to arrival, collision, or the step cap: a one-trial
    run_evaluation, its trajectory rows numbered episode 0."""
    return run_evaluation(policy, env_truth, rules, [scenario], trajectory).per_trial[0]


def run_evaluation(policy: NavPolicy, env_truth: radio.RadioEnvironment, rules: StepRules,
                   scenarios: list[ScenarioConfig],
                   trajectory: list | None = None) -> MetricsReport:
    """One trial per scenario under rules, all in lockstep: run_evaluations of
    the policy's one oracle.  Trajectory rows are appended in trial order."""
    return run_evaluations(policy.value_net, [policy.oracle], policy.gamma, env_truth, rules,
                           scenarios, None if trajectory is None else [trajectory])[0]


def run_evaluations(value_net: neuro.NetworkParams, oracles: list, gamma: float,
                    env_truth: radio.RadioEnvironment, rules: StepRules,
                    scenarios: list[ScenarioConfig],
                    trajectories: list[list] | None = None) -> list[MetricsReport]:
    """Per level map (oracles), the report of one trial per scenario under rules;
    every map's trials fly in one lockstep rollout, map-major.  trajectories,
    if given, holds one list per map for its trials' rows, numbered from 0.

    Each step makes one navigate_step call for the active agents of every live
    trial, which may see different numbers of neighbors.  Its policy's oracle
    gives each map only its own block of agents, as if flown alone.
    """
    if not scenarios:
        raise ValueError("scenarios is an empty list; give at least one scenario")
    trials = len(scenarios)
    cuts: list[int] = []  # where each map's block of the step's agents starts, the first's aside

    def oracle(positions):
        return np.concatenate([levels(block) for levels, block in
                               zip(oracles, np.split(positions, cuts)) if len(block)])

    policy = NavPolicy(value_net, oracle if len(oracles) > 1 else oracles[0], gamma)

    def choose(t, agents):
        cuts[:] = [bisect.bisect_left(agents, k * trials, key=lambda agent: agent[0])
                   for k in range(1, len(oracles))]
        # Looked up in the module at call time, so a patched navigate_step sees every decision.
        return navigate_step(policy, [uav for _, _, uav, _ in agents],
                             [nbs for _, _, _, nbs in agents], t, rules)

    rows: list[list[str]] = [[] for _ in oracles for _ in scenarios]

    def record(b: int, ep: EpisodeState, flags):
        n = len(ep.uavs)
        arrived, collided, disconnected = (
            (f.tolist() for f in flags) if flags is not None
            # Before the first step no agent has collided or lost its link.
            else ([u.arrived for u in ep.uavs], [False] * n, [False] * n)
        )
        for i, uav in enumerate(ep.uavs):
            s = float(ep.sinr[i])
            db = 10.0 * math.log10(s) if s > 0 else -math.inf
            rows[b].append(world.format_trajectory_row(b % trials, ep.t, i, uav, db,
                int(ep.levels[i]), arrived[i], collided[i], disconnected[i]))

    runs = world.rollout(scenarios * len(oracles), rules, env_truth, choose,
                         observe=None if trajectories is None else record)
    blocks = [slice(k * trials, (k + 1) * trials) for k in range(len(oracles))]
    for trajectory, block in zip(trajectories or [], blocks):
        trajectory.extend(row for trial_rows in rows[block] for row in trial_rows)
    return [MetricsReport.from_trials([TrialLog.of(run.final) for run in runs[block]])
            for block in blocks]


def sample_scenarios(
    env_truth: radio.RadioEnvironment, missions: valuetrain.MissionRules, trials: int, seed: int,
) -> list[ScenarioConfig]:
    """The seeded evaluation missions: endpoints at connected spots of env_truth."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [missions.sample(rng, env_truth) for _ in range(trials)]


def compare_modes(
    value_net: neuro.NetworkParams,
    map_model: sinrmap.MapModel | None,
    env_truth: radio.RadioEnvironment,
    rules: StepRules,
    missions: valuetrain.MissionRules,
    trials: int,
    seed: int,
    gamma: float,
    modes=MODES,
    trajectories: dict | None = None,
) -> dict[str, MetricsReport]:
    """Evaluate the selected modes under rules on one seeded draw of trials
    missions, sampled once.

    Each distinct mode_source flies the trials once, all in one
    run_evaluations rollout; every mode reading a source gets that source's
    report and a copy of its trajectory rows.
    """
    sources = {mode: mode_source(mode, env_truth, map_model) for mode in modes}
    # Modes on one source have equal oracles; the dict keeps each source's first place.
    oracles = {sources[mode]: mode_oracle(mode, env_truth, map_model) for mode in modes}
    scenarios = sample_scenarios(env_truth, missions, trials, seed)
    rows = {source: [] for source in oracles}
    reports = dict(zip(oracles, run_evaluations(
        value_net, [*oracles.values()], gamma, env_truth, rules, scenarios,
        None if trajectories is None else [*rows.values()])))
    for mode in modes:
        if trajectories is not None:
            trajectories.setdefault(mode, []).extend(rows[sources[mode]])
    return {mode: reports[sources[mode]] for mode in modes}


def report_to_dict(reports: dict[str, MetricsReport], seed: int,
                   config_digest: str = "") -> dict:
    modes = {}
    for mode, rep in reports.items():
        modes[mode] = {
            "trials": rep.trials,
            "agent_trials": rep.agent_trials,
            "success_count": rep.success_count,
            "disconnection_count": rep.disconnection_count,
            "collision_count": rep.collision_count,
            "success_rate": rep.success_rate,
            "disconnection_rate": rep.disconnection_rate,
            "collision_rate": rep.collision_rate,
            "per_trial": [
                {
                    "arrived": [int(v) for v in log.arrived],
                    "collided": [int(v) for v in log.collided],
                    "disconnected": [int(v) for v in log.disconnected],
                    "steps": log.steps,
                }
                for log in rep.per_trial
            ],
        }
    return {
        "format": "eval-report-v1",
        "seed": seed,
        "config_digest": config_digest,
        "modes": modes,
    }


def write_report_json(reports: dict[str, MetricsReport], path, seed: int,
                      config_digest: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(report_to_dict(reports, seed, config_digest), f, sort_keys=True, indent=1)
        f.write("\n")
