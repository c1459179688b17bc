"""Real-time navigation with a chosen radio-map source and the evaluation
harness comparing the learned map against outdated and perfect baselines.

A flight counts as a success only if the agent reaches its destination within
the step cap without ever colliding and without ever failing a gated
connectivity check (i.e. mission completed with constraints respected).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import neuro, radio, sinrmap, valuetrain, world
from .world import Action, EpisodeState, ScenarioConfig, StepRules

MODES = ("proposed", "outdated", "perfect")


@dataclass(frozen=True)
class NavPolicy:
    """Everything a lookahead decision reads apart from the step and its rules:
    the value network, the level map (oracle) it scores candidates on, and the
    lookahead settings."""

    value_net: neuro.NetworkParams
    oracle: Callable[[np.ndarray], np.ndarray]
    gamma: float
    j_n: int = 4

    def choose_actions(self, states, neighbors, t: int, rules: StepRules) -> list[Action]:
        # Looked up in the module at call time, so a patched navigate_step sees every decision.
        return navigate_step(self, states, neighbors, t, rules)


def mode_oracle(mode: str, env_truth: radio.RadioEnvironment,
                map_model: sinrmap.MapModel | None = None):
    """The level map an evaluation mode reads in env_truth: the learned map
    over its own jammer-free environment (proposed), the jammer-free levels
    (outdated) or the true levels (perfect)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "proposed":
        if map_model is None:
            raise ValueError("proposed mode needs a map model")
        return sinrmap.learned_oracle(map_model)
    if mode == "outdated":
        return functools.partial(radio.levels, env_truth.without_jammer())
    return functools.partial(radio.levels, env_truth)


def navigate_step(policy: NavPolicy, states, neighbors, t: int, rules: StepRules):
    """Greedy one-step-lookahead Actions of a step's active agents (states, with
    neighbors[a] seen by states[a]) from one valuetrain.lookahead_index call
    on the policy's level map.
    """
    if any(s.arrived for s in states):
        raise ValueError("agent already arrived")
    speeds, headings = world.action_grids(states, rules)
    ks = valuetrain.lookahead_index(
        policy.value_net, states, neighbors, speeds, headings,
        policy.oracle, policy.gamma, t, rules, j_n=policy.j_n,
    )
    return [Action(speed=float(s[k]), heading=float(h[k]))
            for s, h, k in zip(speeds, headings, ks)]


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


def run_trial(policy, scenario: ScenarioConfig, rules: StepRules,
              env_truth: radio.RadioEnvironment, trajectory: list | None = None) -> TrialLog:
    """Roll out one scenario to arrival, collision, or the step cap: a one-trial
    run_evaluation, its trajectory rows numbered episode 0."""
    return run_evaluation(policy, env_truth, rules, [scenario], trajectory).per_trial[0]


def run_evaluation(
    policy,
    env_truth: radio.RadioEnvironment,
    rules: StepRules,
    scenarios: list[ScenarioConfig],
    trajectory: list | None = None,
) -> MetricsReport:
    """One trial per scenario under rules, all trials in lockstep.  Trajectory
    rows are appended in trial order.

    policy needs a choose_actions(states, neighbors, t, rules) method that
    returns one action per state; NavPolicy provides the lookahead one.  Each
    step calls it once for the active agents of every live trial, which may
    see different numbers of neighbors.
    """
    if not scenarios:
        raise ValueError("scenarios is an empty list; give at least one scenario")

    def choose(t, agents):
        return policy.choose_actions([uav for _, _, uav, _ in agents],
                                     [nbs for _, _, _, nbs in agents], t, rules)

    rows: list[list[str]] = [[] for _ in scenarios]

    def record(b: int, ep: EpisodeState, flags):
        levels = radio.quantize_many(ep.sinr, env_truth)
        n = len(ep.uavs)
        arrived, collided, disconnected = (
            (f.tolist() for f in flags) if flags is not None
            # Before the first step no agent has collided or lost its link.
            else ([u.arrived for u in ep.uavs], [False] * n, [False] * n)
        )
        for i, uav in enumerate(ep.uavs):
            s = float(ep.sinr[i])
            db = 10.0 * math.log10(s) if s > 0 else -math.inf
            rows[b].append(world.format_trajectory_row(
                b, ep.t, i, uav, db, int(levels[i]), arrived[i], collided[i], disconnected[i]))

    runs = world.rollout(scenarios, rules, env_truth, choose,
                         observe=None if trajectory is None else record)
    if trajectory is not None:
        trajectory.extend(row for trial_rows in rows for row in trial_rows)
    return MetricsReport.from_trials([TrialLog.of(run.final) for run in runs])


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
    j_n: int = 4,
    modes=MODES,
    trajectories: dict | None = None,
) -> dict[str, MetricsReport]:
    """Evaluate the selected modes under rules on one seeded draw of trials
    missions, sampled once."""
    oracles = {mode: mode_oracle(mode, env_truth, map_model) for mode in modes}
    scenarios = sample_scenarios(env_truth, missions, trials, seed)
    out = {}
    for mode in modes:
        policy = NavPolicy(value_net, oracles[mode], gamma, j_n)
        rows = None
        if trajectories is not None:
            rows = trajectories.setdefault(mode, [])
        out[mode] = run_evaluation(policy, env_truth, rules, scenarios, trajectory=rows)
    return out


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
