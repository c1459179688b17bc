"""Real-time navigation with a chosen radio-map source and the evaluation
harness comparing the learned map against outdated and perfect baselines.

A flight counts as a success only if the agent reaches its destination within
the step cap without ever colliding and without ever failing a gated
connectivity check (i.e. mission completed with constraints respected).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import neuro, radio, sinrmap, valuetrain, world
from .world import Action, EpisodeState, ScenarioConfig

MODES = ("proposed", "outdated", "perfect")


@dataclass(frozen=True)
class NavPolicy:
    """Value network plus exactly one SINR-map source."""

    value_net: neuro.NetworkParams
    mode: str
    map_model: sinrmap.MapModel | None = None
    snapshot: radio.RadioEnvironment | None = None
    _oracle: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "proposed" and self.map_model is None:
            raise ValueError("proposed mode needs a map model")
        if self.mode == "outdated" and self.snapshot is None:
            raise ValueError("outdated mode needs an environment snapshot")

    @staticmethod
    def learned(value_net, map_model: sinrmap.MapModel) -> "NavPolicy":
        return NavPolicy(value_net=value_net, mode="proposed", map_model=map_model)

    @staticmethod
    def perfect(value_net) -> "NavPolicy":
        return NavPolicy(value_net=value_net, mode="perfect")

    @staticmethod
    def outdated(value_net, snapshot: radio.RadioEnvironment) -> "NavPolicy":
        if snapshot.jammer is not None and snapshot.jammer.active:
            snapshot = snapshot.without_jammer()
        return NavPolicy(value_net=value_net, mode="outdated", snapshot=snapshot)

    def sinr_oracle(self, env_truth: radio.RadioEnvironment):
        """The level map this policy reads in env_truth, built once per environment."""
        if self._oracle[0] is not env_truth:
            if self.mode == "proposed":
                oracle = sinrmap.learned_oracle(
                    self.map_model, env_truth.stations, env_truth.uav_altitude
                )
            else:
                truth = env_truth if self.mode == "perfect" else self.snapshot
                oracle = valuetrain.ground_truth_oracle(truth)
            object.__setattr__(self, "_oracle", (env_truth, oracle))
        return self._oracle[1]

    def choose_actions(self, states, neighbors, env_truth, t, scenario, gamma,
                       j_n=4, n_speeds=3, n_headings=5) -> list[Action]:
        return navigate_step(
            self, states, neighbors, env_truth, t, scenario, gamma, j_n, n_speeds, n_headings,
        )


def navigate_step(
    policy: NavPolicy,
    states,
    neighbors,
    env_truth: radio.RadioEnvironment,
    t: int,
    scenario: ScenarioConfig,
    gamma: float,
    j_n: int = 4,
    n_speeds: int = 3,
    n_headings: int = 5,
):
    """Greedy one-step-lookahead Actions of a step's active agents (states, with
    neighbors[a] seen by states[a]) from one valuetrain.lookahead_index call,
    using the policy's map source.
    """
    if any(s.arrived for s in states):
        raise ValueError("agent already arrived")
    speeds, headings = world.action_grids(states, scenario, n_speeds, n_headings)
    ks = valuetrain.lookahead_index(
        policy.value_net, states, neighbors, speeds, headings,
        policy.sinr_oracle(env_truth), gamma, t, scenario, j_n=j_n,
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


def run_trial(policy, scenario: ScenarioConfig, env_truth: radio.RadioEnvironment,
              gamma: float, j_n: int = 4, n_speeds: int = 3, n_headings: int = 5,
              trajectory: list | None = None) -> TrialLog:
    """Roll out one scenario to arrival, collision, or the step cap: a one-trial
    run_evaluation, its trajectory rows numbered episode 0."""
    return run_evaluation(policy, env_truth, 1, 0, gamma, scenarios=[scenario], j_n=j_n,
                          n_speeds=n_speeds, n_headings=n_headings,
                          trajectory=trajectory).per_trial[0]


def run_evaluation(
    policy,
    env_truth: radio.RadioEnvironment,
    trials: int,
    seed: int,
    gamma: float,
    scenario_kwargs: dict | None = None,
    scenarios: list | None = None,
    j_n: int = 4,
    n_speeds: int = 3,
    n_headings: int = 5,
    trajectory: list | None = None,
) -> MetricsReport:
    """Seeded evaluation, all trials in lockstep; scenarios come from an explicit
    list (cycled) or the seeded sampler, so identical seeds give identical reports.
    Trajectory rows are appended in trial order.

    policy needs a choose_actions(states, neighbors, env, t, scenario, gamma,
    j_n, n_speeds, n_headings) method that returns one action per state;
    NavPolicy provides the lookahead one.  Each step calls it once per group
    of agents whose scenarios agree on ScenarioConfig.step_fields, which one
    lookahead call needs; a group's agents may see different numbers of
    neighbors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if scenarios is None:
        scenarios = sample_scenarios(env_truth, trials, seed, scenario_kwargs)
    if not scenarios:
        raise ValueError("scenarios is an empty list; give at least one scenario or None")
    batch = [scenarios[trial % len(scenarios)] for trial in range(trials)]

    def choose(t, agents):
        groups: dict[tuple, list[int]] = {}
        for k, (b, _, _, _) in enumerate(agents):
            groups.setdefault(batch[b].step_fields, []).append(k)
        actions = [None] * len(agents)
        for ks in groups.values():
            picked = policy.choose_actions(
                [agents[k][2] for k in ks], [agents[k][3] for k in ks], env_truth, t,
                batch[agents[ks[0]][0]], gamma, j_n, n_speeds, n_headings,
            )
            for k, act in zip(ks, picked, strict=True):
                actions[k] = act
        return actions

    rows: list[list[str]] = [[] for _ in batch]

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

    runs = world.rollout(batch, env_truth, choose,
                         observe=None if trajectory is None else record)
    if trajectory is not None:
        trajectory.extend(row for trial_rows in rows for row in trial_rows)
    return MetricsReport.from_trials([TrialLog.of(run.final) for run in runs])


def sample_scenarios(
    env_truth: radio.RadioEnvironment, trials: int, seed: int,
    scenario_kwargs: dict | None = None,
) -> list[ScenarioConfig]:
    """The seeded evaluation missions: endpoints at connected spots of env_truth."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kwargs = dict(scenario_kwargs or {})
    kwargs.setdefault("n_agents", 4)
    kwargs.setdefault("position_ok", valuetrain.coverage_predicate(env_truth))
    return [valuetrain.sample_scenario(rng, **kwargs) for _ in range(trials)]


def compare_modes(
    value_net: neuro.NetworkParams,
    map_model: sinrmap.MapModel | None,
    env_truth: radio.RadioEnvironment,
    trials: int,
    seed: int,
    gamma: float,
    scenario_kwargs: dict | None = None,
    j_n: int = 4,
    n_speeds: int = 3,
    n_headings: int = 5,
    modes=MODES,
    trajectories: dict | None = None,
) -> dict[str, MetricsReport]:
    """Evaluate the selected modes on one seeded scenario stream, sampled once."""
    if "proposed" in modes and map_model is None:
        raise ValueError("proposed mode requested without a map model")
    snapshot = env_truth.without_jammer()
    scenarios = sample_scenarios(env_truth, trials, seed, scenario_kwargs)
    out = {}
    for mode in modes:
        if mode == "proposed":
            policy = NavPolicy.learned(value_net, map_model)
        elif mode == "outdated":
            policy = NavPolicy.outdated(value_net, snapshot)
        else:
            policy = NavPolicy.perfect(value_net)
        rows = None
        if trajectories is not None:
            rows = trajectories.setdefault(mode, [])
        out[mode] = run_evaluation(
            policy, env_truth, trials, seed, gamma, scenarios=scenarios, j_n=j_n,
            n_speeds=n_speeds, n_headings=n_headings, trajectory=rows,
        )
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
