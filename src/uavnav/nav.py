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
    # What every forward pass reads: value_net without subnormal weights, which
    # gives the same outputs at full speed (see neuro.without_subnormals).
    inference_net: neuro.NetworkParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "proposed" and self.map_model is None:
            raise ValueError("proposed mode needs a map model")
        if self.mode == "outdated" and self.snapshot is None:
            raise ValueError("outdated mode needs an environment snapshot")
        object.__setattr__(self, "inference_net", neuro.without_subnormals(self.value_net))

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
        if self.mode == "perfect":
            return valuetrain.ground_truth_oracle(env_truth)
        if self.mode == "outdated":
            return valuetrain.ground_truth_oracle(self.snapshot)
        return sinrmap.learned_oracle(
            self.map_model, env_truth.stations, env_truth.uav_altitude
        )

    def choose_action(self, self_state, neighbors, env_truth, t, scenario, gamma,
                      j_n=4, n_speeds=3, n_headings=5) -> Action:
        return navigate_step(
            self, self_state, neighbors, env_truth, t, scenario, gamma,
            j_n, n_speeds, n_headings,
        )


def navigate_step(
    policy: NavPolicy,
    self_state: world.UavState,
    neighbors,
    env_truth: radio.RadioEnvironment,
    t: int,
    scenario: ScenarioConfig,
    gamma: float,
    j_n: int = 4,
    n_speeds: int = 3,
    n_headings: int = 5,
) -> Action:
    """Greedy one-step-lookahead action using the policy's map source (no exploration)."""
    if self_state.arrived:
        raise ValueError("agent already arrived")
    speeds, headings = world.action_grid(self_state, scenario, n_speeds, n_headings)
    k = valuetrain.lookahead_index(
        policy.inference_net, self_state, neighbors, speeds, headings,
        policy.sinr_oracle(env_truth), gamma, t, scenario, j_n=j_n,
    )
    return Action(speed=float(speeds[k]), heading=float(headings[k]))


@dataclass
class TrialLog:
    arrived: list[bool]
    collided: list[bool]
    disconnected: list[bool]
    steps: int

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


def run_trial(
    policy,
    scenario: ScenarioConfig,
    env_truth: radio.RadioEnvironment,
    gamma: float,
    j_n: int = 4,
    n_speeds: int = 3,
    n_headings: int = 5,
    trajectory: list | None = None,
    episode_index: int = 0,
) -> TrialLog:
    """Roll out one scenario to arrival, collision, or the step cap.

    policy needs a choose_action(state, neighbors, env, t, scenario, gamma,
    j_n, n_speeds, n_headings) method; NavPolicy provides the lookahead one.
    """
    ep = EpisodeState(uavs=scenario.initial_states())
    if trajectory is not None:
        _record_rows(trajectory, episode_index, ep, env_truth, None)
    while not ep.all_arrived and ep.t < scenario.max_episode_steps:
        actions: list[Action | None] = []
        for i, uav in enumerate(ep.uavs):
            if uav.arrived:
                actions.append(None)
                continue
            actions.append(
                policy.choose_action(
                    uav, ep.neighbors_of(i), env_truth, ep.t, scenario, gamma,
                    j_n, n_speeds, n_headings,
                )
            )
        ep, _, flags = world.step_all(ep, actions, env_truth, scenario)
        if trajectory is not None:
            _record_rows(trajectory, episode_index, ep, env_truth, flags)
        if ep.any_collision:
            break
    return TrialLog(
        arrived=[u.arrived for u in ep.uavs],
        collided=list(ep.ever_collided),
        disconnected=list(ep.ever_disconnected),
        steps=ep.t,
    )


def _record_rows(rows, episode, ep: EpisodeState, env, flags):
    sinr_lin = radio.sinr_many(env, np.array([u.position for u in ep.uavs]))
    for i, uav in enumerate(ep.uavs):
        sample = radio.SinrLevel.from_linear(float(sinr_lin[i]), env)
        f = flags[i] if flags is not None else world.StepFlags(uav.arrived, False, False)
        rows.append(
            world.format_trajectory_row(episode, ep.t, i, uav, sample.db, sample.level, f)
        )


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
    """Seeded evaluation; scenarios come from an explicit list (cycled) or the
    seeded sampler, so identical seeds give identical reports."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if scenarios is None:
        scenarios = sample_scenarios(env_truth, trials, seed, scenario_kwargs)
    logs = [
        run_trial(
            policy, scenarios[trial % len(scenarios)], env_truth, gamma, j_n, n_speeds,
            n_headings, trajectory=trajectory, episode_index=trial,
        )
        for trial in range(trials)
    ]
    return MetricsReport.from_trials(logs)


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
