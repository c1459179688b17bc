"""Offline value-network training: epsilon-greedy rollouts with one-step
lookahead against a ground-truth radio map, Monte-Carlo return targets,
experience replay, and a periodically changing jammer.

The lookahead scores each admissible action by the scaled estimated reward of
the transition plus the discounted value of the predicted next joint state;
rewards and stored targets share one positive scale factor, which leaves the
argmax unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import neuro, radio, world
from .world import Action, ScenarioConfig, StepRules, UavState
from .world import to_agent_frame  # noqa: F401  (bench/spans.py traces it here)

TARGET_SCALE = 0.25  # keeps worst-case returns out of the tanh saturation zone


def discounted_returns(rewards, gamma: float):
    """Return-to-go by backward recursion: target_t = sum_{k>=t} gamma^(k-t) R_k."""
    out = [0.0] * len(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


class ReplayBuffer(neuro.RowRing):
    """FIFO ring of (feature vector, scaled value target) pairs."""

    def __init__(self, capacity: int):
        super().__init__(capacity, columns=1)

    def sample(self, batch_size: int, rng: np.random.Generator):
        return self.gather(rng.integers(0, len(self), size=min(batch_size, len(self))))


@dataclass(frozen=True)
class JammerSchedule:
    """Resamples jammer location and power every change_period episodes."""

    change_period: int = 2000
    x_bounds: tuple[float, float] = (-40.0, 40.0)
    y_bounds: tuple[float, float] = (-40.0, 40.0)
    powers: tuple[float, ...] = (0.5, 1.0)
    height: float = 0.0

    def __post_init__(self):
        if self.change_period < 1:
            raise ValueError("change_period must be >= 1")

    def sample(self, rng: np.random.Generator) -> radio.Jammer:
        return radio.Jammer(
            position=(
                float(rng.uniform(*self.x_bounds)),
                float(rng.uniform(*self.y_bounds)),
            ),
            height=self.height,
            tx_power=float(self.powers[rng.integers(len(self.powers))]),
        )

    def jammer_for_episode(self, episode: int, rng: np.random.Generator,
                           current: radio.Jammer | None) -> radio.Jammer:
        if current is None or episode % self.change_period == 0:
            return self.sample(rng)
        return current


@dataclass
class EpisodeLog(world.Outcome):
    reward_sums: list[float]

    @property
    def mean_reward(self) -> float:
        return float(np.mean(self.reward_sums))


@dataclass(frozen=True)
class TrainRunConfig:
    total_episodes: int = 5000
    gamma: float = 0.95
    epsilon_start: float = 0.5
    epsilon_end: float = 0.1
    epsilon_decay_fraction: float = 0.4
    j_n: int = 4
    replay_capacity: int = 100000
    batch_size: int = 200
    learning_rate: float = 1e-3
    l2: float = 1e-4
    updates_per_episode: int = 4
    pretrain_epochs: int = 30
    value_hidden: tuple[int, ...] = (64, 32, 16)
    checkpoint_every: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        for e in (self.epsilon_start, self.epsilon_end):
            if not 0.0 <= e <= 1.0:
                raise ValueError("epsilon endpoints must be in [0, 1]")
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must be in (0, 1]")
        if self.total_episodes < 1:
            raise ValueError("total_episodes must be >= 1")

    @property
    def epsilon_decay_span(self) -> int:
        return max(1, int(round(self.total_episodes * self.epsilon_decay_fraction)))


def epsilon(episode: int, config: TrainRunConfig) -> float:
    """Linear decay from the start value to the end value over the decay span."""
    if episode < 0:
        raise ValueError("episode must be >= 0")
    span = config.epsilon_decay_span
    if episode >= span:
        return config.epsilon_end
    frac = episode / span
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


def lookahead_select(
    value_net: neuro.NetworkParams,
    self_state: UavState,
    neighbors,
    action_space,
    sinr_oracle,
    gamma: float,
    t: int,
    rules: StepRules,
    j_n: int = 4,
    reward_scale: float = TARGET_SCALE,
) -> Action:
    """lookahead_index of one agent over a list of Actions; returns the chosen element itself."""
    speeds = np.array([[a.speed for a in action_space]])
    headings = np.array([[a.heading for a in action_space]])
    k = lookahead_index(
        value_net, [self_state], [neighbors], speeds, headings, sinr_oracle, gamma, t, rules,
        j_n, reward_scale,
    )
    return action_space[int(k[0])]


def lookahead_index(
    value_net: neuro.NetworkParams,
    states,
    neighbors,
    speeds: np.ndarray,
    headings: np.ndarray,
    sinr_oracle,
    gamma: float,
    t: int,
    rules: StepRules,
    j_n: int = 4,
    reward_scale: float = TARGET_SCALE,
) -> np.ndarray:
    """Per agent, the argmax over actions of scaled estimated reward + gamma * V(next state).

    A agents (states), each with its neighbors' observables (any count per
    agent) and a row of the (A, M) speed and heading arrays (see
    world.action_grids).  Neighbors travel one step at their observed
    (filtered) velocities.  The neighbor lists are padded to the longest
    with a presence mask: an absent slot adds no collision penalty and reads
    as world.agent_frame_rows' padding.  One oracle query at the (A, M, 2)
    next positions and one stacked forward pass give each agent the index a
    call with it alone gives, bit for bit; ties go to the first action.
    """
    if speeds.shape[-1] == 0:
        raise ValueError("empty action space")
    dt = rules.dt
    start = np.array([s.position for s in states])
    dest = np.array([s.destination for s in states])
    radii = np.array([s.radius for s in states])
    px, py = start[:, 0:1], start[:, 1:2]
    vel = np.stack([speeds * np.cos(headings), speeds * np.sin(headings)], axis=-1)
    raw_pos = np.stack([px + vel[..., 0] * dt, py + vel[..., 1] * dt], axis=-1)

    # Arrival snap: distance from the destination to each step segment.
    seg = vel * dt
    seg_len_sq = (seg * seg).sum(axis=-1)
    to_dest = dest - start
    along = (seg @ to_dest[:, :, None])[..., 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(
            seg_len_sq > 0.0, along / np.where(seg_len_sq > 0, seg_len_sq, 1.0), 0.0
        )
    frac = np.clip(frac, 0.0, 1.0)
    closest_x, closest_y = px + frac * seg[..., 0], py + frac * seg[..., 1]
    miss = np.hypot(closest_x - dest[:, 0:1], closest_y - dest[:, 1:2])
    arrived = miss <= rules.arrival_tolerance
    positions = np.where(arrived[..., None], dest[:, None, :], raw_pos)
    state_vel = np.where(arrived[..., None], 0.0, vel)

    levels = np.asarray(sinr_oracle(positions), dtype=int)

    # Closest approach to each neighbor (axis 1) under each action (axis 2).
    counts = [len(nbs) for nbs in neighbors]
    obs = np.zeros((len(states), max(counts), 5))
    for a, nbs in enumerate(neighbors):
        if nbs:
            obs[a, :len(nbs)] = nbs
    # The slots that hold a neighbor; None when every agent fills them all.
    present = None
    if min(counts) < max(counts):
        present = np.arange(obs.shape[1]) < np.array(counts)[:, None]
    coll = np.zeros(speeds.shape)
    if obs.shape[1]:
        rx, ry = start[:, None, 0:1] - obs[..., 0:1], start[:, None, 1:2] - obs[..., 1:2]
        wx = vel[:, None, :, 0] - obs[..., 2:3]
        wy = vel[:, None, :, 1] - obs[..., 3:4]
        w_sq = wx * wx + wy * wy
        t_cl = np.where(w_sq > 0.0, -(rx * wx + ry * wy) / np.where(w_sq > 0, w_sq, 1.0), 0.0)
        t_cl = np.clip(t_cl, 0.0, dt)
        d_min = np.hypot(rx + t_cl * wx, ry + t_cl * wy)
        gap = d_min - radii[:, None, None] - obs[..., 4:5]
        ramp = world.collision_ramp(gap)
        if present is not None:
            ramp = np.where(present[..., None], ramp, 0.0)
        coll = np.minimum(coll, ramp.min(axis=1))

    rewards = world.transition_rewards(
        levels, t % rules.n_t == 0, coll, arrived, rules.movement_penalty
    )
    moved = np.concatenate([obs[..., 0:2] + obs[..., 2:4] * dt, obs[..., 2:5]], axis=-1)
    feature_rows = world.agent_frame_rows(
        positions, state_vel, headings, dest, radii, [s.max_speed for s in states],
        moved, levels, j_n, present,
    )
    values, _ = neuro.forward_batch(value_net, feature_rows)
    scores = reward_scale * rewards + gamma * values[..., 0]
    return np.argmax(scores, axis=-1)


def coverage_predicate(env: radio.RadioEnvironment, neighborhood: float = 5.0):
    """True where the quantized SINR is fully connected; used to place missions.

    The check covers a small neighborhood, not just the point: a mission whose
    endpoint touches a coverage boundary is not operationally meaningful (and
    a truth-following policy would refuse the final approach).
    """
    offsets = np.array(
        [[0.0, 0.0], [neighborhood, 0.0], [-neighborhood, 0.0],
         [0.0, neighborhood], [0.0, -neighborhood]]
    )

    def ok(point) -> bool:
        return bool((radio.levels(env, np.asarray(point, dtype=float) + offsets) == 2).all())

    return ok


def sample_scenario(
    rng: np.random.Generator, *, n_agents: int, position_bound: float, min_travel: float,
    min_separation: float, radius: float, speed_range: tuple[float, float], position_ok,
) -> ScenarioConfig:
    """Random starts and destinations with pairwise separation and a travel floor.

    position_ok, unless None, filters endpoint candidates (missions begin and
    end at connected locations); after many rejections it is waived so a
    pathological environment cannot stall the sampler.  Separation is never
    waived: a ValueError says so when the points do not fit.
    """

    def draw_point(others, min_from=None) -> tuple[float, float]:
        # The coverage filter is waived after 500 rejections and the travel
        # floor after 5000, so a cramped setup degrades to a shorter mission
        # instead of stalling the sampler.  Every attempt draws its two
        # uniforms first, so checking the cheap constraints before the
        # coverage filter accepts the same candidate with fewer filter calls.
        for attempt in range(10000):
            cand = (float(rng.uniform(-position_bound, position_bound)),
                    float(rng.uniform(-position_bound, position_bound)))
            if any(
                math.hypot(cand[0] - p[0], cand[1] - p[1]) <= min_separation for p in others
            ):
                continue
            if min_from is not None and attempt < 5000:
                if math.hypot(cand[0] - min_from[0], cand[1] - min_from[1]) < min_travel:
                    continue
            if position_ok is not None and attempt < 500 and not position_ok(cand):
                continue
            return cand
        raise ValueError(
            f"no point within world.position_bound {position_bound} lies more than "
            f"world.min_separation {min_separation} from the {len(others)} endpoints drawn "
            f"before it in 10000 draws: world.agents {n_agents} do not fit")

    starts: list[tuple[float, float]] = []
    for _ in range(n_agents):
        starts.append(draw_point(starts))
    dests: list[tuple[float, float]] = []
    for i in range(n_agents):
        dests.append(draw_point(dests, min_from=starts[i]))
    speeds = tuple(float(rng.uniform(*speed_range)) for _ in range(n_agents))
    return ScenarioConfig(
        starts=tuple(starts),
        destinations=tuple(dests),
        radii=(radius,) * n_agents,
        max_speeds=speeds,
    )


@dataclass(frozen=True)
class MissionRules:
    """How a run draws its missions: sample_scenario's settings apart from the
    coverage filter, which each draw builds for its environment."""

    n_agents: int = 4
    position_bound: float = 40.0
    min_travel: float = 50.0
    min_separation: float = 5.0
    radius: float = 0.5
    speed_range: tuple[float, float] = (4.0, 8.0)

    def sample(self, rng: np.random.Generator, env: radio.RadioEnvironment) -> ScenarioConfig:
        """One mission whose endpoints lie at connected spots of env."""
        # Both names are looked up in the module at call time, so patched ones see every draw.
        return sample_scenario(rng, position_ok=coverage_predicate(env), **vars(self))


def run_episode(
    value_net: neuro.NetworkParams,
    env: radio.RadioEnvironment,
    scenario: ScenarioConfig,
    rules: StepRules,
    eps: float,
    buffer: ReplayBuffer | None,
    rng: np.random.Generator,
    gamma: float,
    j_n: int = 4,
) -> EpisodeLog:
    """One epsilon-greedy episode; visited states get scaled return-to-go targets."""
    oracle = functools.partial(radio.levels, env)

    def choose(t, agents):
        # The exploration coins are drawn in agent order first; the greedy
        # agents then share one lookahead, which draws nothing.
        speeds, headings = world.action_grids([uav for _, _, uav, _ in agents], rules)
        n = speeds.shape[1]
        picks = [int(rng.integers(n)) if rng.random() <= eps else None for _ in agents]
        greedy = [a for a, k in enumerate(picks) if k is None]
        if greedy:
            ks = lookahead_index(
                value_net, [agents[a][2] for a in greedy], [agents[a][3] for a in greedy],
                speeds[greedy], headings[greedy], oracle, gamma, t, rules, j_n=j_n,
            )
            for a, k in zip(greedy, ks):
                picks[a] = int(k)
        return [Action(speed=float(s[k]), heading=float(h[k]))
                for s, h, k in zip(speeds, headings, picks)]

    (run,) = world.rollout([scenario], rules, env, choose, j_n=None if buffer is None else j_n)
    if buffer is not None:
        # Agent by agent: its visited states, then its terminal state.
        terminals = dict(run.terminals)
        rows, targets = [], []
        for i, (frames, rewards) in enumerate(zip(run.frames, run.rewards)):
            for vec, target in zip(frames, discounted_returns(rewards, gamma)):
                rows.append(vec)
                targets.append(TARGET_SCALE * target)
            if i in terminals:
                rows.append(terminals[i])
                targets.append(0.0)
        buffer.extend(rows, targets)
    return EpisodeLog.of(run.final, reward_sums=[float(sum(r)) for r in run.rewards])


@dataclass
class CurvePoint:
    episode: int
    mean_reward: float
    epsilon: float
    jammer_x: float
    jammer_y: float
    jammer_power: float


@dataclass
class Checkpoint:
    """A training run after `episode` episodes: everything the next episode reads,
    and the curve of every episode so far."""

    episode: int
    value_net: neuro.NetworkParams
    adam: neuro.AdamState
    buffer: ReplayBuffer
    curve: list[CurvePoint]
    rng_states: dict  # bit-generator state of the "jammer", "scenario" and "episode" streams
    jammer: radio.Jammer | None  # the last episode's; None before the first


def pretrain_value_net(
    bootstrap_pairs,
    config: TrainRunConfig,
    rng: np.random.Generator,
) -> neuro.NetworkParams:
    """Fit the standardizer on bootstrap features and regress scaled targets."""
    feats = np.stack([p[0] for p in bootstrap_pairs])
    targets = TARGET_SCALE * np.array([p[1] for p in bootstrap_pairs])
    standardizer = neuro.fit_standardizer(feats)
    specs = neuro.dense_specs(
        feats.shape[1], config.value_hidden, 1, hidden_activation="relu",
        output_activation="tanh",
    )
    net = neuro.init_network(specs, rng, standardizer)
    train_cfg = neuro.TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        l2_coefficient=config.l2,
        epochs=config.pretrain_epochs,
    )
    net, _ = neuro.train_epochs(net, feats, targets, train_cfg, rng)
    return net


def train(
    config: TrainRunConfig,
    bootstrap_pairs,
    env_base: radio.RadioEnvironment,
    schedule: JammerSchedule,
    rules: StepRules,
    missions: MissionRules,
    resume: Checkpoint | None = None,
    on_checkpoint=None,
) -> Checkpoint:
    """Full offline training loop, every episode under rules on a mission that
    missions draws; deterministic under config.seed.

    Starts from resume when given, training its network, Adam state, buffer
    and curve in place, and otherwise from a network pretrained on the
    bootstrap pairs.  Every checkpoint_every episodes and at the end it calls
    on_checkpoint(checkpoint), whose state is live: the next episode changes
    it, so copy what is to be kept.  Resuming from a checkpoint gives the
    bits of the run that made it.  Returns the last checkpoint.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    rng_init, rng_jam, rng_scn, rng_ep = (np.random.default_rng(s) for s in seeds)
    rngs = {"jammer": rng_jam, "scenario": rng_scn, "episode": rng_ep}
    if resume is None:
        if not bootstrap_pairs:
            raise ValueError("bootstrap set must be non-empty")
        value_net = pretrain_value_net(bootstrap_pairs, config, rng_init)
        buffer = ReplayBuffer(config.replay_capacity)
        buffer.extend([vec for vec, _ in bootstrap_pairs],
                      [TARGET_SCALE * value for _, value in bootstrap_pairs])
        resume = Checkpoint(0, value_net, neuro.AdamState.for_params(value_net), buffer, [],
                            {key: rng.bit_generator.state for key, rng in rngs.items()}, None)
    for key, rng in rngs.items():
        rng.bit_generator.state = resume.rng_states[key]

    value_net, adam, buffer, curve = resume.value_net, resume.adam, resume.buffer, resume.curve
    update = neuro.MinibatchStep(value_net, adam)
    jammer = resume.jammer
    last = resume

    for episode in range(resume.episode, config.total_episodes):
        jammer = schedule.jammer_for_episode(episode, rng_jam, jammer)
        env = env_base.with_jammer(jammer)
        scenario = missions.sample(rng_scn, env)
        eps = epsilon(episode, config)
        # Keeps the rollout's forward passes off x86's slow path for subnormals.
        neuro.flush_subnormals(value_net.flat, adam.m, adam.v)
        log = run_episode(value_net, env, scenario, rules, eps, buffer, rng_ep, config.gamma,
                          j_n=config.j_n)
        for _ in range(config.updates_per_episode):
            feats, targets = buffer.sample(config.batch_size, rng_ep)
            update(feats, targets[:, None], config.l2, config.learning_rate)
        curve.append(
            CurvePoint(
                episode=episode,
                mean_reward=log.mean_reward,
                epsilon=eps,
                jammer_x=jammer.position[0],
                jammer_y=jammer.position[1],
                jammer_power=jammer.tx_power,
            )
        )
        if (episode + 1) % config.checkpoint_every == 0 or episode + 1 == config.total_episodes:
            last = Checkpoint(episode + 1, value_net, adam, buffer, curve,
                              {key: rng.bit_generator.state for key, rng in rngs.items()}, jammer)
            if on_checkpoint is not None:
                on_checkpoint(last)
    return last


CURVE_COLUMNS = "episode,accumulated_reward,epsilon,jammer_x,jammer_y,jammer_power"


def write_curve_csv(curve, path, extra_comments: tuple[str, ...] = ()):
    lines = [f"# {c}" for c in extra_comments]
    lines.append(CURVE_COLUMNS)
    for p in curve:
        lines.append(
            f"{p.episode},{p.mean_reward!r},{p.epsilon!r},"
            f"{p.jammer_x!r},{p.jammer_y!r},{p.jammer_power!r}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_curve_csv(path):
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("episode"):
                continue
            ep, rew, eps, jx, jy, jp = line.split(",")
            out.append(CurvePoint(int(ep), float(rew), float(eps), float(jx), float(jy), float(jp)))
    return out
