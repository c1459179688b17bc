"""Offline value-network training: epsilon-greedy rollouts with one-step
lookahead against a ground-truth radio map, Monte-Carlo return targets,
experience replay, and a periodically changing jammer.

The lookahead scores each admissible action by the scaled estimated reward of
the transition plus the discounted value of the predicted next joint state;
rewards and stored targets share one positive scale factor, which leaves the
argmax unchanged.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import neuro, radio, world
from .world import Action, EpisodeState, ScenarioConfig, UavState, to_agent_frame

TARGET_SCALE = 0.25  # keeps worst-case returns out of the tanh saturation zone


def discounted_returns(rewards, gamma: float):
    """Return-to-go by backward recursion: target_t = sum_{k>=t} gamma^(k-t) R_k."""
    out = [0.0] * len(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


class ReplayBuffer:
    """FIFO ring of (feature vector, scaled value target) pairs."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, features: np.ndarray, target: float) -> None:
        self._entries.append((np.asarray(features, dtype=float), float(target)))

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, len(self._entries), size=min(batch_size, len(self._entries)))
        feats = np.stack([self._entries[i][0] for i in idx])
        targets = np.array([self._entries[i][1] for i in idx])
        return feats, targets

    def as_arrays(self):
        feats = np.stack([e[0] for e in self._entries])
        targets = np.array([e[1] for e in self._entries])
        return feats, targets

    def digest(self) -> str:
        h = hashlib.sha256()
        for vec, target in self._entries:
            h.update(vec.tobytes())
            h.update(np.float64(target).tobytes())
        return h.hexdigest()

    def entries(self):
        return iter(self._entries)


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
class EpisodeLog:
    reward_sums: list[float]
    arrived: list[bool]
    collided: list[bool]
    disconnected: list[bool]
    steps: int
    epsilon: float

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
    agents: int = 4
    j_n: int = 4
    n_speeds: int = 3
    n_headings: int = 5
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


def ground_truth_oracle(env: radio.RadioEnvironment):
    """Quantized-SINR query used by the offline trainer as its radio map."""

    def oracle(positions: np.ndarray) -> np.ndarray:
        return radio.quantize_many(radio.sinr_many(env, positions), env)

    return oracle


def lookahead_select(
    value_net: neuro.NetworkParams,
    self_state: UavState,
    neighbors,
    action_space,
    sinr_oracle,
    gamma: float,
    t: int,
    config: ScenarioConfig,
    j_n: int = 4,
    reward_scale: float = TARGET_SCALE,
    pad_distance: float = world.FAR_NEIGHBOR,
) -> Action:
    """lookahead_index over a list of Actions; returns the chosen element itself."""
    speeds = np.array([a.speed for a in action_space])
    headings = np.array([a.heading for a in action_space])
    k = lookahead_index(
        value_net, self_state, neighbors, speeds, headings, sinr_oracle, gamma, t, config,
        j_n, reward_scale, pad_distance,
    )
    return action_space[k]


def lookahead_index(
    value_net: neuro.NetworkParams,
    self_state: UavState,
    neighbors,
    speeds: np.ndarray,
    headings: np.ndarray,
    sinr_oracle,
    gamma: float,
    t: int,
    config: ScenarioConfig,
    j_n: int = 4,
    reward_scale: float = TARGET_SCALE,
    pad_distance: float = world.FAR_NEIGHBOR,
) -> int:
    """Argmax over actions of scaled estimated reward + gamma * V(next state).

    Actions are given as parallel speed and heading arrays (see
    world.action_grid).  Neighbors travel one step at their observed
    (filtered) velocities; the SINR oracle is queried at each candidate next
    position.  Ties go to the first action in the given order.
    """
    if len(speeds) == 0:
        raise ValueError("empty action space")
    dt = config.dt
    px, py = self_state.position
    dest = self_state.destination
    vel = np.column_stack([speeds * np.cos(headings), speeds * np.sin(headings)])
    raw_pos = np.column_stack([px + vel[:, 0] * dt, py + vel[:, 1] * dt])

    # Arrival snap: distance from the destination to each step segment.
    seg = vel * dt
    seg_len_sq = (seg * seg).sum(axis=1)
    to_dest = np.array([dest[0] - px, dest[1] - py])
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(
            seg_len_sq > 0.0, (seg @ to_dest) / np.where(seg_len_sq > 0, seg_len_sq, 1.0), 0.0
        )
    frac = np.clip(frac, 0.0, 1.0)
    closest = np.column_stack([px + frac * seg[:, 0], py + frac * seg[:, 1]])
    arrived = np.hypot(closest[:, 0] - dest[0], closest[:, 1] - dest[1]) <= config.arrival_tolerance
    positions = np.where(arrived[:, None], np.array(dest)[None, :], raw_pos)
    state_vel = np.where(arrived[:, None], 0.0, vel)

    levels = np.asarray(sinr_oracle(positions), dtype=int)
    gated = t % config.n_t == 0
    conn = np.array([-1.0, -0.5, 0.0])[levels] if gated else np.zeros(len(levels))

    coll = np.zeros(len(speeds))
    for ob in neighbors:
        rx, ry = px - ob[0], py - ob[1]
        wx, wy = vel[:, 0] - ob[2], vel[:, 1] - ob[3]
        w_sq = wx * wx + wy * wy
        t_cl = np.where(w_sq > 0.0, -(rx * wx + ry * wy) / np.where(w_sq > 0, w_sq, 1.0), 0.0)
        t_cl = np.clip(t_cl, 0.0, dt)
        d_min = np.hypot(rx + t_cl * wx, ry + t_cl * wy)
        gap = d_min - self_state.radius - ob[4]
        pair = np.where(gap <= 0.0, -1.0, np.where(gap <= 0.2, -(1.0 - gap / 0.2), 0.0))
        coll = np.minimum(coll, pair)

    rewards = conn + coll + 2.0 * arrived + config.movement_penalty
    moved = [
        (ob[0] + ob[2] * dt, ob[1] + ob[3] * dt, ob[2], ob[3], ob[4]) for ob in neighbors
    ]
    feature_rows = world.agent_frame_rows(
        positions, state_vel, headings, dest, self_state.radius, self_state.max_speed,
        moved, levels, j_n, pad_distance,
    )
    values, _ = neuro.forward_batch(value_net, feature_rows)
    scores = reward_scale * rewards + gamma * values[:, 0]
    return int(np.argmax(scores))


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
        pts = np.asarray(point, dtype=float)[None, :] + offsets
        level = radio.quantize_many(radio.sinr_many(env, pts), env)
        return bool((level == 2).all())

    return ok


def sample_scenario(
    rng: np.random.Generator,
    n_agents: int,
    position_bound: float = 40.0,
    min_travel: float = 50.0,
    min_separation: float = 5.0,
    radius: float = 0.5,
    speed_range: tuple[float, float] = (4.0, 8.0),
    dt: float = 0.5,
    n_t: int = 4,
    turn_rate_limit: float = math.pi / 3.0,
    max_episode_steps: int = 120,
    arrival_tolerance: float = 0.5,
    movement_penalty: float = -0.05,
    position_ok=None,
) -> ScenarioConfig:
    """Random starts and destinations with pairwise separation and a travel floor.

    position_ok, when given, filters endpoint candidates (missions begin and
    end at connected locations); after many rejections it is waived so a
    pathological environment cannot stall the sampler.
    """

    def draw_point(others, min_from=None) -> tuple[float, float]:
        # The coverage filter is waived after many rejections; the travel and
        # separation constraints relax later, so a cramped setup degrades to a
        # shorter mission instead of stalling the sampler.
        best = None
        for attempt in range(10000):
            cand = (float(rng.uniform(-position_bound, position_bound)),
                    float(rng.uniform(-position_bound, position_bound)))
            best = cand
            if position_ok is not None and attempt < 500 and not position_ok(cand):
                continue
            if any(
                math.hypot(cand[0] - p[0], cand[1] - p[1]) <= min_separation for p in others
            ):
                continue
            if min_from is not None and attempt < 5000:
                if math.hypot(cand[0] - min_from[0], cand[1] - min_from[1]) < min_travel:
                    continue
            return cand
        return best

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
        dt=dt,
        n_t=n_t,
        turn_rate_limit=turn_rate_limit,
        max_episode_steps=max_episode_steps,
        arrival_tolerance=arrival_tolerance,
        movement_penalty=movement_penalty,
    )


def run_episode(
    value_net: neuro.NetworkParams,
    env: radio.RadioEnvironment,
    scenario: ScenarioConfig,
    eps: float,
    buffer: ReplayBuffer | None,
    rng: np.random.Generator,
    gamma: float,
    j_n: int = 4,
    n_speeds: int = 3,
    n_headings: int = 5,
    sinr_oracle=None,
    target_scale: float = TARGET_SCALE,
) -> EpisodeLog:
    """One epsilon-greedy episode; visited states get scaled return-to-go targets."""
    oracle = sinr_oracle if sinr_oracle is not None else ground_truth_oracle(env)
    ep = EpisodeState(uavs=scenario.initial_states())
    n = scenario.num_agents
    states: list[list[np.ndarray]] = [[] for _ in range(n)]
    rewards: list[list[float]] = [[] for _ in range(n)]
    while not ep.all_arrived and ep.t < scenario.max_episode_steps:
        current_levels = oracle(np.array([u.position for u in ep.uavs]))
        active_before = [not u.arrived for u in ep.uavs]
        actions: list[Action | None] = []
        for i, uav in enumerate(ep.uavs):
            if uav.arrived:
                actions.append(None)
                continue
            neighbors = ep.neighbors_of(i)
            states[i].append(
                to_agent_frame(uav, neighbors, int(current_levels[i]), j_n).vector()
            )
            speeds, headings = world.action_grid(uav, scenario, n_speeds, n_headings)
            if rng.random() <= eps:
                k = int(rng.integers(len(speeds)))
            else:
                k = lookahead_index(
                    value_net, uav, neighbors, speeds, headings, oracle, gamma, ep.t,
                    scenario, j_n=j_n, reward_scale=target_scale,
                )
            actions.append(Action(speed=float(speeds[k]), heading=float(headings[k])))
        ep, step_rewards, _ = world.step_all(ep, actions, env, scenario)
        for i in range(n):
            if active_before[i]:
                rewards[i].append(step_rewards[i].total)
        if ep.any_collision:
            break
    # Arrived terminals anchor V ~ 0 at mission completion.
    terminal_levels = oracle(np.array([u.position for u in ep.uavs]))
    if buffer is not None:
        for i in range(n):
            targets = discounted_returns(rewards[i], gamma)
            for vec, target in zip(states[i], targets):
                buffer.push(vec, target_scale * target)
            if ep.uavs[i].arrived and not ep.any_collision:
                vec = to_agent_frame(
                    ep.uavs[i], ep.neighbors_of(i), int(terminal_levels[i]), j_n
                ).vector()
                buffer.push(vec, 0.0)
    return EpisodeLog(
        reward_sums=[float(sum(r)) for r in rewards],
        arrived=[u.arrived for u in ep.uavs],
        collided=list(ep.ever_collided),
        disconnected=list(ep.ever_disconnected),
        steps=ep.t,
        epsilon=eps,
    )


@dataclass
class CurvePoint:
    episode: int
    mean_reward: float
    epsilon: float
    jammer_x: float
    jammer_y: float
    jammer_power: float


@dataclass
class TrainResult:
    value_net: neuro.NetworkParams
    curve: list[CurvePoint]
    buffer: ReplayBuffer
    episodes_run: int


def pretrain_value_net(
    bootstrap_pairs,
    config: TrainRunConfig,
    rng: np.random.Generator,
    standardizer: neuro.Standardizer | None = None,
) -> neuro.NetworkParams:
    """Fit the standardizer on bootstrap features and regress scaled targets."""
    feats = np.stack([p[0] for p in bootstrap_pairs])
    targets = TARGET_SCALE * np.array([p[1] for p in bootstrap_pairs])
    if standardizer is None:
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
    scenario_kwargs: dict | None = None,
    start_episode: int = 0,
    value_net: neuro.NetworkParams | None = None,
    buffer: ReplayBuffer | None = None,
    rng_states: dict | None = None,
    initial_jammer: radio.Jammer | None = None,
    on_checkpoint=None,
) -> TrainResult:
    """Full offline training loop; deterministic under config.seed.

    on_checkpoint(episode, net, buffer, curve, rng_states) is called every
    checkpoint_every episodes and at the end.
    """
    if not bootstrap_pairs and value_net is None:
        raise ValueError("bootstrap set must be non-empty")
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    rng_init = np.random.default_rng(seeds[0])
    rng_jam = np.random.default_rng(seeds[1])
    rng_scn = np.random.default_rng(seeds[2])
    rng_ep = np.random.default_rng(seeds[3])
    if rng_states is not None:
        rng_jam.bit_generator.state = rng_states["jammer"]
        rng_scn.bit_generator.state = rng_states["scenario"]
        rng_ep.bit_generator.state = rng_states["episode"]

    if value_net is None:
        value_net = pretrain_value_net(bootstrap_pairs, config, rng_init)
    if buffer is None:
        buffer = ReplayBuffer(config.replay_capacity)
        for vec, value in bootstrap_pairs:
            buffer.push(vec, TARGET_SCALE * value)

    adam = neuro.AdamState.for_params(value_net)
    curve: list[CurvePoint] = []
    jammer: radio.Jammer | None = initial_jammer
    scn_kwargs = dict(scenario_kwargs or {})
    scn_kwargs.setdefault("n_agents", config.agents)

    for episode in range(start_episode, config.total_episodes):
        jammer = schedule.jammer_for_episode(episode, rng_jam, jammer)
        env = env_base.with_jammer(jammer)
        # Missions start and end at connected spots of the current environment.
        scenario = sample_scenario(
            rng_scn, position_ok=coverage_predicate(env), **scn_kwargs
        )
        eps = epsilon(episode, config)
        # The rollout reads a copy without subnormals; updates go to value_net.
        log = run_episode(
            neuro.without_subnormals(value_net), env, scenario, eps, buffer, rng_ep,
            config.gamma, j_n=config.j_n, n_speeds=config.n_speeds, n_headings=config.n_headings,
        )
        for _ in range(config.updates_per_episode):
            feats, targets = buffer.sample(config.batch_size, rng_ep)
            out, cache = neuro.forward_batch(value_net, feats)
            err = out[:, 0] - targets
            loss = 0.5 * float(err @ err) / len(err)
            if not math.isfinite(loss):
                raise ArithmeticError(f"non-finite loss at episode {episode}")
            grads = neuro.backward_batch(value_net, cache, (err / len(err))[:, None], config.l2)
            neuro.adam_step(value_net, grads, adam, config.learning_rate)
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
        if on_checkpoint is not None and (
            (episode + 1) % config.checkpoint_every == 0
            or episode + 1 == config.total_episodes
        ):
            on_checkpoint(
                episode + 1, value_net, buffer, curve,
                {
                    "jammer": rng_jam.bit_generator.state,
                    "scenario": rng_scn.bit_generator.state,
                    "episode": rng_ep.bit_generator.state,
                },
                jammer,
            )
    return TrainResult(
        value_net=value_net, curve=curve, buffer=buffer, episodes_run=config.total_episodes
    )


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
