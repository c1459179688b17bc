"""UAV kinematics, agent-centric observations, rewards, joint stepping and the episode loop.

Agents move in 2D at a fixed altitude with speed and turn-rate limits.  Each
step every active agent picks a (speed, heading) action; collisions are
checked by continuous closest approach over the step segment, connectivity by
a gated SINR check every ``n_t`` steps against the next position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import radio

FAR_NEIGHBOR = 300.0  # padding distance for absent neighbors (~2x default arena diagonal)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class UavState:
    position: tuple[float, float]
    velocity: tuple[float, float]
    radius: float
    destination: tuple[float, float]
    max_speed: float
    orientation: float
    arrived: bool = False

    def __post_init__(self):
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        object.__setattr__(self, "velocity", (float(self.velocity[0]), float(self.velocity[1])))
        object.__setattr__(
            self, "destination", (float(self.destination[0]), float(self.destination[1]))
        )
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        speed = math.hypot(*self.velocity)
        if speed > self.max_speed + 1e-9:
            raise ValueError(f"|velocity| {speed} exceeds max_speed {self.max_speed}")
        object.__setattr__(self, "orientation", wrap_angle(float(self.orientation)))

    @property
    def observable(self) -> tuple[float, float, float, float, float]:
        """What other agents can see: position, velocity, radius."""
        return (*self.position, *self.velocity, self.radius)


@dataclass(frozen=True)
class Action:
    speed: float
    heading: float

    def velocity(self) -> tuple[float, float]:
        return (self.speed * math.cos(self.heading), self.speed * math.sin(self.heading))


def frame_length(j_n: int) -> int:
    """Length of an agent frame: 9 self features, 6 per neighbor slot, SINR level."""
    return 9 + 6 * j_n + 1


class StepFlags(NamedTuple):
    """Per-agent flags of one joint step, each a bool array over the agents."""

    arrived: np.ndarray
    collided: np.ndarray
    disconnected: np.ndarray


@dataclass(frozen=True)
class ScenarioConfig:
    """Episode-level parameters shared by all agents."""

    starts: tuple[tuple[float, float], ...]
    destinations: tuple[tuple[float, float], ...]
    radii: tuple[float, ...]
    max_speeds: tuple[float, ...]
    dt: float = 0.5
    n_t: int = 4
    turn_rate_limit: float = math.pi / 3.0
    max_episode_steps: int = 120
    arrival_tolerance: float = 0.5
    movement_penalty: float = -0.05

    def __post_init__(self):
        n = len(self.starts)
        if not (len(self.destinations) == len(self.radii) == len(self.max_speeds) == n):
            raise ValueError("starts/destinations/radii/max_speeds lengths differ")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.n_t < 1:
            raise ValueError("n_t must be >= 1")
        if self.max_episode_steps < 1:
            raise ValueError("max_episode_steps must be >= 1")
        for i in range(n):
            for j in range(i + 1, n):
                gap = math.hypot(
                    self.starts[i][0] - self.starts[j][0], self.starts[i][1] - self.starts[j][1]
                )
                if gap <= self.radii[i] + self.radii[j]:
                    raise ValueError(f"starts of agents {i} and {j} overlap")

    # The fields that one step's action choice reads (action_grid and
    # valuetrain.lookahead_index); agents of scenarios equal in them can share one.
    STEP_FIELDS = ("dt", "turn_rate_limit", "n_t", "arrival_tolerance", "movement_penalty")

    @property
    def num_agents(self) -> int:
        return len(self.starts)

    @property
    def step_fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.STEP_FIELDS)

    def initial_states(self) -> list[UavState]:
        out = []
        for i in range(self.num_agents):
            heading = math.atan2(
                self.destinations[i][1] - self.starts[i][1],
                self.destinations[i][0] - self.starts[i][0],
            )
            out.append(
                UavState(
                    position=self.starts[i],
                    velocity=(0.0, 0.0),
                    radius=self.radii[i],
                    destination=self.destinations[i],
                    max_speed=self.max_speeds[i],
                    orientation=heading,
                )
            )
        return out


def to_agent_frame(
    state: UavState,
    neighbors: list[tuple[float, float, float, float, float]],
    sinr_level: int,
    j_n: int,
) -> np.ndarray:
    """Transform observations into the agent-centric frame (a frame_length(j_n) vector).

    The frame is translated to the agent and rotated so +x points at its
    destination; neighbor observables are (x, y, vx, vy, radius) tuples in the
    global frame, taken closest-first (sorted and truncated to j_n here).
    """
    px, py = state.position
    dx = state.destination[0] - px
    dy = state.destination[1] - py
    d_d = math.hypot(dx, dy)
    rot = math.atan2(dy, dx) if d_d > 0 else 0.0
    cos_r, sin_r = math.cos(-rot), math.sin(-rot)

    def rotated(x, y):
        return (x * cos_r - y * sin_r, x * sin_r + y * cos_r)

    vx, vy = rotated(*state.velocity)
    self_features = (
        vx,
        vy,
        d_d,  # destination in the rotated frame lies on +x
        0.0,
        d_d,
        0.0,  # azimuth to destination is zero by construction
        state.radius,
        state.max_speed,
        wrap_angle(state.orientation - rot),
    )

    ordered = sorted(neighbors, key=lambda ob: math.hypot(ob[0] - px, ob[1] - py))[:j_n]
    blocks: list[float] = []
    for ob in ordered:
        rx, ry = rotated(ob[0] - px, ob[1] - py)
        rvx, rvy = rotated(ob[2], ob[3])
        d_j = math.hypot(rx, ry)
        a_j = math.atan2(ry, rx)
        blocks.extend((rx, ry, rvx, rvy, d_j, a_j))
    for _ in range(j_n - len(ordered)):
        blocks.extend((0.0, 0.0, 0.0, 0.0, FAR_NEIGHBOR, 0.0))
    return np.array([*self_features, *blocks, float(sinr_level)])


# The neighbor block of an empty slot: no offset or velocity, far away.
_ABSENT_BLOCK = np.array([0.0, 0.0, 0.0, 0.0, FAR_NEIGHBOR, 0.0])
_ABSENT_BLOCK.flags.writeable = False


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """Vectorized wrap to (-pi, pi]."""
    w = np.mod(a + math.pi, 2.0 * math.pi)
    w = np.where(w <= 0.0, w + 2.0 * math.pi, w)
    return w - math.pi


def agent_frame_rows(
    positions: np.ndarray,
    velocities: np.ndarray,
    orientations: np.ndarray,
    destinations: np.ndarray,
    radii: np.ndarray,
    max_speeds: np.ndarray,
    neighbor_obs: np.ndarray,
    levels: np.ndarray,
    j_n: int,
    present: np.ndarray | None = None,
) -> np.ndarray:
    """Batched to_agent_frame over M candidate states of each of A agents.

    positions/velocities are (A, M, 2), orientations and levels (A, M);
    destinations are (A, 2), radii and max_speeds (A,), and neighbor_obs is
    (A, N, 5): agent a's neighbor observables, shared by its candidates.
    present, an (A, N) bool mask, marks the slots of neighbor_obs that hold
    a neighbor (all of them when None); absent slots sort last and read as
    the padding of a missing neighbor, so agents with fewer neighbors share
    the array.  rows[a, m] equals to_agent_frame(state_am, the present
    neighbor_obs[a], levels[a, m], j_n).
    """
    pos = np.asarray(positions, dtype=float)
    vel = np.asarray(velocities, dtype=float)
    dest = np.asarray(destinations, dtype=float)
    dx = dest[:, 0:1] - pos[..., 0]
    dy = dest[:, 1:2] - pos[..., 1]
    d_d = np.hypot(dx, dy)
    rot = np.where(d_d > 0.0, np.arctan2(dy, dx), 0.0)
    cos_r, sin_r = np.cos(-rot), np.sin(-rot)

    rows = np.zeros(pos.shape[:2] + (frame_length(j_n),))
    rows[..., 0] = vel[..., 0] * cos_r - vel[..., 1] * sin_r
    rows[..., 1] = vel[..., 0] * sin_r + vel[..., 1] * cos_r
    rows[..., 2] = d_d
    rows[..., 4] = d_d
    rows[..., 6] = np.asarray(radii, dtype=float)[:, None]
    rows[..., 7] = np.asarray(max_speeds, dtype=float)[:, None]
    rows[..., 8] = wrap_angles(np.asarray(orientations, dtype=float) - rot)

    ob = np.asarray(neighbor_obs, dtype=float)
    if present is not None:
        present = np.asarray(present, dtype=bool)
    n_obs = min(ob.shape[1], j_n)
    if n_obs:
        # (A, M, N): offsets from each candidate to each of its agent's neighbors.
        off_x = ob[:, None, :, 0] - pos[..., 0:1]
        off_y = ob[:, None, :, 1] - pos[..., 1:2]
        d_j = np.hypot(off_x, off_y)
        key = d_j if present is None else np.where(present[:, None, :], d_j, np.inf)
        order = np.argsort(key, axis=-1, kind="stable")[..., :j_n]
        agent = np.arange(len(pos))[:, None, None]
        take = (agent, np.arange(pos.shape[1])[None, :, None], order)
        off_x, off_y, d_j = off_x[take], off_y[take], d_j[take]
        nvx, nvy = ob[agent, order, 2], ob[agent, order, 3]
        c, s = cos_r[..., None], sin_r[..., None]
        rx = off_x * c - off_y * s
        ry = off_x * s + off_y * c
        for k in range(n_obs):
            base = 9 + 6 * k
            rows[..., base + 0] = rx[..., k]
            rows[..., base + 1] = ry[..., k]
            rows[..., base + 2] = nvx[..., k] * cos_r - nvy[..., k] * sin_r
            rows[..., base + 3] = nvx[..., k] * sin_r + nvy[..., k] * cos_r
            rows[..., base + 4] = d_j[..., k]
            rows[..., base + 5] = np.arctan2(ry[..., k], rx[..., k])
        if present is not None:
            # A view of the neighbor blocks as (A, M, n_obs, 6).
            blocks = rows[..., 9:9 + 6 * n_obs].reshape(pos.shape[:2] + (n_obs, 6))
            blocks[~present[agent, order]] = _ABSENT_BLOCK
    for k in range(n_obs, j_n):
        rows[..., 9 + 6 * k + 4] = FAR_NEIGHBOR
    rows[..., 9 + 6 * j_n] = np.asarray(levels, dtype=float)
    return rows


@lru_cache(maxsize=64)
def _grid_axes(max_speed: float, max_turn: float, n_speeds: int, n_headings: int):
    """Speed levels and heading offsets of the action grid (read-only arrays)."""
    speeds = np.linspace(0.0, max_speed, n_speeds)
    offsets = np.linspace(-max_turn, max_turn, n_headings)
    if not np.isclose(offsets, 0.0).any():
        offsets[np.argmin(np.abs(offsets))] = 0.0
    speeds = np.repeat(speeds, n_headings)
    offsets = np.tile(offsets, n_speeds)
    speeds.flags.writeable = offsets.flags.writeable = False
    return speeds, offsets


def action_grids(
    states, config: ScenarioConfig, n_speeds: int = 3, n_headings: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Speed x heading grids of A states obeying the speed and turn-rate limits.

    Returns (speeds, headings), each (A, n_speeds * n_headings), speed-major.
    Every grid contains the hover action (speed 0) and the keep-heading
    action: with an even heading count the grid point closest to the current
    heading is snapped onto it.  The axes are cached per speed limit, turn
    limit and grid size; only the wrap around each current orientation is
    computed here, for all states at once.
    """
    if n_speeds < 2 or n_headings < 3:
        raise ValueError("need n_speeds >= 2 and n_headings >= 3")
    max_turn = config.dt * config.turn_rate_limit
    axes = [_grid_axes(s.max_speed, max_turn, n_speeds, n_headings) for s in states]
    orientations = np.array([[s.orientation] for s in states])
    return np.array([speeds for speeds, _ in axes]), wrap_angles(orientations + axes[0][1])


def action_grid(
    state: UavState, config: ScenarioConfig, n_speeds: int = 3, n_headings: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """action_grids of one state: its (speeds, headings) rows."""
    speeds, headings = action_grids([state], config, n_speeds, n_headings)
    return speeds[0], headings[0]


def sample_action_space(
    state: UavState, config: ScenarioConfig, n_speeds: int = 3, n_headings: int = 5
) -> list[Action]:
    """action_grid as a list of Actions, in the same order."""
    speeds, headings = action_grid(state, config, n_speeds, n_headings)
    return [Action(speed=float(s), heading=float(h)) for s, h in zip(speeds, headings)]


def propagate(
    state: UavState, action: Action, dt: float, arrival_tolerance: float = 0.5
) -> UavState:
    """Advance one step; snaps to the destination if the step segment passes within tolerance."""
    vx, vy = action.velocity()
    px, py = state.position
    nx, ny = px + vx * dt, py + vy * dt
    arrived = _point_segment_distance(state.destination, (px, py), (nx, ny)) <= arrival_tolerance
    if arrived:
        (nx, ny), vx, vy = state.destination, 0.0, 0.0
    return UavState((nx, ny), (vx, vy), state.radius, state.destination, state.max_speed,
                    action.heading, arrived)


def _point_segment_distance(point, seg_a, seg_b) -> float:
    ax, ay = seg_a
    bx, by = seg_b
    px, py = point
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * abx + (py - ay) * aby) / denom))
    return math.hypot(px - (ax + t * abx), py - (ay + t * aby))


def segment_closest_approach(p1, v1, p2, v2, dt: float) -> float:
    """Minimum distance between two constant-velocity points over [0, dt]."""
    rx, ry = p1[0] - p2[0], p1[1] - p2[1]
    wx, wy = v1[0] - v2[0], v1[1] - v2[1]
    denom = wx * wx + wy * wy
    t = 0.0 if denom == 0.0 else max(0.0, min(dt, -(rx * wx + ry * wy) / denom))
    return math.hypot(rx + t * wx, ry + t * wy)


# Connectivity reward per quantized SINR level (0 disconnected, 1 marginal, 2 connected).
CONNECTIVITY_BANDS = np.array([-1.0, -0.5, 0.0])
CONNECTIVITY_BANDS.flags.writeable = False
COLLISION_BUFFER = 0.2  # m of clearance over which the collision penalty ramps to 0
ARRIVAL_BONUS = 2.0  # reward of the step that reaches the destination


def collision_ramp(gap):
    """Elementwise collision penalty of surface gaps: -1 at contact, linear to 0 at the buffer."""
    gap = np.asarray(gap, dtype=float)
    return np.where(
        gap <= 0.0, -1.0,
        np.where(gap <= COLLISION_BUFFER, -(1.0 - gap / COLLISION_BUFFER), 0.0),
    )


def transition_rewards(levels, gated, collision, arrived, movement_penalty):
    """Reward of each transition, elementwise: the connectivity band of the
    post-step SINR level on a gated step, plus the collision penalty (the
    worst collision_ramp over the agent's pairs, 0.0 without one), the
    arrival bonus where the step arrives, and the movement penalty.  gated
    and movement_penalty are one value for all transitions or one each;
    levels may be None when no transition is gated.
    """
    conn = 0.0 if levels is None else np.where(gated, CONNECTIVITY_BANDS[levels], 0.0)
    return conn + collision + ARRIVAL_BONUS * arrived + movement_penalty


@dataclass
class EpisodeState:
    """Mutable joint state of one episode; owned by a single stepper."""

    uavs: list[UavState]
    t: int = 0
    ever_disconnected: list[bool] = None
    ever_collided: list[bool] = None
    # Linear SINR at each agent's position, set by rollout on the initial state
    # and by step_all after every step; not compared (an array).
    sinr: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.uavs)
        if self.ever_disconnected is None:
            self.ever_disconnected = [False] * n
        if self.ever_collided is None:
            self.ever_collided = [False] * n

    @property
    def all_arrived(self) -> bool:
        return all(u.arrived for u in self.uavs)

    @property
    def any_collision(self) -> bool:
        return any(self.ever_collided)

    def neighbors_of(self, i: int):
        """Observable tuples of all other active agents."""
        return [u.observable for j, u in enumerate(self.uavs) if j != i and not u.arrived]


def step_all(
    states: list[EpisodeState],
    actions: list[list[Action | None]],
    env: radio.RadioEnvironment,
    scenarios: list[ScenarioConfig],
) -> tuple[list[EpisodeState], list[list[float]], list[StepFlags]]:
    """Advance the agents of every episode simultaneously: episode b takes
    actions[b] under scenarios[b].  Returns per episode its new state, each
    agent's reward total (transition_rewards) and the step's flags.

    Arrived agents get None actions, hold position and get reward 0.0; they
    are excluded from collision checks.  Collision pairs are detected by
    closest approach over the step segments.  The gated connectivity check
    uses the post-step SINR.  Kinematics and closest approach run per agent
    and pair; the SINR, levels, collision penalties, rewards and flags of
    all episodes' agents are each one array operation, so an episode gets
    the bits of a step with it alone.
    """
    if not len(states) == len(actions) == len(scenarios):
        raise ValueError("states, actions and scenarios lengths differ")
    # Per row, every episode's agents in episode-major order: the state before
    # and after the step, the commanded velocity, whether its episode's step
    # checks connectivity, and its episode's movement penalty.
    uavs: list[UavState] = []
    nxt: list[UavState] = []
    seg_vel: list[tuple[float, float]] = []
    gated: list[bool] = []
    penalty: list[float] = []
    spans: list[tuple[int, int]] = []  # each episode's rows
    pairs: list[tuple[int, int]] = []  # rows of the agent pairs active in the step
    closest: list[float] = []
    for state, acts, config in zip(states, actions, scenarios):
        prev = state.uavs
        if len(acts) != len(prev):
            raise ValueError(f"expected {len(prev)} actions, got {len(acts)}")
        first = len(uavs)
        spans.append((first, first + len(prev)))
        uavs += prev
        gated += [state.t % config.n_t == 0] * len(prev)
        penalty += [config.movement_penalty] * len(prev)
        for i, (uav, act) in enumerate(zip(prev, acts)):
            if uav.arrived and act is not None:
                raise ValueError(f"agent {i} already arrived but got an action")
            if not uav.arrived and act is None:
                raise ValueError(f"agent {i} is active but got no action")
            if act is None:
                nxt.append(uav)
                seg_vel.append((0.0, 0.0))
            else:
                nxt.append(propagate(uav, act, config.dt, config.arrival_tolerance))
                # Collision segments use the commanded motion even when the agent
                # snaps onto its destination and reports zero velocity afterwards.
                seg_vel.append(act.velocity())
        # Continuous collision check among the episode's agents active during
        # this step.  Each pair's closest approach is computed once (it is
        # symmetric in the pair) and gives both the collided flags and, from
        # each side's gap, the penalties.  With heterogeneous radii the
        # binding pair is the worst margin, not the smallest raw distance.
        active = [first + i for i, u in enumerate(prev) if not u.arrived]
        ep_pairs = [(i, j) for a, i in enumerate(active) for j in active[a + 1:]]
        pairs += ep_pairs
        closest += [
            segment_closest_approach(uavs[i].position, seg_vel[i], uavs[j].position, seg_vel[j],
                                     config.dt)
            for i, j in ep_pairs
        ]

    gaps = []
    for (i, j), d in zip(pairs, closest):
        gaps += [d - uavs[i].radius - uavs[j].radius, d - uavs[j].radius - uavs[i].radius]
    penalties = collision_ramp(gaps).tolist()
    collided = [False] * len(uavs)
    worst_pair = [0.0] * len(uavs)
    for k, ((i, j), d) in enumerate(zip(pairs, closest)):
        if d <= uavs[i].radius + uavs[j].radius:
            collided[i] = collided[j] = True
        worst_pair[i] = min(worst_pair[i], penalties[2 * k])
        worst_pair[j] = min(worst_pair[j], penalties[2 * k + 1])

    sinr = radio.sinr_many(env, np.array([u.position for u in nxt]))
    acting = [not u.arrived for u in uavs]
    arrived = np.array([u.arrived for u in nxt])
    # Only a gated step checks connectivity, so only then are the levels read.
    if any(gated):
        gated = np.array(gated)
        levels = radio.quantize_many(sinr, env)
        disconnected = (levels == 0) & gated & np.array(acting)
    else:
        levels, disconnected = None, np.zeros(len(nxt), dtype=bool)
    totals = transition_rewards(levels, gated, np.array(worst_pair), arrived, np.array(penalty))
    rewards = [r if a else 0.0 for r, a in zip(totals.tolist(), acting)]

    new_states, step_rewards, flags = [], [], []
    for state, (lo, hi) in zip(states, spans):
        f = StepFlags(arrived=arrived[lo:hi], collided=np.array(collided[lo:hi]),
                      disconnected=disconnected[lo:hi])
        new_states.append(EpisodeState(
            uavs=nxt[lo:hi],
            t=state.t + 1,
            ever_disconnected=[e or d for e, d in zip(state.ever_disconnected,
                                                      f.disconnected.tolist())],
            ever_collided=[e or c for e, c in zip(state.ever_collided, collided[lo:hi])],
            sinr=sinr[lo:hi],
        ))
        step_rewards.append(rewards[lo:hi])
        flags.append(f)
    return new_states, step_rewards, flags


@dataclass
class Outcome:
    """How each agent's episode ended, and the number of steps taken."""

    arrived: list[bool]
    collided: list[bool]
    disconnected: list[bool]
    steps: int

    @classmethod
    def of(cls, ep: EpisodeState, **extra):
        return cls(
            arrived=[u.arrived for u in ep.uavs], collided=list(ep.ever_collided),
            disconnected=list(ep.ever_disconnected), steps=ep.t, **extra,
        )


def ground_truth_oracle(env: radio.RadioEnvironment):
    """Quantized-SINR query of env at an (..., 2) array of positions."""

    def oracle(positions: np.ndarray) -> np.ndarray:
        levels = radio.quantize_many(radio.sinr_many(env, np.reshape(positions, (-1, 2))), env)
        return levels.reshape(np.shape(positions)[:-1])

    return oracle


class Rollout(NamedTuple):
    """A finished episode, per agent: frames, rewards, terminal frames; and the final state."""

    frames: list[list[np.ndarray]]  # agent frame before each of the agent's actions
    rewards: list[list[float]]  # step reward totals while the agent was active
    terminals: list[tuple[int, np.ndarray]]  # (agent, frame) after arrival, if no collision
    final: EpisodeState


def rollout(
    scenarios: list[ScenarioConfig],
    env: radio.RadioEnvironment,
    choose,
    j_n: int | None = None,
    observe=None,
) -> list[Rollout]:
    """The episode loop of bootstrap, training and evaluation: one episode per
    scenario, stepping in lockstep.

    Every step, choose(t, agents) returns one action per active agent of every
    live episode, given as (b, i, uav, neighbors) in episode-then-agent order
    (neighbors: the other active agents' observables); one step_all call then
    advances every live episode.  An episode leaves the batch when all its
    agents have arrived, at its step cap, or right after its first collision.
    With j_n given, each active agent's frame is recorded before it acts, and
    after a collision-free episode so is the terminal frame of each arrived
    agent; their SINR levels quantize the episode's own SINR
    (EpisodeState.sinr), computed here for all initial positions in one call
    and by step_all after every step.  observe(b, ep, flags), if given, sees
    episode b's initial state (flags None) and its state after every step.
    """
    eps = [EpisodeState(uavs=sc.initial_states()) for sc in scenarios]
    sinr = radio.sinr_many(env, np.array([u.position for ep in eps for u in ep.uavs]))
    for ep, ep_sinr in zip(eps, np.split(sinr, np.cumsum([len(ep.uavs) for ep in eps])[:-1])):
        ep.sinr = ep_sinr
    rewards = [[[] for _ in range(sc.num_agents)] for sc in scenarios]
    frames = [[[] for _ in range(sc.num_agents)] for sc in scenarios]
    if observe is not None:
        for b, ep in enumerate(eps):
            observe(b, ep, None)
    live = list(range(len(scenarios)))
    t = 0
    while live:
        agents = []
        for b in live:
            ep = eps[b]
            active = [i for i, u in enumerate(ep.uavs) if not u.arrived]
            neighbors = [ep.neighbors_of(i) for i in active]
            if j_n is not None:
                levels = radio.quantize_many(ep.sinr, env)
                for i, nbs in zip(active, neighbors):
                    frames[b][i].append(to_agent_frame(ep.uavs[i], nbs, int(levels[i]), j_n))
            agents += [(b, i, ep.uavs[i], nbs) for i, nbs in zip(active, neighbors)]
        actions: dict[int, list[Action | None]] = {b: [None] * len(eps[b].uavs) for b in live}
        for (b, i, _, _), act in zip(agents, choose(t, agents), strict=True):
            actions[b][i] = act
        stepped = step_all([eps[b] for b in live], [actions[b] for b in live], env,
                           [scenarios[b] for b in live])
        for b, ep, step_rewards, flags in zip(live, *stepped):
            eps[b] = ep
            for i, act in enumerate(actions[b]):
                if act is not None:
                    rewards[b][i].append(step_rewards[i])
            if observe is not None:
                observe(b, ep, flags)
        t += 1
        live = [b for b in live if not (eps[b].all_arrived or eps[b].any_collision
                                        or t >= scenarios[b].max_episode_steps)]
    runs = []
    for b, ep in enumerate(eps):
        # Arrived terminals carry zero future value and anchor the value net there.
        terminals = []
        if j_n is not None and not ep.any_collision and any(u.arrived for u in ep.uavs):
            levels = radio.quantize_many(ep.sinr, env)
            terminals = [
                (i, to_agent_frame(u, ep.neighbors_of(i), int(levels[i]), j_n))
                for i, u in enumerate(ep.uavs) if u.arrived
            ]
        runs.append(Rollout(frames[b], rewards[b], terminals, ep))
    return runs


TRAJECTORY_COLUMNS = (
    "episode,t,agent,x,y,vx,vy,sinr_db,level,arrived,collided,disconnected"
)


def format_trajectory_row(
    episode: int, t: int, agent: int, uav: UavState, sinr_db: float, level: int,
    arrived: bool, collided: bool, disconnected: bool,
) -> str:
    """One TRAJECTORY_COLUMNS row: an agent's state and its flags (StepFlags) after a step."""
    return ",".join(
        [
            str(episode),
            str(t),
            str(agent),
            repr(uav.position[0]),
            repr(uav.position[1]),
            repr(uav.velocity[0]),
            repr(uav.velocity[1]),
            repr(sinr_db),
            str(level),
            str(int(arrived)),
            str(int(collided)),
            str(int(disconnected)),
        ]
    )
