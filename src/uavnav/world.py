"""UAV kinematics, agent-centric observations, rewards, and joint episode stepping.

Agents move in 2D at a fixed altitude with speed and turn-rate limits.  Each
step every active agent picks a (speed, heading) action; collisions are
checked by continuous closest approach over the step segment, connectivity by
a gated SINR check every ``n_t`` steps against the next position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

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

    def distance_to(self, other: "UavState") -> float:
        return math.hypot(
            self.position[0] - other.position[0], self.position[1] - other.position[1]
        )


@dataclass(frozen=True)
class Action:
    speed: float
    heading: float

    def velocity(self) -> tuple[float, float]:
        return (self.speed * math.cos(self.heading), self.speed * math.sin(self.heading))


@dataclass(frozen=True)
class JointState:
    """Agent-centric feature vector: 9 self features, 6 per neighbor slot, SINR level."""

    self_features: tuple[float, ...]
    neighbor_features: tuple[float, ...]
    sinr_level: int

    def vector(self) -> np.ndarray:
        return np.array(
            [*self.self_features, *self.neighbor_features, float(self.sinr_level)]
        )

    @staticmethod
    def length(j_n: int) -> int:
        return 9 + 6 * j_n + 1


@dataclass(frozen=True)
class RewardBreakdown:
    connectivity: float
    collision: float
    arrival: float
    movement: float

    @property
    def total(self) -> float:
        return self.connectivity + self.collision + self.arrival + self.movement


ZERO_REWARD = RewardBreakdown(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class StepFlags:
    arrived: bool
    collided: bool
    disconnected: bool


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

    @property
    def num_agents(self) -> int:
        return len(self.starts)

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
    pad_distance: float = FAR_NEIGHBOR,
) -> JointState:
    """Transform observations into the agent-centric frame.

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
        blocks.extend((0.0, 0.0, 0.0, 0.0, pad_distance, 0.0))
    return JointState(
        self_features=self_features, neighbor_features=tuple(blocks), sinr_level=sinr_level
    )


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """Vectorized wrap to (-pi, pi]."""
    w = np.mod(a + math.pi, 2.0 * math.pi)
    w = np.where(w <= 0.0, w + 2.0 * math.pi, w)
    return w - math.pi


def agent_frame_rows(
    positions: np.ndarray,
    velocities: np.ndarray,
    orientations: np.ndarray,
    destination,
    radius: float,
    max_speed: float,
    neighbor_obs,
    levels: np.ndarray,
    j_n: int,
    pad_distance: float = FAR_NEIGHBOR,
) -> np.ndarray:
    """Batched to_agent_frame over candidate states of one agent.

    positions/velocities are (A, 2), orientations and levels (A,); neighbor_obs
    is a list of observable tuples shared by all candidates.  Row i equals
    to_agent_frame(state_i, neighbor_obs, levels[i], j_n).vector().
    """
    pos = np.asarray(positions, dtype=float)
    vel = np.asarray(velocities, dtype=float)
    a = len(pos)
    dx = destination[0] - pos[:, 0]
    dy = destination[1] - pos[:, 1]
    d_d = np.hypot(dx, dy)
    rot = np.where(d_d > 0.0, np.arctan2(dy, dx), 0.0)
    cos_r, sin_r = np.cos(-rot), np.sin(-rot)

    rows = np.zeros((a, JointState.length(j_n)))
    rows[:, 0] = vel[:, 0] * cos_r - vel[:, 1] * sin_r
    rows[:, 1] = vel[:, 0] * sin_r + vel[:, 1] * cos_r
    rows[:, 2] = d_d
    rows[:, 4] = d_d
    rows[:, 6] = radius
    rows[:, 7] = max_speed
    rows[:, 8] = wrap_angles(np.asarray(orientations, dtype=float) - rot)

    n_obs = min(len(neighbor_obs), j_n) if neighbor_obs else 0
    if n_obs:
        ob = np.asarray([o[:5] for o in neighbor_obs], dtype=float)
        off_x = ob[None, :, 0] - pos[:, 0:1]
        off_y = ob[None, :, 1] - pos[:, 1:2]
        d_j = np.hypot(off_x, off_y)
        order = np.argsort(d_j, axis=1, kind="stable")[:, :j_n]
        take = np.arange(a)[:, None]
        off_x, off_y, d_j = off_x[take, order], off_y[take, order], d_j[take, order]
        nvx, nvy = ob[order, 2], ob[order, 3]
        c, s = cos_r[:, None], sin_r[:, None]
        rx = off_x * c - off_y * s
        ry = off_x * s + off_y * c
        for k in range(n_obs):
            base = 9 + 6 * k
            rows[:, base + 0] = rx[:, k]
            rows[:, base + 1] = ry[:, k]
            rows[:, base + 2] = nvx[:, k] * cos_r - nvy[:, k] * sin_r
            rows[:, base + 3] = nvx[:, k] * sin_r + nvy[:, k] * cos_r
            rows[:, base + 4] = d_j[:, k]
            rows[:, base + 5] = np.arctan2(ry[:, k], rx[:, k])
    for k in range(n_obs, j_n):
        rows[:, 9 + 6 * k + 4] = pad_distance
    rows[:, 9 + 6 * j_n] = np.asarray(levels, dtype=float)
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


def action_grid(
    state: UavState, config: ScenarioConfig, n_speeds: int = 3, n_headings: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Speed x heading grid obeying the speed and turn-rate limits, as two arrays.

    Returns (speeds, headings) of length n_speeds * n_headings, speed-major.
    Always contains the hover action (speed 0) and the keep-heading action:
    with an even heading count the grid point closest to the current heading
    is snapped onto it.  The axes are cached per speed limit, turn limit and
    grid size; only the wrap around the current orientation is computed here.
    """
    if n_speeds < 2 or n_headings < 3:
        raise ValueError("need n_speeds >= 2 and n_headings >= 3")
    speeds, offsets = _grid_axes(
        state.max_speed, config.dt * config.turn_rate_limit, n_speeds, n_headings
    )
    return speeds, wrap_angles(state.orientation + offsets)


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
    dist = _point_segment_distance(state.destination, (px, py), (nx, ny))
    if dist <= arrival_tolerance:
        return replace(
            state,
            position=state.destination,
            velocity=(0.0, 0.0),
            orientation=action.heading,
            arrived=True,
        )
    return replace(state, position=(nx, ny), velocity=(vx, vy), orientation=action.heading)


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


def min_future_distance(self_next: UavState, neighbors, dt: float) -> float:
    """Closest approach to any neighbor during the step that produced self_next.

    self_next is the post-step state; its segment is reconstructed backwards
    from its velocity.  Neighbors are (position, velocity) pairs at the start
    of the step, carried forward at those velocities.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not neighbors:
        return math.inf
    sx = self_next.position[0] - self_next.velocity[0] * dt
    sy = self_next.position[1] - self_next.velocity[1] * dt
    return min(
        segment_closest_approach((sx, sy), self_next.velocity, pos, vel, dt)
        for pos, vel in neighbors
    )


def reward_connectivity(
    t: int, n_t: int, next_sinr: float, threshold: float, margin: float
) -> float:
    """Gated connectivity penalty from the post-step SINR."""
    if t % n_t != 0:
        return 0.0
    if next_sinr < threshold:
        return -1.0
    if next_sinr < threshold + margin:
        return -0.5
    return 0.0


def reward_collision(d_min: float, r_i: float, r_j: float) -> float:
    """-1 at contact, linear ramp over a 0.2 m buffer, 0 beyond."""
    if r_i <= 0 or r_j <= 0:
        raise ValueError("radii must be > 0")
    gap = d_min - r_i - r_j
    if gap <= 0.0:
        return -1.0
    if gap <= 0.2:
        return -(1.0 - gap / 0.2)
    return 0.0


def reward_total(
    t: int,
    n_t: int,
    next_sinr: float,
    d_min: float,
    r_i: float,
    r_j: float,
    arrived_next: bool,
    movement_penalty: float,
    threshold: float,
    margin: float,
) -> RewardBreakdown:
    return RewardBreakdown(
        connectivity=reward_connectivity(t, n_t, next_sinr, threshold, margin),
        collision=reward_collision(d_min, r_i, r_j) if math.isfinite(d_min) else 0.0,
        arrival=2.0 if arrived_next else 0.0,
        movement=movement_penalty,
    )


def connectivity_reward_from_level(level: int) -> float:
    """Band value for a quantized level; mirrors reward_connectivity's cases."""
    return (-1.0, -0.5, 0.0)[level]


@dataclass
class EpisodeState:
    """Mutable joint state of one episode; owned by a single stepper."""

    uavs: list[UavState]
    t: int = 0
    consecutive_disconnects: list[int] = None
    ever_disconnected: list[bool] = None
    ever_collided: list[bool] = None

    def __post_init__(self):
        n = len(self.uavs)
        if self.consecutive_disconnects is None:
            self.consecutive_disconnects = [0] * n
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
    state: EpisodeState,
    actions: list[Action | None],
    env: radio.RadioEnvironment,
    config: ScenarioConfig,
) -> tuple[EpisodeState, list[RewardBreakdown], list[StepFlags]]:
    """Advance all agents simultaneously and account rewards and flags.

    Arrived agents get None actions and hold position; they are excluded from
    collision checks.  Collision pairs are detected by closest approach over
    the step segments.  The gated connectivity check uses the post-step SINR.
    """
    n = len(state.uavs)
    if len(actions) != n:
        raise ValueError(f"expected {n} actions, got {len(actions)}")
    for i, (uav, act) in enumerate(zip(state.uavs, actions)):
        if uav.arrived and act is not None:
            raise ValueError(f"agent {i} already arrived but got an action")
        if not uav.arrived and act is None:
            raise ValueError(f"agent {i} is active but got no action")

    prev = state.uavs
    nxt: list[UavState] = []
    seg_vel: list[tuple[float, float]] = []
    for uav, act in zip(prev, actions):
        if act is None:
            nxt.append(uav)
            seg_vel.append((0.0, 0.0))
        else:
            nxt.append(propagate(uav, act, config.dt, config.arrival_tolerance))
            # Collision segments use the commanded motion even when the agent
            # snaps onto its destination and reports zero velocity afterwards.
            seg_vel.append(act.velocity())

    # Pairwise continuous collision check among agents active during this step.
    collided_now = [False] * n
    active = [i for i in range(n) if not prev[i].arrived]
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            i, j = active[a], active[b]
            d = segment_closest_approach(
                prev[i].position, seg_vel[i], prev[j].position, seg_vel[j], config.dt
            )
            if d <= prev[i].radius + prev[j].radius:
                collided_now[i] = collided_now[j] = True

    sinr_next = radio.sinr_many(env, np.array([u.position for u in nxt]))
    gated = state.t % config.n_t == 0

    rewards: list[RewardBreakdown] = []
    flags: list[StepFlags] = []
    new_cd = list(state.consecutive_disconnects)
    new_ed = list(state.ever_disconnected)
    new_ec = list(state.ever_collided)
    for i in range(n):
        if prev[i].arrived:
            rewards.append(ZERO_REWARD)
            flags.append(StepFlags(arrived=True, collided=False, disconnected=False))
            continue
        # With heterogeneous radii the binding pair is the worst margin, not
        # the smallest raw distance.
        worst_pair = min(
            (
                reward_collision(
                    segment_closest_approach(
                        prev[i].position, seg_vel[i], prev[j].position, seg_vel[j], config.dt
                    ),
                    prev[i].radius,
                    prev[j].radius,
                )
                for j in active
                if j != i
            ),
            default=0.0,
        )
        conn = reward_connectivity(
            state.t, config.n_t, float(sinr_next[i]), env.sinr_threshold, env.margin
        )
        rewards.append(
            RewardBreakdown(
                connectivity=conn,
                collision=worst_pair,
                arrival=2.0 if nxt[i].arrived else 0.0,
                movement=config.movement_penalty,
            )
        )
        disconnected_now = gated and float(sinr_next[i]) < env.sinr_threshold
        if gated:
            new_cd[i] = new_cd[i] + 1 if disconnected_now else 0
        if disconnected_now:
            new_ed[i] = True
        if collided_now[i]:
            new_ec[i] = True
        flags.append(
            StepFlags(arrived=nxt[i].arrived, collided=collided_now[i], disconnected=disconnected_now)
        )

    new_state = EpisodeState(
        uavs=nxt,
        t=state.t + 1,
        consecutive_disconnects=new_cd,
        ever_disconnected=new_ed,
        ever_collided=new_ec,
    )
    return new_state, rewards, flags


TRAJECTORY_COLUMNS = (
    "episode,t,agent,x,y,vx,vy,sinr_db,level,arrived,collided,disconnected"
)


def format_trajectory_row(
    episode: int, t: int, agent: int, uav: UavState, sinr_db: float, level: int, flags: StepFlags
) -> str:
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
            str(int(flags.arrived)),
            str(int(flags.collided)),
            str(int(flags.disconnected)),
        ]
    )
