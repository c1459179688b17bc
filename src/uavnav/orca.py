"""Reciprocal collision avoidance used to bootstrap the value network.

Builds per-neighbor permitted-velocity half-planes from truncated velocity
obstacles with responsibility split evenly, then picks the velocity closest
to the preferred one by incremental 2D linear programming with a 3D fallback
when the constraints are infeasible (van den Berg et al.'s construction;
see also the RVO2 reference implementation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radio, world
from .valuetrain import discounted_returns
from .world import Action, ScenarioConfig, StepRules, UavState
from .world import to_agent_frame  # noqa: F401  (bench/spans.py traces it here)

EPS = 1e-10


@dataclass(frozen=True)
class HalfPlane:
    """Permitted velocities satisfy (v - point) . normal >= 0."""

    point: tuple[float, float]
    normal: tuple[float, float]

    def __post_init__(self):
        n = math.hypot(*self.normal)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"normal must be unit length, |n|={n}")

    @property
    def direction(self) -> tuple[float, float]:
        # The directed line whose left side is the permitted half-plane.
        return (self.normal[1], -self.normal[0])


@dataclass(frozen=True)
class OrcaConfig:
    time_horizon: float = 5.0
    neighbor_range: float = 15.0
    safety_margin: float = 0.15  # inflates combined radii; exact ORCA grazes at contact

    def __post_init__(self):
        if self.time_horizon <= 0:
            raise ValueError("time_horizon must be > 0")
        if self.safety_margin < 0:
            raise ValueError("safety_margin must be >= 0")


def _det(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def orca_halfplane(self_state: UavState, neighbor, tau: float, dt: float) -> HalfPlane:
    """Half-plane of velocities keeping self clear of one neighbor for horizon tau.

    neighbor is an observable tuple (x, y, vx, vy, radius).  If the discs
    already overlap, the constraint switches to the dt-horizon escape form.
    """
    rel_pos = (neighbor[0] - self_state.position[0], neighbor[1] - self_state.position[1])
    rel_vel = (
        self_state.velocity[0] - neighbor[2],
        self_state.velocity[1] - neighbor[3],
    )
    combined = self_state.radius + neighbor[4]
    dist_sq = rel_pos[0] ** 2 + rel_pos[1] ** 2

    if dist_sq > combined * combined:
        inv_tau = 1.0 / tau
        # Vector from the truncation-disc center to the relative velocity.
        w = (rel_vel[0] - inv_tau * rel_pos[0], rel_vel[1] - inv_tau * rel_pos[1])
        w_len_sq = w[0] ** 2 + w[1] ** 2
        dot = w[0] * rel_pos[0] + w[1] * rel_pos[1]
        if dot < 0.0 and dot * dot > combined * combined * w_len_sq:
            # Closest point lies on the truncation disc.
            w_len = math.sqrt(w_len_sq)
            unit_w = (w[0] / w_len, w[1] / w_len)
            u = ((combined * inv_tau - w_len) * unit_w[0], (combined * inv_tau - w_len) * unit_w[1])
            normal = unit_w
        else:
            # Closest point lies on one of the cone legs.
            leg = math.sqrt(dist_sq - combined * combined)
            if _det(rel_pos, w) > 0.0:
                direction = (
                    (rel_pos[0] * leg - rel_pos[1] * combined) / dist_sq,
                    (rel_pos[0] * combined + rel_pos[1] * leg) / dist_sq,
                )
            else:
                direction = (
                    -(rel_pos[0] * leg + rel_pos[1] * combined) / dist_sq,
                    -(-rel_pos[0] * combined + rel_pos[1] * leg) / dist_sq,
                )
            dot2 = rel_vel[0] * direction[0] + rel_vel[1] * direction[1]
            u = (dot2 * direction[0] - rel_vel[0], dot2 * direction[1] - rel_vel[1])
            normal = (-direction[1], direction[0])
    else:
        # Already overlapping: escape within one time step.
        inv_dt = 1.0 / dt
        w = (rel_vel[0] - inv_dt * rel_pos[0], rel_vel[1] - inv_dt * rel_pos[1])
        w_len = math.hypot(*w)
        if w_len < EPS:
            # Coincident centers and velocities: push along +x deterministically.
            unit_w = (1.0, 0.0)
            w_len = 0.0
        else:
            unit_w = (w[0] / w_len, w[1] / w_len)
        u = ((combined * inv_dt - w_len) * unit_w[0], (combined * inv_dt - w_len) * unit_w[1])
        normal = unit_w

    point = (self_state.velocity[0] + 0.5 * u[0], self_state.velocity[1] + 0.5 * u[1])
    return HalfPlane(point=point, normal=normal)


def _lp1(lines, line_no, max_speed, opt_v, opt_dir):
    """1D program on constraint line_no, bounded by the speed disc and earlier lines."""
    p, d = lines[line_no]
    dot = p[0] * d[0] + p[1] * d[1]
    disc = dot * dot + max_speed * max_speed - (p[0] ** 2 + p[1] ** 2)
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t_left, t_right = -dot - sq, -dot + sq
    for i in range(line_no):
        pi, di = lines[i]
        denom = _det(d, di)
        numer = _det(di, (p[0] - pi[0], p[1] - pi[1]))
        if abs(denom) <= EPS:
            if numer < 0.0:
                return None
            continue
        t = numer / denom
        if denom >= 0.0:
            t_right = min(t_right, t)
        else:
            t_left = max(t_left, t)
        if t_left > t_right:
            return None
    if opt_dir:
        t = t_right if (opt_v[0] * d[0] + opt_v[1] * d[1]) > 0.0 else t_left
    else:
        t = d[0] * (opt_v[0] - p[0]) + d[1] * (opt_v[1] - p[1])
        t = max(t_left, min(t_right, t))
    return (p[0] + t * d[0], p[1] + t * d[1])


def _lp2(lines, max_speed, opt_v, opt_dir):
    """Incremental 2D program; returns (first failing index or len(lines), velocity)."""
    if opt_dir:
        result = (opt_v[0] * max_speed, opt_v[1] * max_speed)
    else:
        speed = math.hypot(*opt_v)
        if speed > max_speed:
            result = (opt_v[0] / speed * max_speed, opt_v[1] / speed * max_speed)
        else:
            result = tuple(opt_v)
    for i, (p, d) in enumerate(lines):
        if _det(d, (p[0] - result[0], p[1] - result[1])) > 0.0:
            new = _lp1(lines, i, max_speed, opt_v, opt_dir)
            if new is None:
                return i, result
            result = new
    return len(lines), result


def _lp3(lines, begin, max_speed, result):
    """Relax constraints uniformly until feasible (least-violation fallback)."""
    distance = 0.0
    for i in range(begin, len(lines)):
        p, d = lines[i]
        if _det(d, (p[0] - result[0], p[1] - result[1])) > distance:
            proj = []
            for j in range(i):
                pj, dj = lines[j]
                denom = _det(d, dj)
                if abs(denom) <= EPS:
                    if d[0] * dj[0] + d[1] * dj[1] > 0.0:
                        continue
                    point = (0.5 * (p[0] + pj[0]), 0.5 * (p[1] + pj[1]))
                else:
                    t = _det(dj, (p[0] - pj[0], p[1] - pj[1])) / denom
                    point = (p[0] + t * d[0], p[1] + t * d[1])
                diff = (dj[0] - d[0], dj[1] - d[1])
                norm = math.hypot(*diff)
                proj.append((point, (diff[0] / norm, diff[1] / norm)))
            fail, new = _lp2(proj, max_speed, (-d[1], d[0]), True)
            if fail >= len(proj):
                result = new
            distance = _det(d, (p[0] - result[0], p[1] - result[1]))
    return result


def orca_velocity(
    self_state: UavState, neighbors, preferred_velocity, config: OrcaConfig, dt: float
) -> tuple[float, float]:
    """Velocity closest to preferred satisfying all neighbor half-planes and the speed disc."""
    near = [
        (ob[0], ob[1], ob[2], ob[3], ob[4] + config.safety_margin)
        for ob in neighbors
        if math.hypot(ob[0] - self_state.position[0], ob[1] - self_state.position[1])
        <= config.neighbor_range
    ]
    planes = [orca_halfplane(self_state, ob, config.time_horizon, dt) for ob in near]
    lines = [(hp.point, hp.direction) for hp in planes]
    fail, v = _lp2(lines, self_state.max_speed, tuple(preferred_velocity), False)
    if fail < len(lines):
        v = _lp3(lines, fail, self_state.max_speed, v)
    return v


def preferred_velocity(state: UavState, dt: float, tiebreak_rotation: float = 0.0):
    """Full speed toward the destination, capped to avoid overshoot, optionally rotated."""
    dx = state.destination[0] - state.position[0]
    dy = state.destination[1] - state.position[1]
    dist = math.hypot(dx, dy)
    if dist < EPS:
        return (0.0, 0.0)
    speed = min(state.max_speed, dist / dt)
    angle = math.atan2(dy, dx) + tiebreak_rotation
    return (speed * math.cos(angle), speed * math.sin(angle))


def orca_rule(rules: StepRules, config: OrcaConfig, failed: dict):
    """The ORCA action choice of world.rollout under rules: each active agent
    flies orca_velocity near its preferred velocity, over one step of rules.dt.
    A choice that raises ValueError or ArithmeticError, or exceeds max_speed,
    fails its episode b alone: failed[b] keeps the error, and the episode's
    agents hover (speed 0), with no further solver calls, until rollout drops it.
    """
    dt = rules.dt

    def choose(t, agents):
        actions = []
        for b, i, uav, nbs in agents:
            if b not in failed:
                try:
                    pref = preferred_velocity(uav, dt, tiebreak_rotation=1e-3 * (i + 1))
                    vel = orca_velocity(uav, nbs, pref, config, dt)
                    speed = math.hypot(*vel)
                    if speed > uav.max_speed + 1e-9:
                        raise ValueError(f"|velocity| {speed} exceeds max_speed {uav.max_speed}")
                    actions.append(Action(speed=speed, heading=math.atan2(vel[1], vel[0])))
                    continue
                except (ValueError, ArithmeticError) as exc:
                    failed[b] = exc
            actions.append(Action(speed=0.0, heading=uav.orientation))
        return actions

    return choose


def run_orca_episode(
    scenario: ScenarioConfig,
    rules: StepRules,
    env: radio.RadioEnvironment,
    config: OrcaConfig | None = None,
    j_n: int = 4,
    record_states: bool = True,
):
    """Roll one ORCA-driven episode; returns its world.Rollout, or raises its failure.

    Velocities come straight from the reciprocal-avoidance solver, so the
    turn-rate limit is not enforced on bootstrap trajectories.
    """
    failed = {}
    choose = orca_rule(rules, config or OrcaConfig(), failed)
    (run,) = world.rollout([scenario], rules, env, choose, j_n=j_n if record_states else None)
    if failed:
        raise failed[0]
    return run


def generate_bootstrap_set(
    scenarios, rules: StepRules, env: radio.RadioEnvironment, gamma: float,
    config: OrcaConfig | None = None, j_n: int = 4,
):
    """State-value pairs from ORCA rollouts, all episodes in lockstep; values
    are raw discounted returns.

    Returns (pairs, skipped) where pairs is a list of (feature_vector, value)
    in scenario order and skipped counts episodes that failed and were dropped.
    """
    failed = {}
    runs = world.rollout(scenarios, rules, env, orca_rule(rules, config or OrcaConfig(), failed),
                         j_n=j_n)
    pairs: list[tuple[np.ndarray, float]] = []
    for b, (states, rewards, terminals, _) in enumerate(runs):
        if b in failed:
            continue
        for agent_states, agent_rewards in zip(states, rewards):
            pairs.extend(zip(agent_states, discounted_returns(agent_rewards, gamma)))
        for _, vec in terminals:
            pairs.append((vec, 0.0))
    return pairs, len(failed)


BOOTSTRAP_FORMAT = "bootstrap-pairs v1"


def write_bootstrap_csv(pairs, path, standardizer=None, extra_comments: tuple[str, ...] = ()):
    if not pairs:
        raise ValueError("no pairs to write")
    n_feat = len(pairs[0][0])
    lines = [f"# {BOOTSTRAP_FORMAT} features={n_feat} count={len(pairs)}"]
    lines.extend(f"# {c}" for c in extra_comments)
    if standardizer is not None:
        lines.append("# standardizer-mean " + ",".join(map(repr, standardizer.mean.tolist())))
        lines.append("# standardizer-std " + ",".join(map(repr, standardizer.std.tolist())))
    for vec, value in pairs:
        lines.append(",".join(map(repr, vec.tolist())) + "," + repr(float(value)))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_bootstrap_csv(path):
    """Returns (pairs, standardizer_mean_std_or_None)."""
    pairs = []
    mean = std = None
    n_feat = count = None
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith(f"# {BOOTSTRAP_FORMAT}"):
            raise ValueError(f"{path}: not a {BOOTSTRAP_FORMAT} file")
        for part in header[2:].split():
            if part.startswith("features="):
                n_feat = int(part.split("=", 1)[1])
            if part.startswith("count="):
                count = int(part.split("=", 1)[1])
        if n_feat is None or count is None:
            raise ValueError(f"{path}: header lacks features= or count=")
        for line in f:
            if not line.endswith("\n"):
                raise ValueError(f"{path}: last line is cut (no line end)")
            line = line.strip()
            if line.startswith("# standardizer-mean "):
                mean = np.array([float(v) for v in line.split(" ", 2)[2].split(",")])
                continue
            if line.startswith("# standardizer-std "):
                std = np.array([float(v) for v in line.split(" ", 2)[2].split(",")])
                continue
            if not line or line.startswith("#"):
                continue
            vals = [float(v) for v in line.split(",")]
            if len(vals) != n_feat + 1:
                raise ValueError(f"{path}: row has {len(vals) - 1} features, expected {n_feat}")
            pairs.append((np.array(vals[:-1]), vals[-1]))
    if len(pairs) != count:
        raise ValueError(f"{path}: {len(pairs)} rows, but the header says count={count}")
    standardizer = (mean, std) if mean is not None and std is not None else None
    return pairs, standardizer
