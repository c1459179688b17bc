"""Output checks.  Each returns a list of failure messages; empty means it passed.

They compare the program's files against the computations in `reference`
or test properties the method must have.  None compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

REL_TOL = 1e-9


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def read_trajectories(path) -> dict:
    """{episode: {t: {agent: row}}} with row = dict of typed columns."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or line.startswith("episode") or not line.strip():
                continue
            c = line.strip().split(",")
            row = {
                "x": float(c[3]), "y": float(c[4]), "vx": float(c[5]), "vy": float(c[6]),
                "sinr_db": float(c[7]), "level": int(c[8]), "arrived": c[9] == "1",
                "collided": c[10] == "1", "disconnected": c[11] == "1",
            }
            out[int(c[0])][int(c[1])][int(c[2])] = row
    return out


def check_trajectories(trajs: dict, env: dict, world: dict) -> list[str]:
    """Radio values, kinematics and the collision and disconnection flags of one mode."""
    bad: list[str] = []
    dt, n_t = world["dt"], world["n_t"]
    top_speed = world["speed_range"][1]
    max_turn = dt * world["turn_rate_limit"]
    radius = world["agent_radius"]

    def fail(msg):
        if len(bad) < 20:
            bad.append(msg)

    for ep, steps in trajs.items():
        ts = sorted(steps)
        if ts != list(range(len(ts))):
            fail(f"episode {ep}: steps {ts[:3]}.. are not consecutive from 0")
            continue
        sinr_of = {}
        for t in ts:
            for a, r in steps[t].items():
                s = ref.sinr(env, r["x"], r["y"])
                sinr_of[t, a] = s
                prog = 10.0 ** (r["sinr_db"] / 10.0)
                if abs(prog - s) > REL_TOL * s:
                    fail(f"ep {ep} t {t} agent {a}: sinr {prog!r} vs reference {s!r}")
                if not ref.near_band_edge(env, s) and r["level"] != ref.level(env, s):
                    fail(f"ep {ep} t {t} agent {a}: level {r['level']} vs reference "
                         f"{ref.level(env, s)}")
        if any(r["collided"] or r["disconnected"] for r in steps[0].values()):
            fail(f"episode {ep}: flags set before the first step")
        last_heading: dict[int, tuple[int, float]] = {}
        for t in ts[1:]:
            prev, cur = steps[t - 1], steps[t]
            active = [a for a in sorted(cur) if not prev[a]["arrived"]]
            snapped = [a for a in active if cur[a]["arrived"]]
            for a in sorted(cur):
                p, c = prev[a], cur[a]
                if p["arrived"]:
                    if (c["x"], c["y"], c["vx"], c["vy"]) != (p["x"], p["y"], 0.0, 0.0):
                        fail(f"ep {ep} t {t} agent {a}: moved after arrival")
                    if c["collided"] or c["disconnected"]:
                        fail(f"ep {ep} t {t} agent {a}: flagged after arrival")
                    continue
                gated = (t - 1) % n_t == 0
                s = sinr_of[t, a]
                if not ref.near_band_edge(env, s):
                    expected = gated and s < env["threshold"]
                    if c["disconnected"] != expected:
                        fail(f"ep {ep} t {t} agent {a}: disconnected={c['disconnected']}, "
                             f"reference says {expected}")
                if a in snapped:
                    continue
                if (abs(c["x"] - (p["x"] + c["vx"] * dt)) > 1e-9
                        or abs(c["y"] - (p["y"] + c["vy"] * dt)) > 1e-9):
                    fail(f"ep {ep} t {t} agent {a}: position is not previous + v*dt")
                speed = math.hypot(c["vx"], c["vy"])
                if speed > top_speed + 1e-9:
                    fail(f"ep {ep} t {t} agent {a}: speed {speed} above {top_speed}")
                if speed > 0.0:
                    heading = math.atan2(c["vy"], c["vx"])
                    if a in last_heading:
                        t0, h0 = last_heading[a]
                        if abs(_wrap(heading - h0)) > (t - t0) * max_turn + 1e-9:
                            fail(f"ep {ep} t {t} agent {a}: heading turned "
                                 f"{abs(_wrap(heading - h0))} in {t - t0} steps")
                    last_heading[a] = (t, heading)
            if snapped:
                continue
            for a in active:
                expected, near_edge = False, False
                for b in active:
                    if b == a:
                        continue
                    d = ref.closest_approach(
                        (prev[a]["x"], prev[a]["y"]), (cur[a]["vx"], cur[a]["vy"]),
                        (prev[b]["x"], prev[b]["y"]), (cur[b]["vx"], cur[b]["vy"]), dt,
                    )
                    near_edge |= abs(d - 2 * radius) <= 1e-9
                    expected |= d <= 2 * radius
                if not near_edge and cur[a]["collided"] != expected:
                    fail(f"ep {ep} t {t} agent {a}: collided={cur[a]['collided']}, "
                         f"reference closest approach says {expected}")
    return bad


def count_decisions(trajs: dict) -> int:
    """Steps taken by agents that had not arrived before the step."""
    return sum(
        not steps[t - 1][a]["arrived"]
        for steps in trajs.values() for t in steps if t > 0 for a in steps[t]
    )


def check_report(report: dict, mode: str, trajs: dict) -> list[str]:
    """The counts in report.json equal those derived from the trajectories."""
    rep = report["modes"][mode]
    derived = []
    for ep in sorted(trajs):
        steps = trajs[ep]
        last = max(steps)
        agents = sorted(steps[0])
        derived.append({
            "arrived": [int(steps[last][a]["arrived"]) for a in agents],
            "collided": [int(any(steps[t][a]["collided"] for t in steps)) for a in agents],
            "disconnected": [int(any(steps[t][a]["disconnected"] for t in steps)) for a in agents],
            "steps": last,
        })
    bad = []
    if rep["per_trial"] != derived:
        bad.append(f"{mode}: per-trial outcomes differ from the trajectories")
    agent_logs = [
        (a, c, d) for log in derived
        for a, c, d in zip(log["arrived"], log["collided"], log["disconnected"])
    ]
    counts = {
        "trials": len(derived),
        "agent_trials": len(agent_logs),
        "success_count": sum(a and not c and not d for a, c, d in agent_logs),
        "collision_count": sum(c for _, c, _ in agent_logs),
        "disconnection_count": sum(d for _, _, d in agent_logs),
    }
    for key, value in counts.items():
        if rep[key] != value:
            bad.append(f"{mode}: {key} {rep[key]} but the trajectories give {value}")
    return bad


def check_jammer_off(report: dict, traj_dir: Path) -> list[str]:
    """Without a jammer the outdated snapshot is the truth, so the two modes agree."""
    bad = []
    if report["modes"]["outdated"] != report["modes"]["perfect"]:
        bad.append("preset none: outdated and perfect reports differ")
    outdated = (traj_dir / "trajectories-outdated.csv").read_bytes()
    if outdated != (traj_dir / "trajectories-perfect.csv").read_bytes():
        bad.append("preset none: outdated and perfect trajectories differ")
    return bad


def check_bootstrap(path, j_n: int) -> list[str]:
    width = 9 + 6 * j_n + 1
    bad = []
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        if f"features={width}" not in header.split():
            bad.append(f"bootstrap header {header.strip()!r} lacks features={width}")
        n = 0
        for line in f:
            if line.startswith("#"):
                continue
            n += 1
            if len(line.split(",")) != width + 1:
                bad.append(f"bootstrap row {n} has {len(line.split(','))} columns, "
                           f"expected {width} features + value")
                break
    if n == 0:
        bad.append("bootstrap set is empty")
    return bad


def check_curve(path, training: dict) -> list[str]:
    """One row per episode, jammer changes on the period, linear epsilon schedule."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or line.startswith("episode"):
                continue
            c = line.strip().split(",")
            rows.append((int(c[0]), float(c[2]), (float(c[3]), float(c[4]), float(c[5]))))
    total = training["total_episodes"]
    period = training["jammer_change_period"]
    bad = []
    if [r[0] for r in rows] != list(range(total)):
        bad.append(f"curve has {len(rows)} rows, expected episodes 0..{total - 1}")
        return bad
    changes = [e for e in range(1, total) if rows[e][2] != rows[e - 1][2]]
    if any(e % period for e in changes):
        bad.append(f"jammer changed at episodes {changes}, period is {period}")
    if len(changes) < 2:
        bad.append(f"jammer moved {len(changes)} times, expected at least 2")
    span = max(1, int(round(total * training["epsilon_decay_fraction"])))
    start, end = training["epsilon_start"], training["epsilon_end"]
    for e, eps, _ in rows:
        expected = end if e >= span else start + (end - start) * e / span
        if abs(eps - expected) > 1e-12:
            bad.append(f"epsilon {eps!r} at episode {e}, schedule gives {expected!r}")
            break
    return bad


def check_value_model(model_path, replay_path, rng: np.random.Generator,
                      program_forward) -> list[str]:
    """Finite weights, and the program's forward pass agrees with the reference one."""
    model = ref.load_dense(model_path)
    bad = []
    for group in ("weights", "biases"):
        values = np.asarray(
            [v for layer in model[group] for v in np.ravel(np.asarray(layer, dtype=float))]
        )
        if not np.isfinite(values).all():
            bad.append(f"value model has non-finite {group}")
    if bad:
        return bad
    with np.load(replay_path) as data:
        feats = data["features"]
    rows = feats[rng.choice(len(feats), size=min(16, len(feats)), replace=False)]
    ours = ref.dense_forward(model, rows)
    theirs = program_forward(model_path, rows)
    err = float(np.max(np.abs(ours - theirs)))
    if err > REL_TOL:
        bad.append(f"forward pass differs from the reference by {err}")
    return bad


def map_probe_accuracy(env: dict, positions: np.ndarray, predict) -> float:
    """Accuracy of predict(positions) against levels of the reference SINR."""
    truth = np.array([ref.level(env, ref.sinr(env, x, y)) for x, y in positions])
    return float(np.mean(predict(positions) == truth))


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
