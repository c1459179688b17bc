"""Tests of the benchmark's reference computations and checks.

    python3 -m pytest bench/test_reference.py -q

A wrong reference would let wrong program output pass, so each reference is
tested against an independent route to the same number, and each check is
shown to catch a tampered output.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from uavnav import neuro, radio  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import env_of_radio  # noqa: E402


def random_env(rng, with_jammer: bool) -> radio.RadioEnvironment:
    stations = tuple(
        radio.GroundStation(
            position=tuple(rng.uniform(-100, 100, 2)),
            height=float(rng.uniform(10, 40)),
            tx_power=float(rng.uniform(0.2, 2.0)),
            tilt_deg=float(rng.uniform(-10, 20)),
            beamwidth_deg=float(rng.uniform(5, 30)),
            max_atten_db=float(rng.uniform(1, 30)),
        )
        for _ in range(int(rng.integers(1, 15)))
    )
    jammer = None
    if with_jammer:
        jammer = radio.Jammer(position=tuple(rng.uniform(-60, 60, 2)),
                              height=float(rng.uniform(0, 40)),
                              tx_power=float(rng.uniform(0.0, 2.0)))
    return radio.RadioEnvironment(
        stations=stations, jammer=jammer,
        noise_power=float(10 ** rng.uniform(-8, -4)),
        uav_altitude=float(rng.uniform(45, 120)),
        pathloss_exponent=float(rng.uniform(2.0, 4.0)),
        sinr_threshold=float(10 ** rng.uniform(-0.5, 0.5)),
        margin=float(rng.uniform(0.0, 0.5)),
    )


@pytest.mark.parametrize("with_jammer", [False, True])
def test_brute_force_sinr_matches_sinr_many(with_jammer):
    rng = np.random.default_rng(7 + with_jammer)
    for _ in range(200):
        env = random_env(rng, with_jammer)
        pts = rng.uniform(-120, 120, size=(8, 2))
        program = radio.sinr_many(env, pts)
        renv = env_of_radio(env)
        ours = np.array([ref.sinr(renv, x, y) for x, y in pts])
        np.testing.assert_allclose(ours, program, rtol=1e-12, atol=0)


def test_sinr_by_hand_for_one_station_and_a_jammer():
    # One station straight below the UAV: the depression angle is -90 deg.
    env = {
        "stations": [{"x": 0.0, "y": 0.0, "height": 30.0, "tx_power": 2.0, "tilt_deg": 0.0,
                      "beamwidth_deg": 90.0, "max_atten_db": 30.0}],
        "jammer": {"x": 0.0, "y": 0.0, "height": 40.0, "tx_power": 1.0, "active": True},
        "noise_power": 1e-3, "uav_altitude": 50.0, "pathloss_exponent": 2.0,
        "threshold": 0.5, "margin": 0.1,
    }
    signal = 2.0 * 10 ** (-1.2) * 1.0 / 20.0 ** 2  # 12 dB off the beam, sine 1, d^2 = 400
    jam = 1.0 * 1.0 / 10.0 ** 2
    assert ref.sinr(env, 0.0, 0.0) == pytest.approx(signal / (1e-3 + jam), rel=1e-14)
    env["jammer"]["active"] = False
    assert ref.sinr(env, 0.0, 0.0) == pytest.approx(signal / 1e-3, rel=1e-14)


def test_levels_and_band_edges():
    env = {"threshold": 0.5, "margin": 0.1}
    assert [ref.level(env, s) for s in (0.49, 0.5, 0.59, 0.6, 3.0)] == [0, 1, 1, 2, 2]
    assert ref.near_band_edge(env, 0.5 * (1 + 1e-12))
    assert ref.near_band_edge(env, 0.6)
    assert not ref.near_band_edge(env, 0.55)


def test_closest_approach_against_dense_sampling():
    rng = np.random.default_rng(3)
    for _ in range(500):
        p1, v1, p2, v2 = (rng.uniform(-5, 5, 2) for _ in range(4))
        dt = float(rng.uniform(0.1, 2.0))
        s = np.linspace(0.0, dt, 20001)[:, None]
        sampled = np.hypot(*((p1 + s * v1) - (p2 + s * v2)).T).min()
        d = ref.closest_approach(p1, v1, p2, v2, dt)
        assert d <= sampled + 1e-12
        assert d >= sampled - (np.abs(v1 - v2).sum() * dt / 20000)


def test_closest_approach_cases():
    # Head-on meeting halfway, parallel motion, and moving apart.
    assert ref.closest_approach((0, 0), (1, 0), (4, 0), (-1, 0), 3.0) == 0.0
    assert ref.closest_approach((0, 0), (1, 1), (0, 3), (1, 1), 1.0) == 3.0
    assert ref.closest_approach((0, 0), (-1, 0), (2, 0), (1, 0), 1.0) == 2.0


def test_dense_forward_matches_program_and_a_hand_net(tmp_path):
    rng = np.random.default_rng(11)
    specs = neuro.dense_specs(7, (5, 4), 1, hidden_activation="relu", output_activation="tanh")
    std = neuro.Standardizer(mean=rng.normal(size=7), std=rng.uniform(0.5, 2.0, 7))
    net = neuro.init_network(specs, rng, std)
    path = tmp_path / "net.json"
    neuro.save_model(net, path)
    x = rng.normal(size=(12, 7))
    program, _ = neuro.forward_batch(net, x)
    ours = ref.dense_forward(ref.load_dense(path), x)
    np.testing.assert_allclose(ours, program, rtol=0, atol=1e-12)

    hand = {"standardizer": {"mean": [1.0, 0.0], "std": [2.0, 1.0]},
            "layers": [{"output_size": 1, "activation": "identity"}],
            "weights": [[[3.0], [-1.0]]], "biases": [[0.5]]}
    # ((5 - 1) / 2) * 3 + (4 / 1) * -1 + 0.5 = 2.5
    assert ref.dense_forward(hand, np.array([[5.0, 4.0]]))[0, 0] == 2.5


def _row(ep, t, agent, x, y, vx, vy, env, arrived=0, collided=0):
    s = ref.sinr(env, x, y)
    disconnected = int(t == 1 and s < env["threshold"])  # n_t = 100 gates step 1 only
    return (f"{ep},{t},{agent},{x!r},{y!r},{vx!r},{vy!r},{10 * math.log10(s)!r},"
            f"{ref.level(env, s)},{arrived},{collided},{disconnected}")


def _world():
    return {"dt": 0.5, "n_t": 100, "speed_range": [6.0, 10.0],
            "turn_rate_limit": math.pi / 3, "agent_radius": 0.5}


def _env():
    return env_of_radio(random_env(np.random.default_rng(5), True))


def _write(tmp_path, rows):
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(["# digest=x", "episode,t,agent,x,y,vx,vy,sinr_db,level,"
                               "arrived,collided,disconnected", *rows]) + "\n")
    return checks.read_trajectories(path)


def test_trajectory_check_passes_a_consistent_log(tmp_path):
    env = _env()
    rows = [_row(0, 0, 0, 0.0, 0.0, 0.0, 0.0, env), _row(0, 0, 1, 20.0, 0.0, 0.0, 0.0, env),
            _row(0, 1, 0, 3.0, 0.0, 6.0, 0.0, env), _row(0, 1, 1, 17.0, 0.0, -6.0, 0.0, env)]
    assert checks.check_trajectories(_write(tmp_path, rows), env, _world()) == []


@pytest.mark.parametrize("tamper", ["position", "speed", "collision", "sinr"])
def test_trajectory_check_catches_tampering(tmp_path, tamper):
    env = _env()
    x1, v1, coll = 3.0, 6.0, 0
    if tamper == "position":
        x1 = 3.5
    elif tamper == "speed":
        x1, v1 = 6.0, 12.0
    elif tamper == "collision":
        coll = 1
    rows = [_row(0, 0, 0, 0.0, 0.0, 0.0, 0.0, env), _row(0, 0, 1, 20.0, 0.0, 0.0, 0.0, env),
            _row(0, 1, 0, x1, 0.0, v1, 0.0, env, collided=coll),
            _row(0, 1, 1, 17.0, 0.0, -6.0, 0.0, env)]
    if tamper == "sinr":
        c = rows[3].split(",")
        c[7] = repr(float(c[7]) + 1e-6)
        rows[3] = ",".join(c)
    assert checks.check_trajectories(_write(tmp_path, rows), env, _world())


def test_trajectory_check_catches_a_missed_collision(tmp_path):
    env = _env()
    # Two agents pass through each other during the step; neither is flagged.
    rows = [_row(0, 0, 0, 0.0, 0.0, 0.0, 0.0, env), _row(0, 0, 1, 4.0, 0.0, 0.0, 0.0, env),
            _row(0, 1, 0, 3.0, 0.0, 6.0, 0.0, env), _row(0, 1, 1, 1.0, 0.0, -6.0, 0.0, env)]
    found = checks.check_trajectories(_write(tmp_path, rows), env, _world())
    assert any("collided" in m for m in found)


def test_report_check_catches_a_wrong_count(tmp_path):
    env = _env()
    trajs = _write(tmp_path, [_row(0, 0, 0, 0.0, 0.0, 0.0, 0.0, env),
                              _row(0, 1, 0, 3.0, 0.0, 6.0, 0.0, env, arrived=1)])
    d = int(trajs[0][1][0]["disconnected"])
    per_trial = [{"arrived": [1], "collided": [0], "disconnected": [d], "steps": 1}]
    good = {"trials": 1, "agent_trials": 1, "success_count": 1 - d, "collision_count": 0,
            "disconnection_count": d, "per_trial": per_trial}
    assert checks.check_report({"modes": {"perfect": good}}, "perfect", trajs) == []
    bad = dict(good, success_count=d)
    assert checks.check_report({"modes": {"perfect": bad}}, "perfect", trajs)
