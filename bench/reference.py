"""Reference computations the output checks compare the program against.

Each one is written from the model's definition, not from uavnav's code:
scalar SINR of the radio model, closest approach of two constant-velocity
discs, and a dense forward pass read straight from a model JSON file.
"""

from __future__ import annotations

import json
import math

import numpy as np


def station_power(station: dict, env: dict, x: float, y: float) -> float:
    """Received power P * G_gbs * G_uav / L from one station at UAV position (x, y)."""
    d = math.hypot(x - station["x"], y - station["y"])
    dh = env["uav_altitude"] - station["height"]
    angle = math.degrees(math.atan2(-dh, d))
    mismatch = (angle - station["tilt_deg"]) / station["beamwidth_deg"]
    atten_db = min(12.0 * mismatch * mismatch, station["max_atten_db"])
    g_gbs = 10.0 ** (-atten_db / 10.0)
    slant_sq = d * d + dh * dh
    g_uav = dh / math.sqrt(slant_sq)
    return station["tx_power"] * g_gbs * g_uav / slant_sq ** (env["pathloss_exponent"] / 2.0)


def jammer_power(env: dict, x: float, y: float) -> float:
    jam = env["jammer"]
    if jam is None or not jam["active"] or jam["tx_power"] == 0.0:
        return 0.0
    d = math.hypot(x - jam["x"], y - jam["y"])
    dh = env["uav_altitude"] - jam["height"]
    slant_sq = d * d + dh * dh
    return jam["tx_power"] * (dh / math.sqrt(slant_sq)) / slant_sq ** (env["pathloss_exponent"] / 2.0)


def sinr(env: dict, x: float, y: float) -> float:
    """Linear SINR with max-power association, one station at a time."""
    powers = [station_power(s, env, x, y) for s in env["stations"]]
    serving = max(powers)
    interference = math.fsum(powers) - serving
    return serving / (env["noise_power"] + jammer_power(env, x, y) + interference)


def level(env: dict, linear_sinr: float) -> int:
    if linear_sinr < env["threshold"]:
        return 0
    if linear_sinr < env["threshold"] + env["margin"]:
        return 1
    return 2


def near_band_edge(env: dict, linear_sinr: float, rel: float = 1e-9) -> bool:
    edges = (env["threshold"], env["threshold"] + env["margin"])
    return any(abs(linear_sinr - e) <= rel * e for e in edges)


def env_from_config(raw: dict, jammer_preset: dict | None) -> dict:
    """Radio environment as plain numbers, read from a config dict and a jammer spec.

    jammer_preset is None or {"position": [x, y], "height": h, "tx_power": p}.
    """
    e = raw["environment"]
    defaults = e.get("station_defaults") or {}
    stations = []
    for s in e["stations"]:
        merged = {**defaults, **s}
        stations.append({
            "x": float(merged["position"][0]),
            "y": float(merged["position"][1]),
            "height": float(merged["height"]),
            "tx_power": float(merged["tx_power"]),
            "tilt_deg": float(merged["tilt_deg"]),
            "beamwidth_deg": float(merged["beamwidth_deg"]),
            "max_atten_db": float(merged["max_atten_db"]),
        })
    jammer = None
    if jammer_preset is not None:
        jammer = {
            "x": float(jammer_preset["position"][0]),
            "y": float(jammer_preset["position"][1]),
            "height": float(jammer_preset["height"]),
            "tx_power": float(jammer_preset["tx_power"]),
            "active": bool(jammer_preset.get("active", True)),
        }
    return {
        "stations": stations,
        "jammer": jammer,
        "noise_power": float(e["noise_power"]),
        "uav_altitude": float(e["uav_altitude"]),
        "pathloss_exponent": float(e["pathloss_exponent"]),
        "threshold": 10.0 ** (float(e["sinr_threshold_db"]) / 10.0),
        "margin": float(e["margin"]),
    }


def closest_approach(p1, v1, p2, v2, dt: float) -> float:
    """Minimum distance between p1 + v1*s and p2 + v2*s over s in [0, dt].

    The squared distance is a quadratic in s; its minimum sits at the vertex
    when that lies inside the interval, otherwise at an end point.
    """
    rx, ry = p1[0] - p2[0], p1[1] - p2[1]
    wx, wy = v1[0] - v2[0], v1[1] - v2[1]
    a = wx * wx + wy * wy
    candidates = [0.0, dt]
    if a > 0.0:
        vertex = -(rx * wx + ry * wy) / a
        if 0.0 < vertex < dt:
            candidates.append(vertex)
    return min(math.hypot(rx + s * wx, ry + s * wy) for s in candidates)


def load_dense(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def dense_forward(model: dict, rows: np.ndarray) -> np.ndarray:
    """Forward pass of a densenet-v1 JSON model, one row and one unit at a time."""
    mean = model["standardizer"]["mean"]
    std = model["standardizer"]["std"]
    out = np.empty((len(rows), model["layers"][-1]["output_size"]))
    for r, row in enumerate(np.asarray(rows, dtype=float)):
        a = [(float(v) - m) / s for v, m, s in zip(row, mean, std)]
        for layer, w, b in zip(model["layers"], model["weights"], model["biases"]):
            z = [math.fsum(a[i] * w[i][j] for i in range(len(a))) + b[j]
                 for j in range(layer["output_size"])]
            if layer["activation"] == "relu":
                a = [max(v, 0.0) for v in z]
            elif layer["activation"] == "tanh":
                a = [math.tanh(v) for v in z]
            else:
                a = z
        out[r] = a
    return out
