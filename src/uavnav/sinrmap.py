"""Online SINR mapping: GBS-geometry features, a sliding measurement cloud,
map-regressor training, and jammer-change detection from accuracy drops.

The regressor never sees the jammer; it learns level = f(nearby GBS geometry)
from labeled measurements, so a jammer move shows up as a sudden accuracy
drop on fresh measurements, which triggers a purge and retrain.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import neuro, radio

FAR_STATION = 300.0  # sentinel distance for padded station blocks
FEATURES_PER_STATION = 5


def featurize(uav_position, stations, uav_altitude: float, k_n: int,
              pad_distance: float = FAR_STATION) -> np.ndarray:
    """Blocks of [rel_x, rel_y, distance, elevation, azimuth] for the k_n nearest stations.

    stations are (x, y, height) triples; coordinates are translated to the UAV
    (no rotation; azimuth is measured in the global frame).  A station directly
    below reports elevation pi/2 and azimuth 0.
    """
    if len(stations) == 0:
        raise ValueError("no stations to featurize")
    px, py = float(uav_position[0]), float(uav_position[1])
    with_d = sorted(
        ((math.hypot(s[0] - px, s[1] - py), s) for s in stations), key=lambda t: t[0]
    )[:k_n]
    out: list[float] = []
    for d, s in with_d:
        rx, ry = s[0] - px, s[1] - py
        elev = math.pi / 2.0 if d == 0.0 else math.atan2(uav_altitude - s[2], d)
        azim = 0.0 if d == 0.0 else math.atan2(ry, rx)
        out.extend((rx, ry, d, elev, azim))
    for _ in range(k_n - len(with_d)):
        out.extend((0.0, 0.0, pad_distance, 0.0, 0.0))
    return np.array(out)


def featurize_many(positions: np.ndarray, stations, uav_altitude: float, k_n: int,
                   pad_distance: float = FAR_STATION) -> np.ndarray:
    """Vectorized featurize over an (N, 2) position array."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[None, :]
    sx = np.array([s[0] for s in stations])
    sy = np.array([s[1] for s in stations])
    sh = np.array([s[2] for s in stations])
    rx = sx[None, :] - pos[:, 0:1]
    ry = sy[None, :] - pos[:, 1:2]
    d = np.hypot(rx, ry)
    order = np.argsort(d, axis=1, kind="stable")[:, :k_n]
    rows = np.arange(len(pos))[:, None]
    rx_k, ry_k, d_k = rx[rows, order], ry[rows, order], d[rows, order]
    h_k = sh[order]
    elev = np.where(d_k == 0.0, math.pi / 2.0, np.arctan2(uav_altitude - h_k, d_k))
    azim = np.where(d_k == 0.0, 0.0, np.arctan2(ry_k, rx_k))
    feats = np.stack([rx_k, ry_k, d_k, elev, azim], axis=2).reshape(len(pos), -1)
    if k_n > len(stations):
        pad_block = np.tile(
            np.array([0.0, 0.0, pad_distance, 0.0, 0.0]), k_n - len(stations)
        )
        feats = np.concatenate(
            [feats, np.tile(pad_block, (len(pos), 1))], axis=1
        )
    return feats


@dataclass(frozen=True)
class Measurement:
    features: np.ndarray
    level: int
    timestamp: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        if self.level not in (0, 1, 2):
            raise ValueError(f"level must be in {{0,1,2}}, got {self.level}")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite features")


class MeasurementCloud:
    """Sliding window of the most recent measurements, single-writer."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._window: deque = deque(maxlen=capacity)
        self.accuracy_history: list[tuple[int, float]] = []

    def __len__(self) -> int:
        return len(self._window)

    def record(self, measurement: Measurement) -> None:
        self._window.append(measurement)

    def measurements(self) -> list[Measurement]:
        return list(self._window)

    def recent(self, n: int) -> list[Measurement]:
        items = list(self._window)
        return items[-n:]

    def purge_before(self, timestamp: int) -> int:
        """Drop measurements older than timestamp; returns how many were removed."""
        kept = [m for m in self._window if m.timestamp >= timestamp]
        removed = len(self._window) - len(kept)
        self._window = deque(kept, maxlen=self.capacity)
        return removed


@dataclass
class MapModel:
    network: neuro.NetworkParams
    k_n: int

    def __post_init__(self):
        expected = FEATURES_PER_STATION * self.k_n
        if self.network.input_size != expected:
            raise ValueError(
                f"network input {self.network.input_size} != {expected} (5 * k_n)"
            )


def init_map_model(k_n: int, rng: np.random.Generator,
                   hidden: tuple[int, ...] = (32, 16, 8)) -> MapModel:
    specs = neuro.dense_specs(
        FEATURES_PER_STATION * k_n, hidden, 1,
        hidden_activation="relu", output_activation="identity",
    )
    return MapModel(network=neuro.init_network(specs, rng), k_n=k_n)


def predict_level(model: MapModel, features) -> int:
    out, _ = neuro.forward(model.network, features)
    return int(np.clip(np.rint(out[0]), 0, 2))


def predict_levels(model: MapModel, features: np.ndarray) -> np.ndarray:
    out, _ = neuro.forward_batch(model.network, features)
    return np.clip(np.rint(out[:, 0]), 0, 2).astype(int)


def learned_oracle(model: MapModel, stations, uav_altitude: float):
    """Position -> level map backed by the regressor and observed GBS geometry."""
    triples = [(s.position[0], s.position[1], s.height) for s in stations]

    def oracle(positions: np.ndarray) -> np.ndarray:
        feats = featurize_many(positions, triples, uav_altitude, model.k_n)
        return predict_levels(model, feats)

    return oracle


def evaluate_accuracy(model: MapModel, measurements) -> float:
    measurements = list(measurements)
    if not measurements:
        raise ValueError("cannot evaluate accuracy on an empty slice")
    feats = np.stack([m.features for m in measurements])
    labels = np.array([m.level for m in measurements])
    return _accuracy(model, feats, labels)


def _accuracy(model: MapModel, feats: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose predicted level equals the label."""
    return float(np.mean(predict_levels(model, feats) == labels))


def detect_change(accuracy_now: float, baseline: float, drop_threshold: float) -> bool:
    """True when accuracy dropped more than the threshold below the baseline."""
    for v in (accuracy_now, baseline):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"accuracy {v} outside [0, 1]")
    return baseline - accuracy_now > drop_threshold


@dataclass(frozen=True)
class MapTrainConfig:
    learning_rate: float = 5e-3
    batch_size: int = 200
    l2: float = 1e-4
    epochs: int = 60
    holdout_fraction: float = 0.1
    hidden: tuple[int, ...] = (32, 16, 8)


def retrain(
    model: MapModel,
    cloud: MeasurementCloud,
    config: MapTrainConfig,
    rng: np.random.Generator,
    purge_before: int | None = None,
):
    """Fresh fit on the (optionally purged) cloud; returns (model, holdout accuracy curve)."""
    if len(cloud) == 0:
        raise ValueError("cannot retrain on an empty cloud")
    if purge_before is not None:
        cloud.purge_before(purge_before)
        if len(cloud) == 0:
            raise ValueError("purge removed every measurement")
    data = cloud.measurements()
    feats = np.stack([m.features for m in data])
    labels = np.array([float(m.level) for m in data])

    order = rng.permutation(len(data))
    n_hold = int(len(data) * config.holdout_fraction)
    hold_idx, train_idx = order[:n_hold], order[n_hold:]
    if len(train_idx) == 0:
        train_idx = order
    if n_hold == 0:
        hold_idx = np.arange(len(data))
    # Stacked once: every epoch scores the same holdout rows.
    hold_feats, hold_labels = feats[hold_idx], labels[hold_idx]

    standardizer = neuro.fit_standardizer(feats[train_idx])
    new_model = MapModel(
        network=neuro.init_network(model.network.specs, rng, standardizer), k_n=model.k_n
    )
    adam = neuro.AdamState.for_params(new_model.network)
    epoch_cfg = neuro.TrainConfig(
        learning_rate=config.learning_rate, batch_size=config.batch_size,
        l2_coefficient=config.l2, epochs=1,
    )
    curve = []
    for _ in range(config.epochs):
        neuro.train_epochs(
            new_model.network, feats[train_idx], labels[train_idx], epoch_cfg, rng, adam
        )
        curve.append(_accuracy(new_model, hold_feats, hold_labels))
    return new_model, curve


def sample_measurements(
    env: radio.RadioEnvironment,
    count: int,
    rng: np.random.Generator,
    bounds: tuple[float, float, float, float],
    k_n: int,
    timestamp_start: int = 0,
) -> list[Measurement]:
    """Ground-truth labeled measurements at uniform random positions."""
    xmin, ymin, xmax, ymax = bounds
    pos = np.column_stack(
        [rng.uniform(xmin, xmax, count), rng.uniform(ymin, ymax, count)]
    )
    levels = radio.quantize_many(radio.sinr_many(env, pos), env)
    triples = [(s.position[0], s.position[1], s.height) for s in env.stations]
    feats = featurize_many(pos, triples, env.uav_altitude, k_n)
    return [
        Measurement(features=feats[i], level=int(levels[i]), timestamp=timestamp_start + i)
        for i in range(count)
    ]


MAP_FORMAT = "sinrmap-v1"


def save_map_model(model: MapModel, path) -> None:
    import json

    data = {"format": MAP_FORMAT, "k_n": model.k_n, "network": neuro.to_dict(model.network)}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(data, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_map_model(path) -> MapModel:
    import json

    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if data.get("format") != MAP_FORMAT:
        raise ValueError(f"unsupported map model format {data.get('format')!r}")
    return MapModel(network=neuro.from_dict(data["network"]), k_n=int(data["k_n"]))


def write_measurement_csv(measurements, path, extra_comments: tuple[str, ...] = ()):
    measurements = list(measurements)
    if not measurements:
        raise ValueError("no measurements to write")
    n_feat = len(measurements[0].features)
    lines = [f"# sinr-measurements v1 features={n_feat} count={len(measurements)}"]
    lines.extend(f"# {c}" for c in extra_comments)
    lines.append(
        "timestamp," + ",".join(f"f{i}" for i in range(n_feat)) + ",label"
    )
    for m in measurements:
        lines.append(
            f"{m.timestamp}," + ",".join(repr(float(v)) for v in m.features) + f",{m.level}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_measurement_csv(path) -> list[Measurement]:
    out = []
    n_feat = None
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("# sinr-measurements v1"):
            raise ValueError(f"{path}: not a measurement log")
        for part in header[2:].split():
            if part.startswith("features="):
                n_feat = int(part.split("=", 1)[1])
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("timestamp"):
                continue
            vals = line.split(",")
            if n_feat is not None and len(vals) != n_feat + 2:
                raise ValueError(f"{path}:{lineno}: malformed measurement row")
            try:
                out.append(
                    Measurement(
                        features=np.array([float(v) for v in vals[1:-1]]),
                        level=int(vals[-1]),
                        timestamp=int(vals[0]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out
