"""Online SINR mapping: GBS-geometry features, a sliding measurement cloud,
map-regressor training, and jammer-change detection from accuracy drops.

The map knows the jammer-free environment (the stations and radio
parameters), so the level each position would have without a jammer, its
prior, is computed exactly with the radio kernel.  A jammer only adds
interference, so the true level is never above the prior; the regressor
never sees the jammer and learns only the drop below the prior from the
nearby GBS geometry and labeled measurements:
level = prior - clip(rint(drop), 0, prior).  With the jammer off every drop
is 0 and the map equals the truth.  A jammer move shows up as a sudden
accuracy drop on fresh measurements, which triggers a purge and retrain.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import neuro, radio

FAR_STATION = 300.0  # sentinel distance for padded station blocks
FEATURES_PER_STATION = 5
POSITION_FEATURES = 2  # the UAV's own x, y, after the station blocks
LEVEL_BLOCK = 2048  # positions per sinr_many call: bounds its (block, stations) temporaries


def featurize_many(positions: np.ndarray, stations, uav_altitude: float, k_n: int) -> np.ndarray:
    """Per position of an (N, 2) array: blocks of [rel_x, rel_y, distance,
    elevation, azimuth] for the k_n nearest stations, closest first, then the
    position's own x and y.

    stations are (x, y, height) triples; coordinates are translated to the UAV
    (no rotation; azimuth is measured in the global frame).  A station directly
    below reports elevation pi/2 and azimuth 0.  Missing stations (k_n above
    their count) are padded with [0, 0, FAR_STATION, 0, 0].
    """
    if len(stations) == 0:
        raise ValueError("no stations to featurize")
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[None, :]
    sx, sy, sh = np.asarray(stations, dtype=float).T
    rx = sx[None, :] - pos[:, 0:1]
    ry = sy[None, :] - pos[:, 1:2]
    d = np.hypot(rx, ry)
    order = np.argsort(d, axis=1, kind="stable")[:, :k_n]
    rows = np.arange(len(pos))[:, None]
    # Each column goes straight into one output array, and the (N, stations)
    # arrays go as soon as the nearest are taken: no stacked or concatenated copy.
    width = FEATURES_PER_STATION * k_n
    used = FEATURES_PER_STATION * order.shape[1]
    feats = np.empty((len(pos), width + POSITION_FEATURES))
    rx_k, ry_k, d_k, elev, azim = (
        feats[:, j:used:FEATURES_PER_STATION] for j in range(FEATURES_PER_STATION))
    rx_k[...] = rx[rows, order]
    ry_k[...] = ry[rows, order]
    d_k[...] = d[rows, order]
    del rx, ry, d
    below = d_k == 0.0
    elev[...] = np.where(below, math.pi / 2.0, np.arctan2(uav_altitude - sh[order], d_k))
    azim[...] = np.where(below, 0.0, np.arctan2(ry_k, rx_k))
    if used < width:
        feats[:, used:width] = np.tile([0.0, 0.0, FAR_STATION, 0.0, 0.0], k_n - order.shape[1])
    feats[:, width:] = pos
    return feats


def _first_bad_row(features: np.ndarray, levels: np.ndarray) -> int | None:
    """Index of the first row with a level outside {0, 1, 2} or a non-finite feature."""
    bad = (levels != 0) & (levels != 1) & (levels != 2) | ~np.isfinite(features).all(axis=1)
    return int(bad.argmax()) if bad.any() else None


class Measurement(NamedTuple):
    """One labeled measurement, a row of a Measurements batch; checked when it joins one."""

    features: np.ndarray
    level: int
    timestamp: int


class Measurements:
    """Labeled measurements as arrays: features (N, F), levels (N,), timestamps (N,).

    Checked once per batch.  An int index gives one Measurement, a slice or
    an index array another Measurements; iteration yields the rows in order.
    """

    def __init__(self, features, levels, timestamps):
        self.features = np.asarray(features, dtype=float)
        levels, stamps = np.asarray(levels), np.asarray(timestamps)
        if self.features.ndim != 2 or not levels.shape == stamps.shape == (len(self.features),):
            raise ValueError(f"features {self.features.shape}, levels {levels.shape} and "
                             f"timestamps {stamps.shape} do not pair up row by row")
        bad = _first_bad_row(self.features, levels)
        if bad is not None:
            raise ValueError(f"row {bad}: level must be in {{0,1,2}} and features finite")
        self.levels, self.timestamps = levels.astype(int), stamps.astype(int)

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return Measurement(self.features[i], int(self.levels[i]), int(self.timestamps[i]))
        return Measurements(self.features[i], self.levels[i], self.timestamps[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class MeasurementCloud(neuro.RowRing):
    """Sliding window of the most recent measurements, single-writer."""

    def __init__(self, capacity: int):
        super().__init__(capacity, columns=2)  # level, timestamp

    def record(self, measurements) -> None:
        """Append a Measurements batch, or one Measurement as a stream records them."""
        if isinstance(measurements, Measurement):
            m = measurements
            measurements = Measurements([m.features], [m.level], [m.timestamp])
        self.extend(measurements.features, measurements.levels, measurements.timestamps)

    def measurements(self) -> "Measurements":
        """A copy of every measurement held, oldest first; later records leave it as it is."""
        return Measurements(*self.gather(np.arange(len(self))))

    def purge_before(self, timestamp: int) -> int:
        """Drop measurements older than timestamp; returns how many were removed."""
        return self.keep(self._cols[self._index(np.arange(len(self))), 1] >= timestamp)


@dataclass
class MapModel:
    """The drop regressor, reading the k_n station blocks of a feature row, and
    the jammer-free environment whose levels are its prior."""

    network: neuro.NetworkParams
    k_n: int
    env: radio.RadioEnvironment

    def __post_init__(self):
        expected = FEATURES_PER_STATION * self.k_n
        if self.network.input_size != expected:
            raise ValueError(
                f"network input {self.network.input_size} != {expected} (5 * k_n)"
            )
        if self.env.jammer is not None:
            raise ValueError("a map model's environment must be jammer-free")


def init_map_model(env: radio.RadioEnvironment, k_n: int, rng: np.random.Generator,
                   hidden: tuple[int, ...] = (32, 16, 8)) -> MapModel:
    """An untrained map over env's stations; env's jammer, if any, is left out."""
    specs = neuro.dense_specs(
        FEATURES_PER_STATION * k_n, hidden, 1,
        hidden_activation="relu", output_activation="identity",
    )
    return MapModel(network=neuro.init_network(specs, rng), k_n=k_n, env=env.without_jammer())


def levels_at(env: radio.RadioEnvironment, features: np.ndarray) -> np.ndarray:
    """Quantized SINR level in env at the position (the last two columns) of each
    (..., F) feature row, from the ground-truth kernel; in a map's jammer-free
    environment, the map's prior."""
    pos = np.asarray(features, dtype=float)[..., -POSITION_FEATURES:]
    flat = pos.reshape(-1, 2)
    levels = np.empty(len(flat), dtype=int)
    for start in range(0, len(flat), LEVEL_BLOCK):
        block = flat[start:start + LEVEL_BLOCK]
        levels[start:start + LEVEL_BLOCK] = radio.quantize_many(radio.sinr_many(env, block), env)
    return levels.reshape(pos.shape[:-1])


def _levels(model: MapModel, features: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """prior minus the network's rounded drop, clipped to [0, prior]."""
    drop, _ = neuro.forward_batch(model.network, features[..., :-POSITION_FEATURES])
    return prior - np.clip(np.rint(drop[..., 0]), 0, prior).astype(int)


def predict_levels(model: MapModel, features: np.ndarray) -> np.ndarray:
    """Level at each (..., F) feature row: the prior less the predicted drop."""
    feats = np.asarray(features, dtype=float)
    return _levels(model, feats, levels_at(model.env, feats))


def learned_oracle(model: MapModel, stations, uav_altitude: float):
    """Level map of an (..., 2) array of positions, backed by the regressor and
    observed GBS geometry; (A, M, 2) positions run one stacked forward pass."""
    triples = np.array([(s.position[0], s.position[1], s.height) for s in stations])

    def oracle(positions: np.ndarray) -> np.ndarray:
        pos = np.asarray(positions, dtype=float)
        feats = featurize_many(pos.reshape(-1, 2), triples, uav_altitude, model.k_n)
        return predict_levels(model, feats.reshape(*pos.shape[:-1], -1))

    return oracle


def evaluate_accuracy(model: MapModel, measurements: Measurements) -> float:
    """Share of the measurements whose predicted level is right."""
    if not len(measurements):
        raise ValueError("cannot evaluate accuracy on an empty slice")
    return float(np.mean(predict_levels(model, measurements.features) == measurements.levels))


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


def fit_drops(model: MapModel, features: np.ndarray, levels: np.ndarray,
              config: neuro.TrainConfig, rng: np.random.Generator,
              rows: np.ndarray | None = None, after_epoch=None):
    """Train model.network in place on the drops below the prior (prior - level)
    of labeled feature rows, only those indexed by rows if given; returns
    neuro.train_epochs' (params, losses)."""
    feats = np.asarray(features, dtype=float)
    rows = slice(None) if rows is None else rows
    # One contiguous gather of the station blocks: minibatch takes from a
    # column slice of the full rows run about 50 times slower.
    stations = np.ascontiguousarray(feats[rows, :-POSITION_FEATURES])
    drops = levels_at(model.env, feats[rows, -POSITION_FEATURES:]) - np.asarray(levels)[rows]
    return neuro.train_epochs(model.network, stations, drops, config, rng,
                              after_epoch=after_epoch)


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
    feats, labels, _ = cloud.arrays()

    order = rng.permutation(len(feats))
    n_hold = int(len(feats) * config.holdout_fraction)
    hold_idx, train_idx = order[:n_hold], order[n_hold:]
    if len(train_idx) == 0:
        train_idx = order
    if n_hold == 0:
        hold_idx = np.arange(len(feats))
    # Gathered once, prior included: every epoch scores the same holdout rows.
    hold_feats, hold_labels = feats[hold_idx], labels[hold_idx]
    hold_prior = levels_at(model.env, hold_feats)

    standardizer = neuro.fit_standardizer(feats[train_idx, :-POSITION_FEATURES])
    new_model = MapModel(
        network=neuro.init_network(model.network.specs, rng, standardizer), k_n=model.k_n,
        env=model.env,
    )
    train_cfg = neuro.TrainConfig(
        learning_rate=config.learning_rate, batch_size=config.batch_size,
        l2_coefficient=config.l2, epochs=config.epochs,
    )
    curve = []
    fit_drops(
        new_model, feats, labels, train_cfg, rng, rows=train_idx,
        after_epoch=lambda: curve.append(
            float(np.mean(_levels(new_model, hold_feats, hold_prior) == hold_labels))),
    )
    return new_model, curve


def sample_measurements(
    env: radio.RadioEnvironment,
    count: int,
    rng: np.random.Generator,
    bounds: tuple[float, float, float, float],
    k_n: int,
    timestamp_start: int = 0,
) -> Measurements:
    """Ground-truth labeled measurements at uniform random positions."""
    xmin, ymin, xmax, ymax = bounds
    pos = np.column_stack(
        [rng.uniform(xmin, xmax, count), rng.uniform(ymin, ymax, count)]
    )
    levels = levels_at(env, pos)
    triples = [(s.position[0], s.position[1], s.height) for s in env.stations]
    feats = featurize_many(pos, triples, env.uav_altitude, k_n)
    return Measurements(feats, levels, np.arange(timestamp_start, timestamp_start + count))


MAP_FORMAT = "sinrmap-v2"
ENV_FIELDS = ("noise_power", "uav_altitude", "pathloss_exponent", "sinr_threshold", "margin")


def save_map_model(model: MapModel, path) -> None:
    """JSON of the network, k_n and the jammer-free environment (never a jammer)."""
    env = {k: getattr(model.env, k) for k in ENV_FIELDS}
    env["stations"] = [asdict(s) for s in model.env.stations]
    data = {"format": MAP_FORMAT, "k_n": model.k_n, "network": neuro.to_dict(model.network),
            "environment": env}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(data, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_map_model(path) -> MapModel:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if data.get("format") == "sinrmap-v1":
        raise ValueError(f"{path}: a sinrmap-v1 map predicts levels without the jammer-free "
                         "prior; train a new one with uavnav trainmap")
    if data.get("format") != MAP_FORMAT:
        raise ValueError(f"unsupported map model format {data.get('format')!r}")
    env = data["environment"]
    stations = tuple(radio.GroundStation(**s) for s in env["stations"])
    return MapModel(
        network=neuro.from_dict(data["network"]), k_n=int(data["k_n"]),
        env=radio.RadioEnvironment(stations=stations, **{k: env[k] for k in ENV_FIELDS}),
    )


def write_measurement_csv(batch: Measurements, path, extra_comments: tuple[str, ...] = ()):
    n_feat = batch.features.shape[1]
    lines = [f"# sinr-measurements v1 features={n_feat} count={len(batch)}"]
    lines.extend(f"# {c}" for c in extra_comments)
    lines.append(
        "timestamp," + ",".join(f"f{i}" for i in range(n_feat)) + ",label"
    )
    for feats, level, stamp in zip(batch.features.tolist(), batch.levels.tolist(),
                                   batch.timestamps.tolist()):
        lines.append(f"{stamp}," + ",".join(repr(v) for v in feats) + f",{level}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_measurement_csv(path, k_n: int | None = None,
                         env: radio.RadioEnvironment | None = None) -> Measurements:
    """The rows of a measurement log; a malformed row is an error naming its line.

    With k_n, the rows must hold featurize_many's 5 * k_n + 2 features.  With env
    (jammer-free), a row whose level lies above env's level at the row's position
    (its last two features) is an error too: a jammer only ever lowers the level.
    """
    feats, levels, stamps, linenos = [], [], [], []
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
                feats.append([float(v) for v in vals[1:-1]])
                levels.append(int(vals[-1]))
                stamps.append(int(vals[0]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            linenos.append(lineno)
    feats = np.array(feats).reshape(len(levels), -1) if levels else np.empty((0, n_feat or 0))
    bad = _first_bad_row(feats, np.array(levels))
    if bad is not None:
        raise ValueError(f"{path}:{linenos[bad]}: level must be in {{0,1,2}} and features finite")
    width = None if k_n is None else FEATURES_PER_STATION * k_n + POSITION_FEATURES
    if width is not None and feats.shape[1] != width:
        raise ValueError(f"{path}: feature length {feats.shape[1]} does not match "
                         f"5 * k_n + 2 = {width}")
    if env is not None and levels:
        above = np.array(levels) > levels_at(env, feats)
        if above.any():
            raise ValueError(f"{path}:{linenos[int(above.argmax())]}: level lies above the "
                             "jammer-free level at the logged position")
    return Measurements(feats, np.array(levels, dtype=int), np.array(stamps, dtype=int))
