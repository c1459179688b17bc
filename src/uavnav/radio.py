"""Analytic cellular radio environment for UAVs flying at fixed altitude.

Models ground base stations (GBSs) with tilted directional antennas, an
optional ground jammer, free-space-style power-law path loss, SINR with
max-received-power association, three-level SINR quantization, and
rasterization of the quantized field onto a grid.

All powers are linear watts, all gains are linear ratios in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "GroundStation",
    "Jammer",
    "RadioEnvironment",
    "gbs_antenna_gain",
    "uav_antenna_gain",
    "path_loss",
    "jammer_interference",
    "received_powers",
    "serving_gbs",
    "sinr",
    "sinr_many",
    "quantize_many",
    "coverage_grid",
    "write_coverage_csv",
    "read_coverage_csv",
]


@dataclass(frozen=True)
class GroundStation:
    """One GBS: position, antenna geometry and transmit power."""

    position: tuple[float, float]
    height: float = 32.0
    tx_power: float = 1.0
    tilt_deg: float = 10.0
    beamwidth_deg: float = 15.0
    max_atten_db: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        if self.tx_power <= 0:
            raise ValueError(f"station tx_power must be > 0, got {self.tx_power}")
        if self.height <= 0:
            raise ValueError(f"station height must be > 0, got {self.height}")
        if self.beamwidth_deg <= 0:
            raise ValueError(f"beamwidth_deg must be > 0, got {self.beamwidth_deg}")
        if self.max_atten_db < 0:
            raise ValueError(f"max_atten_db must be >= 0, got {self.max_atten_db}")


@dataclass(frozen=True)
class Jammer:
    """Adversarial transmitter; contributes interference when active."""

    position: tuple[float, float]
    height: float = 0.0
    tx_power: float = 1.0
    active: bool = True

    def __post_init__(self):
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        if self.tx_power < 0:
            raise ValueError(f"jammer tx_power must be >= 0, got {self.tx_power}")


@dataclass(frozen=True)
class RadioEnvironment:
    """Immutable world of stations + optional jammer; jammer changes produce a new value."""

    stations: tuple[GroundStation, ...]
    jammer: Jammer | None = None
    noise_power: float = 1e-6
    uav_altitude: float = 50.0
    pathloss_exponent: float = 2.0
    sinr_threshold: float = 10.0 ** (-0.3)
    margin: float = 0.1
    # Per-station columns for sinr_many, built once here; `replace` goes through
    # __init__, so every derived environment (with_jammer, ...) gets its own.
    station_arrays: tuple[np.ndarray, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "stations", tuple(self.stations))
        if not self.stations:
            raise ValueError("environment needs at least one station")
        if self.noise_power <= 0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")
        if self.pathloss_exponent < 2:
            raise ValueError(f"pathloss_exponent must be >= 2, got {self.pathloss_exponent}")
        top = max(s.height for s in self.stations)
        if self.uav_altitude <= top:
            raise ValueError(
                f"uav_altitude {self.uav_altitude} must exceed max station height {top}"
            )
        if self.jammer is not None and self.jammer.height >= self.uav_altitude:
            raise ValueError(
                f"jammer height {self.jammer.height} must be below uav_altitude {self.uav_altitude}"
            )
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        st = self.stations
        object.__setattr__(self, "station_arrays", (
            np.array([s.position[0] for s in st]),
            np.array([s.position[1] for s in st]),
            np.array([s.height for s in st]),
            np.array([s.tx_power for s in st]),
            np.array([s.tilt_deg for s in st]),
            np.array([s.beamwidth_deg for s in st]),
            np.array([s.max_atten_db for s in st]),
        ))

    def without_jammer(self) -> "RadioEnvironment":
        return replace(self, jammer=None)

    def with_jammer(self, jammer: Jammer | None) -> "RadioEnvironment":
        return replace(self, jammer=jammer)


def gbs_antenna_gain(horizontal_distance: float, station: GroundStation, uav_altitude: float) -> float:
    """Directional GBS antenna gain toward a UAV at the given horizontal distance.

    Quadratic attenuation (in dB) of the elevation mismatch against the tilt,
    capped at max_atten_db.  At distance 0 the depression angle is +/-90 deg.
    """
    if horizontal_distance < 0:
        raise ValueError("horizontal_distance must be >= 0")
    angle_deg = math.degrees(math.atan2(station.height - uav_altitude, horizontal_distance))
    x = (angle_deg - station.tilt_deg) / station.beamwidth_deg
    return 10.0 ** (-min(1.2 * x * x, station.max_atten_db / 10.0))


def uav_antenna_gain(horizontal_distance: float, station_height: float, uav_altitude: float) -> float:
    """Aerial antenna gain: sine of the elevation angle from the station."""
    dh = uav_altitude - station_height
    if dh <= 0:
        raise ValueError("uav_altitude must exceed station_height")
    return dh / math.sqrt(horizontal_distance * horizontal_distance + dh * dh)


def path_loss(horizontal_distance: float, height_difference: float, alpha: float) -> float:
    """Power-law attenuation on the 3D distance; singular only at zero separation."""
    sq = horizontal_distance * horizontal_distance + height_difference * height_difference
    if sq == 0.0:
        raise ValueError("path loss undefined at zero separation")
    return sq ** (alpha / 2.0)


def _points(positions) -> np.ndarray:
    """An (N, 2) float array of positions; a single (x, y) becomes one row."""
    pos = np.asarray(positions, dtype=float)
    return pos[None, :] if pos.ndim == 1 else pos


def received_powers(env: RadioEnvironment, positions) -> np.ndarray:
    """(N, K) power received at each of N positions from each of K stations: P * G_gbs * G_uav / L."""
    pos = _points(positions)
    sx, sy, sh, sp, tilt, beam, atten = env.station_arrays
    hv = env.uav_altitude
    d = np.hypot(pos[:, 0:1] - sx[None, :], pos[:, 1:2] - sy[None, :])
    ang = np.degrees(np.arctan2(sh[None, :] - hv, d))
    x = (ang - tilt[None, :]) / beam[None, :]
    g_b = 10.0 ** (-np.minimum(1.2 * x * x, atten[None, :] / 10.0))
    dh = hv - sh[None, :]
    slant_sq = d * d + dh * dh
    return sp[None, :] * g_b * (dh / np.sqrt(slant_sq)) / slant_sq ** (env.pathloss_exponent / 2.0)


def jammer_interference(env: RadioEnvironment, positions):
    """Interference power (watts) from the jammer at each of N positions, shape (N,).

    0.0 (a scalar) when there is no jammer, or it is inactive or silent.
    """
    jam = env.jammer
    if jam is None or not jam.active or not jam.tx_power > 0.0:
        return 0.0
    pos = _points(positions)
    dj = np.hypot(pos[:, 0] - jam.position[0], pos[:, 1] - jam.position[1])
    dhj = env.uav_altitude - jam.height
    slant_sq_j = dj * dj + dhj * dhj
    return jam.tx_power * (dhj / np.sqrt(slant_sq_j)) / slant_sq_j ** (env.pathloss_exponent / 2.0)


def sinr_many(env: RadioEnvironment, positions) -> np.ndarray:
    """Linear SINR at each of N positions: serving (strongest) station power
    over noise + jammer + the other stations."""
    powers = received_powers(env, positions)
    serving = powers.max(axis=1)
    total = powers.sum(axis=1)
    return serving / (env.noise_power + jammer_interference(env, positions) + (total - serving))


def sinr(env: RadioEnvironment, uav_position) -> float:
    """sinr_many at one position."""
    return float(sinr_many(env, uav_position)[0])


def serving_gbs(env: RadioEnvironment, uav_position) -> int:
    """Index of the station with the largest received power; ties go to the lowest index."""
    return int(np.argmax(received_powers(env, uav_position)[0]))


def quantize_many(linear_sinr: np.ndarray, env: RadioEnvironment) -> np.ndarray:
    """Three-level quantization: 0 below threshold, 1 in the marginal band, 2 above.

    2 less the number of the two thresholds the SINR lies below.
    """
    s = np.asarray(linear_sinr)
    return 2 - (s < env.sinr_threshold) - (s < env.sinr_threshold + env.margin)


@dataclass(frozen=True)
class CoverageGrid:
    """Row-major quantized-SINR raster; row 0 is the ymin edge, cells sampled at centers."""

    xmin: float
    ymin: float
    resolution: float
    levels: np.ndarray = field(repr=False)

    @property
    def nrows(self) -> int:
        return self.levels.shape[0]

    @property
    def ncols(self) -> int:
        return self.levels.shape[1]

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        return (
            self.xmin + (col + 0.5) * self.resolution,
            self.ymin + (row + 0.5) * self.resolution,
        )

    def cell_of(self, position) -> tuple[int, int]:
        col = int((position[0] - self.xmin) // self.resolution)
        row = int((position[1] - self.ymin) // self.resolution)
        return row, col

    def level_fraction(self, level: int) -> float:
        return float(np.count_nonzero(self.levels == level)) / self.levels.size


def coverage_grid(env: RadioEnvironment, bounds, resolution: float) -> CoverageGrid:
    """Rasterize quantized SINR on cell centers over bounds = (xmin, ymin, xmax, ymax)."""
    xmin, ymin, xmax, ymax = (float(b) for b in bounds)
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    if xmax <= xmin or ymax <= ymin:
        raise ValueError(f"degenerate bounds {bounds}")
    ncols = int(round((xmax - xmin) / resolution))
    nrows = int(round((ymax - ymin) / resolution))
    if ncols < 1 or nrows < 1:
        raise ValueError(f"bounds {bounds} smaller than one cell at resolution {resolution}")
    xs = xmin + (np.arange(ncols) + 0.5) * resolution
    ys = ymin + (np.arange(nrows) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    levels = quantize_many(sinr_many(env, pts), env).reshape(nrows, ncols)
    return CoverageGrid(xmin=xmin, ymin=ymin, resolution=resolution, levels=levels)


def write_coverage_csv(grid: CoverageGrid, path, extra_comments: tuple[str, ...] = ()) -> None:
    """One grid row per CSV line; header carries origin, resolution and shape."""
    lines = [f"# {grid.xmin!r},{grid.ymin!r},{grid.resolution!r},{grid.ncols},{grid.nrows}"]
    lines.extend(f"# {c}" for c in extra_comments)
    for row in grid.levels:
        lines.append(",".join(str(int(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_coverage_csv(path) -> CoverageGrid:
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing coverage header")
        xmin, ymin, resolution, ncols, nrows = header[2:].split(",")
        rows = []
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(v) for v in line.split(",")])
    levels = np.array(rows, dtype=int)
    if levels.shape != (int(nrows), int(ncols)):
        raise ValueError(f"{path}: grid shape {levels.shape} does not match header")
    return CoverageGrid(
        xmin=float(xmin), ymin=float(ymin), resolution=float(resolution), levels=levels
    )
