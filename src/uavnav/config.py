"""Run configuration: a single JSON file with nested blocks, strictly validated.

Unknown keys are rejected, every module precondition is checked at load time,
and the sha256 digest of the resolved configuration is embedded in outputs for
provenance.  Named jammer presets cover the benchmark placements.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from . import radio, sinrmap, valuetrain


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending key path."""


# Twelve stations on an irregularized three-row layout spanning past the
# arena, so the flight area sits inside the served region.  The jitter breaks
# the lattice symmetry; on a regular grid the nearby-GBS geometry repeats from
# cell to cell and the SINR-map features cannot localize the jammer hole.
_DEFAULT_STATIONS = [
    {"position": [x, y]}
    for x, y in (
        (-90.6, -49.2), (-31.2, -43.7), (5.5, -46.1), (59.7, -50.4),
        (-56.2, -6.2), (-13.7, 0.3), (34.9, 1.4), (87.8, 7.3),
        (-87.5, 47.4), (-32.9, 41.7), (4.0, 52.6), (56.8, 42.0),
    )
]

DEFAULT_CONFIG: dict = {
    "seed": 20260809,
    "environment": {
        "stations": _DEFAULT_STATIONS,
        "station_defaults": {
            "height": 32.0,
            "tx_power": 1.0,
            "tilt_deg": 10.0,
            "beamwidth_deg": 15.0,
            "max_atten_db": 3.0,
        },
        "jammer": None,
        "noise_power": 1e-6,
        "uav_altitude": 50.0,
        "pathloss_exponent": 3.0,
        "sinr_threshold_db": -3.0,
        "margin": 0.1,
    },
    "world": {
        "arena_half_extent": 50.0,
        "position_bound": 40.0,
        "min_travel": 50.0,
        "min_separation": 5.0,
        "agent_radius": 0.5,
        "speed_range": [6.0, 10.0],
        "dt": 0.5,
        "n_t": 8,
        "turn_rate_limit": math.pi / 3.0,
        "max_episode_steps": 120,
        "arrival_tolerance": 0.5,
        "movement_penalty": -0.03,
        "n_speeds": 3,
        "n_headings": 5,
        "j_n": 4,
        "agents": 4,
    },
    "training": {
        "total_episodes": 5000,
        "gamma": 0.97,
        "epsilon_start": 0.5,
        "epsilon_end": 0.1,
        "epsilon_decay_fraction": 0.4,
        "replay_capacity": 600000,
        "batch_size": 200,
        "learning_rate": 0.001,
        "l2": 0.0001,
        "updates_per_episode": 3,
        "pretrain_epochs": 60,
        "value_hidden": [64, 32, 16],
        "checkpoint_every": 1000,
        "bootstrap_episodes": 800,
        "jammer_change_period": 2000,
        "jammer_powers": [0.5, 1.0],
        "jammer_bounds": [[-40.0, 40.0], [-40.0, 40.0]],
        "jammer_height": 18.0,
        "orca_time_horizon": 5.0,
        "orca_neighbor_range": 15.0,
    },
    "mapping": {
        "k_n": 6,
        "hidden": [32, 16, 8],
        "learning_rate": 0.005,
        "batch_size": 200,
        "l2": 0.0001,
        "epochs": 60,
        "holdout_fraction": 0.1,
        "cloud_capacity": 20000,
        "drop_threshold": 0.1,
        "check_every": 200,
        "synthetic_measurements": 20000,
    },
    "evaluation": {
        "trials": 100,
        "seed_offset": 1000000,
        "modes": ["proposed", "outdated", "perfect"],
        "max_episode_steps": 240,
    },
}

# Benchmark jammer placements.  The jammer altitude balances two needs: a
# ground jammer's 50 m vertical standoff blurs every hole into one arena-wide
# web (placements become indistinguishable, so accuracy-drop detection never
# fires), while a near-UAV jammer punches a deep solid disc that a one-step
# lookahead policy cannot cross at all.
PRESET_JAMMER_HEIGHT = 18.0

PRESETS = {
    "none": None,
    "center-1w": {"position": [0.0, 0.0], "tx_power": 1.0},
    "southeast-1w": {"position": [25.0, -10.0], "tx_power": 1.0},
    "northwest-1w": {"position": [-30.0, 10.0], "tx_power": 1.0},
    "center-0.5w": {"position": [0.0, 0.0], "tx_power": 0.5},
}


def _require_keys(block: dict, allowed, path: str):
    """block must be an object whose keys all lie in allowed (a set or a dict's keys)."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _is_number(v) -> bool:
    """JSON numbers only: bool is an int subclass in Python but not a number here."""
    return not isinstance(v, bool) and isinstance(v, (int, float))


def _numbers(block: dict, keys, path: str) -> None:
    """Each of keys that block holds must be a number."""
    for key in keys:
        if key in block and not _is_number(block[key]):
            raise ConfigError(f"{path}.{key}: expected a number, got {block[key]!r}")


def _num(block, key, path, lo=None, hi=None, strict_lo=False):
    if key not in block:
        raise ConfigError(f"{path}.{key}: missing")
    v = block[key]
    if not _is_number(v):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    v = float(v)
    if lo is not None and (v <= lo if strict_lo else v < lo):
        op = ">" if strict_lo else ">="
        raise ConfigError(f"{path}.{key}: must be {op} {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}.{key}: must be <= {hi}, got {v}")
    return v


def _int(block, key, path, lo=None):
    v = _num(block, key, path, lo=lo)
    if v != int(v):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v}")
    return int(v)


def _point(value, path):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise ConfigError(f"{path}: expected [x, y]")
    return (float(value[0]), float(value[1]))


def _layer_sizes(block, key, path) -> list[int]:
    hidden = block.get(key)
    if not isinstance(hidden, list) or not hidden or any(
        isinstance(h, bool) or not isinstance(h, int) or h < 1 for h in hidden
    ):
        raise ConfigError(f"{path}.{key}: expected a list of positive ints")
    return list(hidden)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    env: radio.RadioEnvironment
    world: dict
    training: dict
    mapping: dict
    evaluation: dict
    raw: dict = field(repr=False)

    @property
    def digest(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def scenario_kwargs(self, eval_mode: bool = False) -> dict:
        w = self.world
        same = ("position_bound", "min_travel", "min_separation", "dt", "n_t",
                "turn_rate_limit", "arrival_tolerance", "movement_penalty")
        return {
            **{k: w[k] for k in same},
            "n_agents": w["agents"],
            "radius": w["agent_radius"],
            "speed_range": tuple(w["speed_range"]),
            "max_episode_steps": (
                self.evaluation["max_episode_steps"] if eval_mode else w["max_episode_steps"]
            ),
        }

    def train_run_config(self) -> valuetrain.TrainRunConfig:
        """Every TrainRunConfig field from the world and training blocks of the same name."""
        blocks = {**self.world, **self.training, "seed": self.seed}
        names = [f.name for f in fields(valuetrain.TrainRunConfig)]
        return valuetrain.TrainRunConfig(**{
            k: tuple(blocks[k]) if k == "value_hidden" else blocks[k] for k in names
        })

    def jammer_schedule(self) -> valuetrain.JammerSchedule:
        t = self.training
        (xlo, xhi), (ylo, yhi) = t["jammer_bounds"]
        return valuetrain.JammerSchedule(
            change_period=t["jammer_change_period"],
            x_bounds=(xlo, xhi),
            y_bounds=(ylo, yhi),
            powers=tuple(t["jammer_powers"]),
            height=t["jammer_height"],
        )

    def map_train_config(self) -> sinrmap.MapTrainConfig:
        names = [f.name for f in fields(sinrmap.MapTrainConfig)]
        return sinrmap.MapTrainConfig(**{k: self.mapping[k] for k in names})

    def arena_bounds(self) -> tuple[float, float, float, float]:
        h = self.world["arena_half_extent"]
        return (-h, -h, h, h)


def _validate_environment(block: dict) -> radio.RadioEnvironment:
    path = "environment"
    _require_keys(block, DEFAULT_CONFIG[path].keys(), path)
    fallback = DEFAULT_CONFIG[path]["station_defaults"]
    station_fields = fallback.keys()
    defaults = block.get("station_defaults") or {}
    _require_keys(defaults, station_fields, f"{path}.station_defaults")
    _numbers(defaults, station_fields, f"{path}.station_defaults")
    stations_block = block.get("stations")
    if not isinstance(stations_block, list) or not stations_block:
        raise ConfigError(f"{path}.stations: expected a non-empty list")
    stations = []
    for i, sb in enumerate(stations_block):
        spath = f"{path}.stations[{i}]"
        _require_keys(sb, {"position", *station_fields}, spath)
        _numbers(sb, station_fields, spath)
        merged = {**fallback, **defaults, **sb}
        if "position" not in merged:
            raise ConfigError(f"{spath}.position: missing")
        try:
            stations.append(
                radio.GroundStation(
                    position=_point(merged["position"], f"{spath}.position"),
                    **{k: float(merged[k]) for k in station_fields},
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{spath}: {exc}") from exc
    jammer = None
    jb = block.get("jammer")
    if jb is not None:
        jpath = f"{path}.jammer"
        _require_keys(jb, {"position", "height", "tx_power", "active"}, jpath)
        _numbers(jb, ("height", "tx_power"), jpath)
        if not isinstance(jb.get("active", True), bool):
            raise ConfigError(f"{jpath}.active: expected true or false, got {jb['active']!r}")
        try:
            jammer = radio.Jammer(
                position=_point(jb.get("position", [0, 0]), f"{jpath}.position"),
                height=float(jb.get("height", 0.0)),
                tx_power=float(jb.get("tx_power", 1.0)),
                active=jb.get("active", True),
            )
        except ValueError as exc:
            raise ConfigError(f"{jpath}: {exc}") from exc
    try:
        return radio.RadioEnvironment(
            stations=tuple(stations),
            jammer=jammer,
            noise_power=_num(block, "noise_power", path, lo=0, strict_lo=True),
            uav_altitude=_num(block, "uav_altitude", path, lo=0, strict_lo=True),
            pathloss_exponent=_num(block, "pathloss_exponent", path, lo=2),
            sinr_threshold=10.0 ** (_num(block, "sinr_threshold_db", path) / 10.0),
            margin=_num(block, "margin", path, lo=0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _validate_world(block: dict) -> dict:
    path = "world"
    _require_keys(block, DEFAULT_CONFIG[path].keys(), path)
    out = {
        "arena_half_extent": _num(block, "arena_half_extent", path, lo=0, strict_lo=True),
        "position_bound": _num(block, "position_bound", path, lo=0, strict_lo=True),
        "min_travel": _num(block, "min_travel", path, lo=0),
        "min_separation": _num(block, "min_separation", path, lo=0),
        "agent_radius": _num(block, "agent_radius", path, lo=0, strict_lo=True),
        "dt": _num(block, "dt", path, lo=0, strict_lo=True),
        "n_t": _int(block, "n_t", path, lo=1),
        "turn_rate_limit": _num(block, "turn_rate_limit", path, lo=0, strict_lo=True),
        "max_episode_steps": _int(block, "max_episode_steps", path, lo=1),
        "arrival_tolerance": _num(block, "arrival_tolerance", path, lo=0, strict_lo=True),
        "movement_penalty": _num(block, "movement_penalty", path),
        "n_speeds": _int(block, "n_speeds", path, lo=2),
        "n_headings": _int(block, "n_headings", path, lo=3),
        "j_n": _int(block, "j_n", path, lo=1),
        "agents": _int(block, "agents", path, lo=1),
    }
    sr = block.get("speed_range")
    if (
        not isinstance(sr, (list, tuple)) or len(sr) != 2 or not all(_is_number(v) for v in sr)
        or sr[0] <= 0 or sr[1] < sr[0]
    ):
        raise ConfigError(f"{path}.speed_range: expected [lo, hi] with 0 < lo <= hi")
    out["speed_range"] = [float(sr[0]), float(sr[1])]
    if out["min_travel"] > 2 * out["position_bound"] * math.sqrt(2):
        raise ConfigError(f"{path}.min_travel: unreachable within position_bound")
    return out


def _validate_training(block: dict) -> dict:
    path = "training"
    _require_keys(block, DEFAULT_CONFIG[path].keys(), path)
    out = {
        "total_episodes": _int(block, "total_episodes", path, lo=1),
        "gamma": _num(block, "gamma", path, lo=0, strict_lo=True),
        "epsilon_start": _num(block, "epsilon_start", path, lo=0, hi=1),
        "epsilon_end": _num(block, "epsilon_end", path, lo=0, hi=1),
        "epsilon_decay_fraction": _num(block, "epsilon_decay_fraction", path, lo=0, strict_lo=True, hi=1),
        "replay_capacity": _int(block, "replay_capacity", path, lo=1),
        "batch_size": _int(block, "batch_size", path, lo=1),
        "learning_rate": _num(block, "learning_rate", path, lo=0, strict_lo=True),
        "l2": _num(block, "l2", path, lo=0),
        "updates_per_episode": _int(block, "updates_per_episode", path, lo=1),
        "pretrain_epochs": _int(block, "pretrain_epochs", path, lo=1),
        "checkpoint_every": _int(block, "checkpoint_every", path, lo=1),
        "bootstrap_episodes": _int(block, "bootstrap_episodes", path, lo=1),
        "jammer_change_period": _int(block, "jammer_change_period", path, lo=1),
        "jammer_height": _num(block, "jammer_height", path, lo=0),
        "orca_time_horizon": _num(block, "orca_time_horizon", path, lo=0, strict_lo=True),
        "orca_neighbor_range": _num(block, "orca_neighbor_range", path, lo=0, strict_lo=True),
    }
    if out["gamma"] >= 1.0:
        raise ConfigError(f"{path}.gamma: must be < 1")
    out["value_hidden"] = _layer_sizes(block, "value_hidden", path)
    powers = block.get("jammer_powers")
    if not isinstance(powers, list) or not powers or any(
        not _is_number(p) or p < 0 for p in powers
    ):
        raise ConfigError(f"{path}.jammer_powers: expected a list of non-negative watts")
    out["jammer_powers"] = [float(p) for p in powers]
    jb = block.get("jammer_bounds")
    try:
        (xlo, xhi), (ylo, yhi) = jb
        if not all(map(_is_number, (xlo, xhi, ylo, yhi))) or xhi < xlo or yhi < ylo:
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.jammer_bounds: expected [[xlo,xhi],[ylo,yhi]]") from None
    out["jammer_bounds"] = [[float(xlo), float(xhi)], [float(ylo), float(yhi)]]
    return out


def _validate_mapping(block: dict) -> dict:
    path = "mapping"
    _require_keys(block, DEFAULT_CONFIG[path].keys(), path)
    hidden = _layer_sizes(block, "hidden", path)
    return {
        "k_n": _int(block, "k_n", path, lo=1),
        "hidden": hidden,
        "learning_rate": _num(block, "learning_rate", path, lo=0, strict_lo=True),
        "batch_size": _int(block, "batch_size", path, lo=1),
        "l2": _num(block, "l2", path, lo=0),
        "epochs": _int(block, "epochs", path, lo=1),
        "holdout_fraction": _num(block, "holdout_fraction", path, lo=0, hi=0.5),
        "cloud_capacity": _int(block, "cloud_capacity", path, lo=1),
        "drop_threshold": _num(block, "drop_threshold", path, lo=0, hi=1),
        "check_every": _int(block, "check_every", path, lo=1),
        "synthetic_measurements": _int(block, "synthetic_measurements", path, lo=1),
    }


def _validate_evaluation(block: dict) -> dict:
    path = "evaluation"
    _require_keys(block, DEFAULT_CONFIG[path].keys(), path)
    modes = block.get("modes")
    if not isinstance(modes, list) or not modes or any(m not in ("proposed", "outdated", "perfect") for m in modes):
        raise ConfigError(f"{path}.modes: expected a subset of proposed/outdated/perfect")
    return {
        "trials": _int(block, "trials", path, lo=1),
        "seed_offset": _int(block, "seed_offset", path, lo=0),
        "modes": list(modes),
        "max_episode_steps": _int(block, "max_episode_steps", path, lo=1),
    }


def validate(raw: dict) -> RunConfig:
    _require_keys(raw, DEFAULT_CONFIG.keys(), "config")
    for key in DEFAULT_CONFIG:
        if key not in raw:
            raise ConfigError(f"config.{key}: missing")
    seed = raw["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"config.seed: expected a non-negative integer, got {seed!r}")
    env = _validate_environment(raw["environment"])
    return RunConfig(
        seed=seed,
        env=env,
        world=_validate_world(raw["world"]),
        training=_validate_training(raw["training"]),
        mapping=_validate_mapping(raw["mapping"]),
        evaluation=_validate_evaluation(raw["evaluation"]),
        raw=raw,
    )


def apply_preset(raw: dict, preset: str) -> dict:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    out = json.loads(json.dumps(raw))
    spec = PRESETS[preset]
    if spec is None:
        out["environment"]["jammer"] = None
    else:
        out["environment"]["jammer"] = {
            "position": list(spec["position"]),
            "height": PRESET_JAMMER_HEIGHT,
            "tx_power": spec["tx_power"],
            "active": True,
        }
    return out


def load(path=None, preset: str | None = None, seed: int | None = None,
         episodes: int | None = None) -> RunConfig:
    """Load and validate a config file (or the defaults) with CLI overrides."""
    if path is None:
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
    else:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if preset is not None:
        raw = apply_preset(raw, preset)
    if seed is not None:
        raw["seed"] = seed
    if episodes is not None:
        raw.setdefault("training", {})["total_episodes"] = episodes
    return validate(raw)


def write_default(path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(DEFAULT_CONFIG, f, indent=2, sort_keys=True)
        f.write("\n")
