"""Command-line entry points tying the modules into reproducible runs.

Every command is a pure function of (config, input files, seed) to output
bytes; reruns with identical inputs are digest-identical.  Exit codes:
0 success, 2 validation error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import nav, neuro, orca, radio, sinrmap, valuetrain, world
from .config import ConfigError, _int, _num, _point, _require_keys


def _rng_for(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


def _check_frame_length(cfg: cfgmod.RunConfig, path, what: str, length: int) -> None:
    """A file whose agent frames are not world.frame_length(j_n) long is a validation error."""
    j_n = cfg.world["j_n"]
    if length != world.frame_length(j_n):
        raise ConfigError(f"{path}: {what} {length} does not match joint state length "
                          f"{world.frame_length(j_n)} for j_n={j_n}")


def _read(reader, path):
    """reader(path); an input file it cannot parse is a validation error naming it."""
    try:
        return reader(path)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        detail = str(exc) if str(path) in str(exc) else f"{path}: {type(exc).__name__}: {exc}"
        raise ConfigError(f"unreadable input {detail}") from None


def cmd_bootstrap(cfg: cfgmod.RunConfig, out_path: str) -> None:
    """Generate the ORCA bootstrap state-value set and fitted standardizer."""
    t = cfg.training
    rng = _rng_for(cfg.seed, 0)
    schedule = cfg.jammer_schedule()
    jammer = schedule.sample(rng)
    env = cfg.env.with_jammer(jammer)
    orca_cfg = orca.OrcaConfig(
        time_horizon=t["orca_time_horizon"], neighbor_range=t["orca_neighbor_range"]
    )
    missions = cfg.missions()
    scenarios = [missions.sample(rng, env) for _ in range(t["bootstrap_episodes"])]
    pairs, skipped = orca.generate_bootstrap_set(
        scenarios, cfg.step_rules(), env, t["gamma"], orca_cfg, j_n=cfg.world["j_n"]
    )
    if not pairs:
        raise RuntimeError("bootstrap produced no state-value pairs")
    standardizer = neuro.fit_standardizer(np.stack([p[0] for p in pairs]))
    _replace_files([(Path(out_path), lambda p: orca.write_bootstrap_csv(
        pairs, p, standardizer, extra_comments=(f"digest={cfg.digest}", f"skipped={skipped}"),
    ))])
    print(f"bootstrap: wrote {len(pairs)} pairs ({skipped} episodes skipped) to {out_path}")


def cmd_train(cfg: cfgmod.RunConfig, bootstrap_path: str, out_dir: str,
              resume: bool = False) -> None:
    """Run offline value-network training, writing model, curve, and checkpoints."""
    pairs, _ = _read(orca.read_bootstrap_csv, bootstrap_path)
    if not pairs:
        raise ConfigError(f"{bootstrap_path}: empty bootstrap set")
    _check_frame_length(cfg, bootstrap_path, "bootstrap row length", len(pairs[0][0]))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_cfg = cfg.train_run_config()
    start = _read_checkpoint(out, cfg) if resume else None
    last = valuetrain.train(
        run_cfg, pairs, cfg.env.without_jammer(), cfg.jammer_schedule(), cfg.step_rules(),
        cfg.missions(), resume=start,
        on_checkpoint=lambda checkpoint: _write_checkpoint(out, cfg, checkpoint),
    )
    print(
        f"train: {last.episode - (start.episode if start else 0)} episodes done; model at "
        f"{out / 'value-model.json'}, curve at {out / 'curve.csv'}"
    )


# A checkpoint's files in the order they are written; train-state.json, last,
# records the sha256 of the others.
CHECKPOINT_FILES = ("value-model.json", "curve.csv", "replay.npz", "adam.npz", "train-state.json")


def _write_checkpoint(out: Path, cfg: cfgmod.RunConfig,
                      checkpoint: valuetrain.Checkpoint) -> None:
    """Replace the checkpoint in out by this one; _read_checkpoint reads it back."""
    *files, state_path = (out / name for name in CHECKPOINT_FILES)
    feats, targets = checkpoint.buffer.arrays()
    adam = checkpoint.adam
    _replace_files(list(zip(files, (
        lambda p: neuro.save_model(checkpoint.value_net, p, digest=cfg.digest),
        lambda p: valuetrain.write_curve_csv(
            checkpoint.curve, p, extra_comments=(f"digest={cfg.digest}",)),
        lambda p: np.savez(p, features=feats, targets=targets),
        lambda p: np.savez(p, m=adam.m, v=adam.v, step=adam.step),
    ))))
    episode, jammer, run_cfg = checkpoint.episode, checkpoint.jammer, cfg.train_run_config()
    state = {
        "episode": episode,
        "epsilon": valuetrain.epsilon(min(episode, run_cfg.total_episodes - 1), run_cfg),
        "config_digest": _resume_digest(cfg),
        "jammer": None if jammer is None else {
            "position": list(jammer.position), "height": jammer.height,
            "tx_power": jammer.tx_power,
        },
        "rng": checkpoint.rng_states,
        "sha256": {path.name: _sha256(path) for path in files},
    }
    # Written last: it names a checkpoint only once all of that checkpoint is in place.
    _replace_files([(state_path, lambda p: p.write_text(
        json.dumps(state, sort_keys=True, indent=1) + "\n"))])


def _read_checkpoint(out: Path, cfg: cfgmod.RunConfig) -> valuetrain.Checkpoint:
    """The checkpoint _write_checkpoint left in out, for --resume.

    It must come from a run of the same config (training.total_episodes
    aside) at no later episode than cfg asks for, and each file must still
    have the sha256 train-state.json records, so a kill between two
    replacements cannot resume a mix of two checkpoints.  Any fault is a
    ConfigError naming its file.
    """
    *files, state_path = (out / name for name in CHECKPOINT_FILES)
    model_path, curve_path, replay_path, adam_path = files
    run_cfg = cfg.train_run_config()
    if not state_path.exists():
        raise ConfigError(f"{state_path}: no checkpoint to resume from")
    state = _train_state(_read(lambda p: json.loads(p.read_text()), state_path),
                         str(state_path), _resume_digest(cfg), cfg.env)
    episode = state["episode"]
    if episode > run_cfg.total_episodes:
        raise ConfigError(f"{state_path}: checkpoint is at episode {episode}, past "
                          f"the {run_cfg.total_episodes} episodes asked for")
    for path in files:
        if _sha256(path) != state["sha256"][path.name]:
            raise ConfigError(f"{path}: not the file {state_path} records (sha256 differs)")

    value_net = _read(neuro.load_model, model_path)
    data = _read_npz(replay_path, ("features", "targets"))
    buffer = valuetrain.ReplayBuffer(run_cfg.replay_capacity)
    _read(lambda p: buffer.extend(data["features"], data["targets"]), replay_path)
    opt = _read_npz(adam_path, ("m", "v", "step"))
    if not (opt["m"].shape == opt["v"].shape == value_net.flat.shape and opt["step"].shape == ()):
        raise ConfigError(f"{adam_path}: moments do not fit the {value_net.flat.size} "
                          f"parameters of {model_path}")
    return valuetrain.Checkpoint(
        episode, value_net, neuro.AdamState(m=opt["m"], v=opt["v"], step=int(opt["step"])),
        buffer, _read(valuetrain.read_curve_csv, curve_path), state["rng"], state["jammer"],
    )


def _train_state(raw, path: str, config_digest: str, env: radio.RadioEnvironment) -> dict:
    """A train-state.json's episode, rng (three PCG64 states), jammer (None or a
    radio.Jammer that env admits) and sha256 (of each other checkpoint file),
    written under the config of config_digest; a bad field is a ConfigError
    naming it."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    episode = _int(raw, "episode", path, lo=0)
    if raw.get("config_digest") != config_digest:
        raise ConfigError(f"{path}.config_digest: written under another config (only "
                          "training.total_episodes may change on --resume)")
    sha, names = raw.get("sha256"), CHECKPOINT_FILES[:-1]
    if not isinstance(sha, dict) or not all(isinstance(sha.get(n), str) for n in names):
        raise ConfigError(f"{path}.sha256: expected a string for each of {names}")
    rng = {}
    for key in ("jammer", "scenario", "episode"):
        try:
            rng[key] = raw["rng"][key]
            np.random.PCG64(0).state = rng[key]
        except (TypeError, KeyError, ValueError):
            raise ConfigError(f"{path}.rng.{key}: expected a saved PCG64 state") from None
    if "jammer" not in raw:
        raise ConfigError(f"{path}.jammer: missing")
    jam, jpath = raw["jammer"], f"{path}.jammer"
    if jam is not None:
        _require_keys(jam, {"position", "height", "tx_power"}, jpath)
        jam = radio.Jammer(position=_point(jam.get("position"), f"{jpath}.position"),
                           height=_num(jam, "height", jpath),
                           tx_power=_num(jam, "tx_power", jpath, lo=0))
        try:
            env.with_jammer(jam)
        except ValueError as exc:
            raise ConfigError(f"{jpath}: {exc}") from None
    return {"episode": episode, "rng": rng, "jammer": jam, "sha256": sha}


def _resume_digest(cfg: cfgmod.RunConfig) -> str:
    """cfg's digest with training.total_episodes left out, so --episodes can extend a run."""
    raw = {**cfg.raw, "training": {**cfg.raw["training"], "total_episodes": None}}
    return dataclasses.replace(cfg, raw=raw).digest


def _sha256(path: Path) -> str:
    """sha256 of a file, read in chunks: a desk-scale replay.npz is about 100 MB."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _replace_files(writes) -> None:
    """Write each (path, write) pair's file via write(temp path), then move them all into place.

    The temp files sit beside their targets, named <stem>.tmp<suffix> (so
    np.savez, which appends ".npz" to a path without it, keeps the name), and
    are moved with os.replace only after every write succeeded, so a failed
    write leaves every target as it was.
    """
    temps = [path.with_name(f"{path.stem}.tmp{path.suffix}") for path, _ in writes]
    try:
        for (_, write), temp in zip(writes, temps):
            write(temp)
        for (path, _), temp in zip(writes, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _read_npz(path: Path, names) -> dict[str, np.ndarray]:
    """Named arrays of a checkpoint archive; a missing or unreadable one is a validation error."""
    try:
        with np.load(path) as data:
            return {k: data[k] for k in names}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint file ({exc})") from None


def cmd_trainmap(cfg: cfgmod.RunConfig, measurements_path: str | None, out_path: str,
                 curve_path: str | None) -> None:
    """Train the SINR-map regressor from a measurement log or synthetic sampling."""
    m = cfg.mapping
    rng = _rng_for(cfg.seed, 2)
    cloud = sinrmap.MeasurementCloud(m["cloud_capacity"])
    env = cfg.env.without_jammer()
    if measurements_path is not None:
        measurements = _read(
            lambda p: sinrmap.read_measurement_csv(p, k_n=m["k_n"], env=env), measurements_path
        )
        if not len(measurements):
            raise ConfigError(f"{measurements_path}: empty measurement source")
    else:
        measurements = sinrmap.sample_measurements(
            cfg.env, m["synthetic_measurements"], rng, cfg.arena_bounds(), m["k_n"]
        )
    cloud.record(measurements)
    del measurements  # the cloud holds a copy; retraining need not keep both
    model = sinrmap.init_map_model(env, m["k_n"], rng, tuple(m["hidden"]))
    model, curve = sinrmap.retrain(model, cloud, cfg.map_train_config(), rng)
    writes = []
    if curve_path is not None:
        lines = [f"# digest={cfg.digest}", "epoch,holdout_accuracy"]
        lines += [f"{i},{acc!r}" for i, acc in enumerate(curve)]
        writes.append((Path(curve_path), lambda p: p.write_text("\n".join(lines) + "\n")))
    _replace_files(writes + [(Path(out_path), lambda p: sinrmap.save_map_model(model, p))])
    print(f"trainmap: final holdout accuracy {curve[-1]:.4f}; model at {out_path}")


def cmd_eval(cfg: cfgmod.RunConfig, value_path: str, map_path: str | None,
             out_path: str, trajectories_dir: str | None, trials: int | None) -> None:
    """Compare navigation modes on identical seeded scenarios and write the report."""
    value_net = _read(neuro.load_model, value_path)
    _check_frame_length(cfg, value_path, "value net input", value_net.input_size)
    modes = cfg.evaluation["modes"]
    map_model = None
    if "proposed" in modes:
        if map_path is None:
            raise ConfigError("eval with 'proposed' mode needs --map-model")
        map_model = _read(sinrmap.load_map_model, map_path)
        if map_model.k_n != cfg.mapping["k_n"]:
            raise ConfigError(
                f"{map_path}: k_n={map_model.k_n} does not match config {cfg.mapping['k_n']}"
            )
        if map_model.env != cfg.env.without_jammer():
            raise ConfigError(
                f"{map_path}: the map's jammer-free environment differs from the config's"
            )
    n_trials = trials if trials is not None else cfg.evaluation["trials"]
    eval_seed = cfg.seed + cfg.evaluation["seed_offset"]
    trajectories: dict | None = {} if trajectories_dir else None
    reports = nav.compare_modes(
        value_net, map_model, cfg.env, cfg.step_rules(eval_mode=True), cfg.missions(),
        n_trials, eval_seed, cfg.training["gamma"], modes=modes,
        trajectories=trajectories,
    )
    writes = []
    if trajectories_dir:
        tdir = Path(trajectories_dir)
        tdir.mkdir(parents=True, exist_ok=True)
        for mode, rows in trajectories.items():
            text = "\n".join([f"# digest={cfg.digest}", world.TRAJECTORY_COLUMNS, *rows]) + "\n"
            writes.append((tdir / f"trajectories-{mode}.csv",
                           lambda p, text=text: p.write_text(text)))
    _replace_files(writes + [(Path(out_path), lambda p: nav.write_report_json(
        reports, p, seed=eval_seed, config_digest=cfg.digest))])
    for mode in modes:
        rep = reports[mode]
        print(
            f"eval[{mode}]: success {rep.success_rate:.3f} "
            f"disconnection {rep.disconnection_rate:.3f} collision {rep.collision_rate:.3f} "
            f"({rep.agent_trials} agent-trials)"
        )


def cmd_covmap(cfg: cfgmod.RunConfig, out_path: str, resolution: float) -> None:
    """Rasterize the quantized coverage map of the configured environment."""
    grid = radio.coverage_grid(cfg.env, cfg.arena_bounds(), resolution)
    _replace_files([(Path(out_path), lambda p: radio.write_coverage_csv(
        grid, p, extra_comments=(f"digest={cfg.digest}",)))])
    fractions = " ".join(f"L{k}={grid.level_fraction(k):.3f}" for k in (0, 1, 2))
    print(f"covmap: {grid.nrows}x{grid.ncols} cells, {fractions}, written to {out_path}")


# Each command's output flags (argparse dests), True where the flag names a directory.
OUTPUT_FLAGS = {
    "bootstrap": {"out": False},
    "train": {"out_dir": True},
    "trainmap": {"out": False, "curve": False},
    "eval": {"out": False, "trajectories": True},
    "covmap": {"out": False},
    "defaults": {"out": False},
}


def _check_outputs(args) -> None:
    """Every output flag of the command names a path in an existing directory,
    and a file flag no directory, a directory flag no file: a ConfigError
    naming the flag otherwise, raised before any work."""
    for dest, is_dir in OUTPUT_FLAGS[args.command].items():
        value = getattr(args, dest)
        if value is None:
            continue
        path, flag = Path(value), "--" + dest.replace("_", "-")
        if not path.parent.is_dir():
            raise ConfigError(f"{flag} {value}: {path.parent} is not an existing directory")
        if path.exists() and path.is_dir() != is_dir:
            raise ConfigError(f"{flag} {value}: exists and is "
                              f"{'not a directory' if is_dir else 'a directory'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavnav",
        description="Jamming-resilient multi-UAV path planning: simulate, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON config (defaults used if omitted)")
        p.add_argument("--preset", help=f"jammer preset: {', '.join(sorted(cfgmod.PRESETS))}")
        p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("bootstrap", help="generate ORCA bootstrap state-value pairs")
    common(p)
    p.add_argument("--episodes", type=int, help="override bootstrap episode count")
    p.add_argument("--out", required=True, help="output bootstrap CSV")

    p = sub.add_parser("train", help="offline value-network training")
    common(p)
    p.add_argument("--episodes", type=int, help="override total training episodes")
    p.add_argument("--bootstrap", required=True, help="bootstrap CSV from 'bootstrap'")
    p.add_argument("--out-dir", required=True, help="directory for model/curve/checkpoints")
    p.add_argument("--resume", action="store_true", help="continue from the saved checkpoint")

    p = sub.add_parser("trainmap", help="train the SINR-map regressor")
    common(p)
    p.add_argument("--measurements", help="measurement CSV (synthetic sampling if omitted)")
    p.add_argument("--out", required=True, help="output map model JSON")
    p.add_argument("--curve", help="optional accuracy-curve CSV")

    p = sub.add_parser("eval", help="evaluate navigation modes")
    common(p)
    p.add_argument("--value-model", required=True, help="value network JSON")
    p.add_argument("--map-model", help="SINR map model JSON (needed for 'proposed')")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.add_argument("--trajectories", help="directory for per-mode trajectory CSVs")
    p.add_argument("--trials", type=int, help="override evaluation trial count")

    p = sub.add_parser("covmap", help="export the quantized coverage grid")
    common(p)
    p.add_argument("--out", required=True, help="output coverage CSV")
    p.add_argument("--resolution", type=float, default=2.0, help="cell size in meters")

    p = sub.add_parser("defaults", help="write the built-in default config")
    p.add_argument("--out", required=True, help="output config JSON path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        if args.command == "defaults":
            cfgmod.write_default(args.out)
            print(f"defaults: wrote {args.out}")
            return 0
        episodes = getattr(args, "episodes", None)
        if episodes is not None and episodes < 1:
            raise ConfigError("--episodes must be >= 1")
        if getattr(args, "trials", None) is not None and args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        key = "bootstrap_episodes" if args.command == "bootstrap" else "total_episodes"
        cfg = cfgmod.load(args.config, preset=args.preset, seed=args.seed,
                          training=None if episodes is None else {key: episodes})
        if args.command == "bootstrap":
            cmd_bootstrap(cfg, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.bootstrap, args.out_dir, resume=args.resume)
        elif args.command == "trainmap":
            cmd_trainmap(cfg, args.measurements, args.out, args.curve)
        elif args.command == "eval":
            cmd_eval(cfg, args.value_model, args.map_model, args.out,
                     args.trajectories, args.trials)
        elif args.command == "covmap":
            if not (math.isfinite(args.resolution) and args.resolution > 0):
                raise ConfigError(f"--resolution must be a finite number > 0, "
                                  f"got {args.resolution}")
            cmd_covmap(cfg, args.out, args.resolution)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime abort
        print(f"abort: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
