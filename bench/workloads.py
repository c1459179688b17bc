"""The three workloads: what each sets up, what one case runs, what is checked.

A workload has a few cases, input sets made from the benchmark seed, and each
case runs the same two user-visible stages one after the other in this
process.  A pass runs every case once.  Every pass repeats the same inputs,
so the outputs of a case must be byte-identical in every pass; the first
pass's outputs are checked in full.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from uavnav import cli, neuro, sinrmap
from uavnav import config as cfgmod

import checks
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE = BENCH_DIR / "fixtures" / "value-model.json"

# offline-train: default config with fewer episodes; the jammer moves at
# episodes 5, 10 and 15.  Bootstrap draws one jammer per case, so the case
# count sets how many jammer placements a run averages over.
BOOTSTRAP_EPISODES = 40
TRAIN_EPISODES = 16
JAMMER_CHANGE_PERIOD = 5

# online-map: the jammer moves from center-1w to southeast-1w.  The cloud
# keeps 5000 old measurements next to 15000 new ones, so the purge has work.
# With the config's detection window and threshold (200, 0.1) the accuracy
# drop after the move, 0.11-0.15, is too close to the threshold to fire on
# every seed; 2000 and 0.05 leave a wide margin on both sides.
NEW_MEASUREMENTS = 15000
CHECK_WINDOW = 2000
DROP_THRESHOLD = 0.05
PROBE_POINTS = 2000

# navigate: trials per `uavnav eval` call.
EVAL_TRIALS = 5


class OpFailed(Exception):
    """A command exited non-zero or raised."""


def run_cli(argv: list[str]) -> None:
    """Run one `uavnav` command in this process, through the public entry point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    if code != 0:
        raise OpFailed(f"uavnav {argv[0]} exited {code}: {err.getvalue().strip()}")


def write_defaults(path: Path, src_dir: Path) -> dict:
    """`uavnav defaults` in a fresh interpreter: the import and config cost a user pays first."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "uavnav.cli", "defaults", "--out", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise OpFailed(f"uavnav defaults exited {proc.returncode}: {proc.stderr.strip()}")
    return checks.load_json(path)


def write_config(raw: dict, path: Path) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(raw, f, indent=1, sort_keys=True)
    return str(path)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        files = sorted(p.rglob("*")) if p.is_dir() else [p]
        for f in files:
            if f.is_file():
                h.update(f.name.encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def preset_jammer(name: str) -> dict | None:
    spec = cfgmod.PRESETS[name]
    if spec is None:
        return None
    return {"position": spec["position"], "height": cfgmod.PRESET_JAMMER_HEIGHT,
            "tx_power": spec["tx_power"]}


def env_of_radio(env) -> dict:
    """Reference environment from a uavnav RadioEnvironment's fields."""
    jam = env.jammer
    return {
        "stations": [
            {"x": s.position[0], "y": s.position[1], "height": s.height,
             "tx_power": s.tx_power, "tilt_deg": s.tilt_deg,
             "beamwidth_deg": s.beamwidth_deg, "max_atten_db": s.max_atten_db}
            for s in env.stations
        ],
        "jammer": None if jam is None else {
            "x": jam.position[0], "y": jam.position[1], "height": jam.height,
            "tx_power": jam.tx_power, "active": jam.active,
        },
        "noise_power": env.noise_power,
        "uav_altitude": env.uav_altitude,
        "pathloss_exponent": env.pathloss_exponent,
        "threshold": env.sinr_threshold,
        "margin": env.margin,
    }


class Workload:
    """One workload: `cases` input sets, each run through the same two stages."""

    name = ""
    stages: tuple[str, str] = ("", "")
    cases = 1

    def __init__(self, seed: int, src_dir: Path):
        self.seed = seed
        self.src_dir = src_dir

    def program_seed(self, case: int) -> int:
        """The config seed of one case; distinct across benchmark seeds and cases."""
        return self.seed * self.cases + case

    def setup(self, d: Path) -> list:
        """Prepare the inputs in directory d; returns one state per case."""
        raise NotImplementedError

    def run_case(self, state, d: Path, timer) -> object:
        """Run both stages of one case into directory d; timer(stage) times each one."""
        raise NotImplementedError

    def outputs(self, d: Path) -> dict[str, list[Path]]:
        """Files each stage wrote, for the determinism digests."""
        raise NotImplementedError

    def check(self, state, d: Path, result) -> dict[str, list[str]]:
        """Failures found in one case's outputs, per stage."""
        raise NotImplementedError

    def units(self, d: Path) -> dict[str, int]:
        """Units of work each stage did, read from its outputs: one per stage by default."""
        return {s: 1 for s in self.stages}


class OfflineTrain(Workload):
    name = "offline-train"
    stages = ("bootstrap", "train")
    cases = 4

    def setup(self, d):
        raw = write_defaults(d / "defaults.json", self.src_dir)
        t = raw["training"]
        t["bootstrap_episodes"] = BOOTSTRAP_EPISODES
        t["total_episodes"] = TRAIN_EPISODES
        t["jammer_change_period"] = JAMMER_CHANGE_PERIOD
        states = []
        for c in range(self.cases):
            raw = dict(raw, seed=self.program_seed(c))
            states.append({"raw": raw, "config": write_config(raw, d / f"config-{c}.json")})
        return states

    def run_case(self, state, d, timer):
        with timer("bootstrap"):
            run_cli(["bootstrap", "--config", state["config"], "--out", str(d / "boot.csv")])
        with timer("train"):
            run_cli(["train", "--config", state["config"], "--bootstrap", str(d / "boot.csv"),
                     "--out-dir", str(d / "run")])
        return None

    def outputs(self, d):
        return {"bootstrap": [d / "boot.csv"], "train": [d / "run"]}

    def units(self, d):
        """Agent-steps: bootstrap rows written, and replay rows the training episodes added."""
        with open(d / "boot.csv", encoding="utf-8") as f:
            pairs = sum(1 for line in f if not line.startswith("#"))
        with np.load(d / "run" / "replay.npz") as data:
            replay = len(data["targets"])
        return {"bootstrap": pairs, "train": replay - pairs}

    def check(self, state, d, result):
        raw = state["raw"]
        rng = np.random.default_rng(raw["seed"])

        def program_forward(path, rows):
            out, _ = neuro.forward_batch(neuro.load_model(path), rows)
            return out

        return {
            "bootstrap": checks.check_bootstrap(d / "boot.csv", raw["world"]["j_n"]),
            "train": checks.check_curve(d / "run" / "curve.csv", raw["training"])
            + checks.check_value_model(d / "run" / "value-model.json",
                                       d / "run" / "replay.npz", rng, program_forward),
        }


class OnlineMap(Workload):
    name = "online-map"
    stages = ("trainmap", "refresh")

    def setup(self, d):
        raw = write_defaults(d / "defaults.json", self.src_dir)
        raw["seed"] = self.program_seed(0)
        raw["mapping"]["check_every"] = CHECK_WINDOW
        raw["mapping"]["drop_threshold"] = DROP_THRESHOLD
        config = write_config(raw, d / "config.json")
        before = cfgmod.load(config, preset="center-1w")
        after = cfgmod.load(config, preset="southeast-1w")
        m = before.mapping
        bounds = before.arena_bounds()
        rng = np.random.default_rng([raw["seed"], 1])
        capacity = m["cloud_capacity"]
        old = sinrmap.sample_measurements(before.env, capacity, rng, bounds, m["k_n"])
        control = sinrmap.sample_measurements(
            before.env, CHECK_WINDOW, rng, bounds, m["k_n"], timestamp_start=capacity)
        new = sinrmap.sample_measurements(
            after.env, NEW_MEASUREMENTS, rng, bounds, m["k_n"], timestamp_start=capacity)
        probe = rng.uniform(bounds[0], bounds[2], size=(PROBE_POINTS, 2))
        return [{
            "raw": raw, "config": config, "mapping": m, "train_cfg": before.map_train_config(),
            "old": old, "control": control, "new": new, "cut": capacity,
            "stations": [(s.position[0], s.position[1], s.height) for s in after.env.stations],
            "altitude": after.env.uav_altitude, "probe": probe,
            "probe_env": ref.env_from_config(raw, preset_jammer("southeast-1w")),
        }]

    def run_case(self, state, d, timer):
        m = state["mapping"]
        with timer("trainmap"):
            run_cli(["trainmap", "--config", state["config"], "--preset", "center-1w",
                     "--out", str(d / "map.json"), "--curve", str(d / "acc.csv")])
        model = sinrmap.load_map_model(d / "map.json")
        baseline = float(Path(d / "acc.csv").read_text().split()[-1].split(",")[1])
        cloud = sinrmap.MeasurementCloud(m["cloud_capacity"])
        for x in state["old"]:
            cloud.record(x)
        for x in state["new"]:
            cloud.record(x)
        before_purge = [x.timestamp for x in cloud.measurements()]
        window = state["new"][:CHECK_WINDOW]
        rng = np.random.default_rng([state["raw"]["seed"], 2])
        # Timed from fresh measurements in hand to a retrained map.
        with timer("refresh"):
            acc_now = sinrmap.evaluate_accuracy(model, window)
            fired = sinrmap.detect_change(acc_now, baseline, m["drop_threshold"])
            refreshed, curve = sinrmap.retrain(
                model, cloud, state["train_cfg"], rng, purge_before=state["cut"])
        sinrmap.save_map_model(refreshed, d / "refreshed-map.json")
        result = {
            "baseline": baseline, "acc_now": acc_now, "fired": fired, "curve": curve,
            "before_purge": before_purge,
            "after_purge": [x.timestamp for x in cloud.measurements()],
        }
        with open(d / "refresh.json", "w", encoding="utf-8") as f:
            json.dump({k: v for k, v in result.items() if not k.endswith("purge")}, f)
        result.update(model=model, refreshed=refreshed)
        return result

    def outputs(self, d):
        return {"trainmap": [d / "map.json", d / "acc.csv"],
                "refresh": [d / "refreshed-map.json", d / "refresh.json"]}

    def check(self, state, d, result):
        m, cut = state["mapping"], state["cut"]
        trainmap, refresh = [], []
        if result["baseline"] < 0.90:
            trainmap.append(f"trainmap holdout accuracy {result['baseline']} < 0.90")
        if not result["fired"]:
            refresh.append(f"detect_change missed the jammer move: accuracy "
                           f"{result['baseline']} -> {result['acc_now']}")
        control_acc = sinrmap.evaluate_accuracy(result["model"], state["control"])
        if sinrmap.detect_change(control_acc, result["baseline"], m["drop_threshold"]):
            refresh.append(f"detect_change fired without a jammer move: accuracy "
                           f"{result['baseline']} -> {control_acc}")
        kept = [t for t in result["before_purge"] if t >= cut]
        if result["after_purge"] != kept:
            refresh.append(f"purge kept {len(result['after_purge'])} measurements, "
                           f"{len(kept)} are stamped at or after {cut}")
        if len(kept) == len(result["before_purge"]):
            refresh.append("the purge had nothing stamped before the cut to remove")
        if result["curve"][-1] < 0.90:
            refresh.append(f"refreshed holdout accuracy {result['curve'][-1]} < 0.90")
        model = result["refreshed"]

        def predict(positions):
            feats = sinrmap.featurize_many(positions, state["stations"], state["altitude"],
                                           model.k_n)
            return sinrmap.predict_levels(model, feats)

        acc = checks.map_probe_accuracy(state["probe_env"], state["probe"], predict)
        if acc < 0.90:
            refresh.append(f"refreshed map scores {acc} < 0.90 on the reference probe")
        return {"trainmap": trainmap, "refresh": refresh}


class Navigate(Workload):
    name = "navigate"
    stages = ("eval-center-1w", "eval-none")
    cases = 3

    def setup(self, d):
        raw = write_defaults(d / "defaults.json", self.src_dir)
        raw["seed"] = self.program_seed(0)
        run_cli(["trainmap", "--config", write_config(raw, d / "map-config.json"),
                 "--preset", "center-1w", "--out", str(d / "map.json")])
        states = []
        for c in range(self.cases):
            raw = dict(raw, seed=self.program_seed(c))
            raw_none = json.loads(json.dumps(raw))
            raw_none["evaluation"]["modes"] = ["outdated", "perfect"]
            states.append({
                "raw": raw, "map": str(d / "map.json"),
                "config": write_config(raw, d / f"config-{c}.json"),
                "config_none": write_config(raw_none, d / f"config-none-{c}.json"),
            })
        return states

    def run_case(self, state, d, timer):
        trials = str(EVAL_TRIALS)
        with timer("eval-center-1w"):
            run_cli(["eval", "--config", state["config"], "--preset", "center-1w",
                     "--value-model", str(FIXTURE), "--map-model", state["map"],
                     "--out", str(d / "report-center-1w.json"),
                     "--trajectories", str(d / "center-1w"), "--trials", trials])
        with timer("eval-none"):
            run_cli(["eval", "--config", state["config_none"], "--preset", "none",
                     "--value-model", str(FIXTURE),
                     "--out", str(d / "report-none.json"),
                     "--trajectories", str(d / "none"), "--trials", trials])
        return None

    def outputs(self, d):
        return {"eval-center-1w": [d / "report-center-1w.json", d / "center-1w"],
                "eval-none": [d / "report-none.json", d / "none"]}

    def units(self, d):
        """Navigation decisions: trajectory steps of agents that had not yet arrived."""
        return {stage: sum(checks.count_decisions(checks.read_trajectories(f))
                           for f in sorted((d / preset).glob("trajectories-*.csv")))
                for stage, preset in (("eval-center-1w", "center-1w"), ("eval-none", "none"))}

    def check(self, state, d, result):
        raw = state["raw"]
        world = raw["world"]
        found = {}
        for stage, preset, modes in (("eval-center-1w", "center-1w",
                                      ("proposed", "outdated", "perfect")),
                                     ("eval-none", "none", ("outdated", "perfect"))):
            env = ref.env_from_config(raw, preset_jammer(preset))
            report = checks.load_json(d / f"report-{preset}.json")
            bad = []
            for mode in modes:
                trajs = checks.read_trajectories(d / preset / f"trajectories-{mode}.csv")
                bad += [f"{preset}/{mode}: {msg}"
                        for msg in checks.check_trajectories(trajs, env, world)]
                bad += checks.check_report(report, mode, trajs)
            if preset == "none":
                bad += checks.check_jammer_off(report, d / preset)
            found[stage] = bad
        return found


WORKLOADS = {w.name: w for w in (OfflineTrain, OnlineMap, Navigate)}
