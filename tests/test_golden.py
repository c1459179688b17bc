"""Golden output digests: a small end-to-end run whose every output byte is pinned.

bootstrap, train, trainmap, eval and covmap run on a shrunken default config; the
sha256 of each output file must stay as recorded.  A refactor that leaves
the program's behaviour alone leaves these digests alone; any change that
alters output bits has to update them on purpose (and say so).

The run reaches every reward branch of world.step_all (the collision ramp,
contact, and both connectivity bands), the ORCA bootstrap, ε-greedy and
greedy lookahead, replay pushes with arrived terminals, checkpoints, a jammer
change, map training, all three evaluation modes and the coverage raster.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from uavnav import config as cfgmod
from uavnav import neuro, valuetrain
from uavnav.cli import main

CHECKPOINT = ("run/value-model.json", "run/curve.csv", "run/replay.npz", "run/adam.npz",
              "run/train-state.json")

TRAJECTORY_DIGEST = "24e9937ab1004f1870671052aea33d0d3b5b8fd5d3682849c289eaf02a7b8e85"

GOLDEN = {
    "boot.csv": "bafd7e1d14b1663c360cf37c4e9978662bd7b3036e6e53fe8bcd1a742d6bf7aa",
    "run/value-model.json": "a262f2fd3a5480e38920522d0e3d8397683e428929ab6fc2278615ce98869ed5",
    "run/curve.csv": "dbe5a8f990a022fc8b91581bfc7b36d35f1d882db6759542518a117f36776922",
    "run/replay.npz": "3a1bb13ead8c02e9384d213ca28059dcd7a705605b9ac3e1028b4180414ee00f",
    "run/train-state.json": "9ec8a38ef0969df8860bf078ba733ec714ca51b99f8dcb318c70f6a138e48749",
    "run/adam.npz": "5a7482ed4768eae552897ebc62a46155a984b12fb033beaee3b76673fa600ba7",
    "map.json": "ac2c26068a08833b91f43c362c675fbe75d763e50584f90e5a487e37c607f2f0",
    "acc.csv": "697f62b2ae2bcee666ee5f6bba64338f902fc5748da5b3b4728a40d71d51d4b9",
    "report.json": "65dd850ca19de0c6095d78ed5773560dc8e7c4be956bc8f80a471e36ff39636c",
    "traj/trajectories-proposed.csv": TRAJECTORY_DIGEST,
    "traj/trajectories-outdated.csv": TRAJECTORY_DIGEST,
    "traj/trajectories-perfect.csv": TRAJECTORY_DIGEST,
    "cov.csv": "bb215b9d0e428bd1a91825d93e8386564164ad219fd71ef1a23506fa304c5d17",
}


def golden_config() -> dict:
    raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
    raw["seed"] = 5
    raw["world"].update({"position_bound": 15.0, "min_travel": 15.0, "min_separation": 3.0})
    raw["training"].update(
        {"total_episodes": 6, "bootstrap_episodes": 6, "pretrain_epochs": 3,
         "checkpoint_every": 3, "jammer_change_period": 3}
    )
    raw["mapping"].update({"synthetic_measurements": 2000, "cloud_capacity": 2000, "epochs": 5})
    raw["evaluation"].update({"trials": 3})
    return raw


def run_golden(d: Path) -> None:
    """The five commands of the golden run, with outputs under d."""
    cfg = d / "config.json"
    cfg.write_text(json.dumps(golden_config()))
    c = ["--config", str(cfg)]
    assert main(["bootstrap", *c, "--preset", "center-1w", "--out", str(d / "boot.csv")]) == 0
    assert main(["train", *c, "--bootstrap", str(d / "boot.csv"),
                 "--out-dir", str(d / "run")]) == 0
    assert main(["trainmap", *c, "--preset", "center-1w", "--out", str(d / "map.json"),
                 "--curve", str(d / "acc.csv")]) == 0
    assert main(["eval", *c, "--preset", "center-1w",
                 "--value-model", str(d / "run" / "value-model.json"),
                 "--map-model", str(d / "map.json"), "--out", str(d / "report.json"),
                 "--trajectories", str(d / "traj")]) == 0
    assert main(["covmap", *c, "--preset", "center-1w", "--out", str(d / "cov.csv")]) == 0


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_golden_digests(tmp_path):
    run_golden(tmp_path)
    assert {name: digest(tmp_path / name) for name in GOLDEN} == GOLDEN


class Interrupted(BaseException):
    """Stops a run like a kill would: cli.main does not catch it."""


def test_resume_after_interrupt_gives_uninterrupted_bytes(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(golden_config()))
    boot = tmp_path / "boot.csv"
    assert main(["bootstrap", "--config", str(cfg), "--preset", "center-1w",
                 "--out", str(boot)]) == 0
    train = ["train", "--config", str(cfg), "--bootstrap", str(boot),
             "--out-dir", str(tmp_path / "run")]
    real_train = valuetrain.train

    def train_until_first_checkpoint(*args, on_checkpoint, **kwargs):
        def checkpoint_then_stop(*state):
            on_checkpoint(*state)
            raise Interrupted

        return real_train(*args, on_checkpoint=checkpoint_then_stop, **kwargs)

    monkeypatch.setattr(valuetrain, "train", train_until_first_checkpoint)
    with pytest.raises(Interrupted):
        main(train)
    monkeypatch.undo()
    assert json.loads((tmp_path / "run" / "train-state.json").read_text())["episode"] == 3

    assert main([*train, "--resume"]) == 0
    for name in CHECKPOINT:
        assert digest(tmp_path / name) == GOLDEN[name], name


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(golden_config()))
    boot = tmp_path / "boot.csv"
    assert main(["bootstrap", "--config", str(cfg), "--preset", "center-1w",
                 "--out", str(boot)]) == 0
    train = ["train", "--config", str(cfg), "--bootstrap", str(boot),
             "--out-dir", str(tmp_path / "run")]
    real_savez = np.savez
    archives = []
    first_checkpoint = {}

    def savez_failing_second_adam(file, **arrays):
        archives.append(sorted(arrays))
        if len(archives) == 3:  # replay.npz of the second checkpoint: the first is complete
            first_checkpoint.update({name: digest(tmp_path / name) for name in CHECKPOINT})
        if len(archives) == 4:
            assert "step" in arrays  # adam.npz
            raise OSError("disk full")
        real_savez(file, **arrays)

    monkeypatch.setattr(np, "savez", savez_failing_second_adam)
    assert main(train) == 3
    monkeypatch.undo()
    assert {name: digest(tmp_path / name) for name in CHECKPOINT} == first_checkpoint
    assert json.loads((tmp_path / "run" / "train-state.json").read_text())["episode"] == 3
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
        Path(name).name for name in CHECKPOINT)

    assert main([*train, "--resume"]) == 0
    for name in CHECKPOINT:
        assert digest(tmp_path / name) == GOLDEN[name], name


def test_kill_between_two_replacements_is_refused_on_resume(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(golden_config()))
    boot = tmp_path / "boot.csv"
    assert main(["bootstrap", "--config", str(cfg), "--preset", "center-1w",
                 "--out", str(boot)]) == 0
    train = ["train", "--config", str(cfg), "--bootstrap", str(boot),
             "--out-dir", str(tmp_path / "run")]
    real_replace = os.replace
    moved = []

    def replace_then_die_after_second_model(src, dst):
        real_replace(src, dst)
        moved.append(Path(dst).name)
        if moved.count("value-model.json") == 2:
            raise Interrupted

    monkeypatch.setattr(os, "replace", replace_then_die_after_second_model)
    with pytest.raises(Interrupted):
        main(train)
    monkeypatch.undo()
    assert moved == [Path(name).name for name in CHECKPOINT] + ["value-model.json"]
    assert json.loads((tmp_path / "run" / "train-state.json").read_text())["episode"] == 3

    capsys.readouterr()
    assert main([*train, "--resume"]) == 2
    err = capsys.readouterr().err
    assert "value-model.json" in err and "Traceback" not in err


# Evaluation where the three modes fly apart: the benchmark's navigate config
# (default config, seed 3, 5 trials) with its value-net fixture and a center-1w
# map, and the same config with the jammer off.  Unlike the golden run above,
# every mode's trajectories differ here, so these pins see the learned map.
VALUE_FIXTURE = Path(__file__).resolve().parent.parent / "bench" / "fixtures" / "value-model.json"

EVAL_PINS = {
    "map.json": "db7fce4409cd83678d89166e593537acf573cf003a7250e09405a7f8df45b1da",
    "center-1w/report.json": "cf42728e2c0a65ef498ac51121b892c54ddc715399e36f56f6764a0c4faf1efc",
    "center-1w/trajectories-proposed.csv":
        "173cb84d5816cad9701d51642c3f1845f7150ea394b6637171ef8a3fa44396e5",
    "center-1w/trajectories-outdated.csv":
        "f5585528d916eb4239a35652bd603af57259fc729fd1ffc7b7992f689dc197bb",
    "center-1w/trajectories-perfect.csv":
        "e2bcc89383b0c10169078b957d57fd3d6dab951f13c0117a4fcfce0a29bb013e",
    "none/report.json": "5c8950ca04c19c27336d5e40d73c80f15e15b5f8ece27fad680d8f46691f02c9",
    "none/trajectories-outdated.csv":
        "bf390eeaf0808e4538f22f83a462562e7b664c6eec55af1c28b0861b27bfa7c7",
    "none/trajectories-perfect.csv":
        "bf390eeaf0808e4538f22f83a462562e7b664c6eec55af1c28b0861b27bfa7c7",
}


def test_eval_digests_where_the_modes_differ(tmp_path):
    raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
    raw["seed"] = 3
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    raw["evaluation"]["modes"] = ["outdated", "perfect"]
    cfg_none = tmp_path / "config-none.json"
    cfg_none.write_text(json.dumps(raw))
    assert main(["trainmap", "--config", str(cfg), "--preset", "center-1w",
                 "--out", str(tmp_path / "map.json")]) == 0
    for preset, config, extra in (
        ("center-1w", cfg, ["--map-model", str(tmp_path / "map.json")]),
        ("none", cfg_none, []),
    ):
        (tmp_path / preset).mkdir()
        assert main(["eval", "--config", str(config), "--preset", preset,
                     "--value-model", str(VALUE_FIXTURE), *extra,
                     "--out", str(tmp_path / preset / "report.json"),
                     "--trajectories", str(tmp_path / preset), "--trials", "5"]) == 0
    got = {name: digest(tmp_path / name) for name in EVAL_PINS}
    modes = [got[f"center-1w/trajectories-{m}.csv"] for m in ("proposed", "outdated", "perfect")]
    assert len(set(modes)) == 3
    assert got == EVAL_PINS


# The fixture's forward bits, pinned directly: an eval digest does not move
# unless a last-bit change flips some decision, but these do.  One stacked
# (S, B, in) batch as the lookahead sends and one flat (B, in) batch.
FORWARD_PINS = {
    (4, 15, 34): "cbd28e6c5363c71762a27c8db4ad4ba4882c67c1e2fbcc84298cf9562fca0276",
    (60, 34): "e235d7c58d824f9ad47f309ac57e43cf2147715db94695b1ecd9326385e058be",
}


@pytest.mark.parametrize("seed, shape", enumerate(FORWARD_PINS))
def test_fixture_forward_bits(seed, shape):
    net = neuro.load_model(VALUE_FIXTURE)
    rng = np.random.default_rng(seed)
    x = net.standardizer.mean + 3.0 * net.standardizer.std * rng.normal(size=shape)
    out = neuro.forward_batch(net, x)[0]
    assert out.shape == (*shape[:-1], 1)
    assert hashlib.sha256(out.tobytes()).hexdigest() == FORWARD_PINS[shape]
