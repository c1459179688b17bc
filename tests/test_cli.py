import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from uavnav import config as cfgmod
from uavnav import radio
from uavnav.cli import main


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tiny_config(tmp_path, jammer=None, **overrides) -> Path:
    """Small single-station world that every command finishes fast on."""
    raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
    raw["seed"] = 777
    raw["environment"]["stations"] = [{"position": [0.0, 0.0], "tx_power": 1e6}]
    raw["environment"]["jammer"] = jammer
    raw["world"].update(
        {"agents": 2, "position_bound": 30.0, "min_travel": 30.0,
         "max_episode_steps": 60}
    )
    raw["training"].update(
        {"total_episodes": 4, "bootstrap_episodes": 3, "pretrain_epochs": 2,
         "checkpoint_every": 2, "value_hidden": [8, 4], "jammer_powers": [0.001]}
    )
    raw["mapping"].update(
        {"k_n": 1, "hidden": [8], "epochs": 60, "synthetic_measurements": 1500,
         "cloud_capacity": 1500}
    )
    raw["evaluation"].update({"trials": 2, "max_episode_steps": 60})
    for key, value in overrides.items():
        block, _, leaf = key.partition(".")
        if leaf:
            raw[block][leaf] = value
        else:
            raw[block] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfigValidation:
    def test_default_config_is_valid(self):
        cfg = cfgmod.load(None)
        assert len(cfg.env.stations) == 12
        assert cfg.env.jammer is None

    def test_unknown_key_rejected(self, tmp_path):
        raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
        raw["world"]["warp_speed"] = 9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(cfgmod.ConfigError, match="world.*warp_speed"):
            cfgmod.load(path)

    def test_module_invariants_checked(self, tmp_path):
        raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
        raw["environment"]["noise_power"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(cfgmod.ConfigError, match="noise_power"):
            cfgmod.load(path)

    def test_station_error_names_index(self, tmp_path):
        raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
        raw["environment"]["stations"][3] = {"position": [0, 0], "tx_power": -1.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(cfgmod.ConfigError, match=r"stations\[3\]"):
            cfgmod.load(path)

    def test_presets(self):
        cfg = cfgmod.load(None, preset="southeast-1w")
        assert cfg.env.jammer.position == (25.0, -10.0)
        assert cfg.env.jammer.tx_power == 1.0
        cfg = cfgmod.load(None, preset="center-0.5w")
        assert cfg.env.jammer.tx_power == 0.5
        cfg = cfgmod.load(None, preset="none")
        assert cfg.env.jammer is None
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.load(None, preset="mystery")

    def test_digest_stable_and_sensitive(self):
        a = cfgmod.load(None)
        b = cfgmod.load(None)
        c = cfgmod.load(None, seed=1)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": }')
        with pytest.raises(cfgmod.ConfigError, match="broken.json:1:"):
            cfgmod.load(path)

    @pytest.mark.parametrize("key, value", [
        ("world.speed_range", ["fast", 8.0]),
        ("world.speed_range", [4.0, None]),
        ("training.jammer_powers", [0.5, "1w"]),
        ("training.jammer_bounds", [["east", "west"], [-40.0, 40.0]]),
        ("training.value_hidden", [True, 8]),
        ("mapping.hidden", [16, True]),
    ])
    def test_wrong_entry_type_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = tiny_config(tmp_path, **{key: value})
        rc = main(["bootstrap", "--config", str(cfg_path), "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()


class TestCovmap:
    def test_header_contract_and_units(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "cov.csv"
        assert main(["covmap", "--config", str(cfg_path), "--out", str(out),
                     "--resolution", "2.0"]) == 0
        lines = out.read_text().splitlines()
        half = cfgmod.load(cfg_path).world["arena_half_extent"]
        assert lines[0] == f"# {-half!r},{-half!r},2.0,50,50"
        grid = radio.read_coverage_csv(out)
        assert grid.nrows == grid.ncols == 50

    def test_resolution_halving_quadruples_cells(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        main(["covmap", "--config", str(cfg_path), "--out", str(out1), "--resolution", "4"])
        main(["covmap", "--config", str(cfg_path), "--out", str(out2), "--resolution", "2"])
        g1 = radio.read_coverage_csv(out1)
        g2 = radio.read_coverage_csv(out2)
        assert g2.levels.size == 4 * g1.levels.size

    def test_jammer_strictly_grows_dead_zone(self, tmp_path):
        # Moderate station power so a 1 W jammer actually breaches threshold.
        cfg_off = tiny_config(tmp_path, **{"environment.stations": [
            {"position": [0.0, 0.0], "tx_power": 1.0, "max_atten_db": 5.0}]})
        out_off = tmp_path / "off.csv"
        main(["covmap", "--config", str(cfg_off), "--out", str(out_off)])
        out_on = tmp_path / "on.csv"
        main(["covmap", "--config", str(cfg_off), "--preset", "southeast-1w",
              "--out", str(out_on)])
        g_off = radio.read_coverage_csv(out_off)
        g_on = radio.read_coverage_csv(out_on)
        count0 = lambda g: int((g.levels == 0).sum())
        assert count0(g_on) > count0(g_off)

    def test_bad_resolution_is_validation_error(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        assert main(["covmap", "--config", str(cfg_path), "--out",
                     str(tmp_path / "x.csv"), "--resolution", "0"]) == 2

    def test_deterministic_bytes(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        outs = [tmp_path / f"c{i}.csv" for i in range(2)]
        for out in outs:
            main(["covmap", "--config", str(cfg_path), "--out", str(out)])
        assert digest(outs[0]) == digest(outs[1])


class TestBootstrapCommand:
    def test_writes_loadable_file(self, tmp_path):
        from uavnav import orca

        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out)]) == 0
        pairs, std = orca.read_bootstrap_csv(out)
        assert pairs and std is not None

    def test_zero_episode_override_rejected(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        rc = main(["bootstrap", "--config", str(cfg_path), "--episodes", "0",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        outs = [tmp_path / f"b{i}.csv" for i in range(2)]
        for out in outs:
            assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert digest(outs[0]) == digest(outs[1])


class TestTrainCommand:
    def _bootstrap(self, tmp_path, cfg_path):
        boot = tmp_path / "boot.csv"
        assert main(["bootstrap", "--config", str(cfg_path), "--out", str(boot)]) == 0
        return boot

    def test_smoke_run_writes_artifacts(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        boot = self._bootstrap(tmp_path, cfg_path)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                     "--out-dir", str(out_dir)]) == 0
        from uavnav import neuro, valuetrain

        assert neuro.load_model(out_dir / "value-model.json").output_size == 1
        curve = valuetrain.read_curve_csv(out_dir / "curve.csv")
        assert [p.episode for p in curve] == [0, 1, 2, 3]
        state = json.loads((out_dir / "train-state.json").read_text())
        assert state["episode"] == 4
        assert "buffer_digest" in state and "rng" in state

    def test_missing_bootstrap_is_validation_error(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        rc = main(["train", "--config", str(cfg_path), "--bootstrap",
                   str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "run")])
        assert rc == 2

    def test_resume_continues_episode_index(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        boot = self._bootstrap(tmp_path, cfg_path)
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                     "--out-dir", str(out_dir), "--episodes", "2"]) == 0
        assert json.loads((out_dir / "train-state.json").read_text())["episode"] == 2
        assert main(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                     "--out-dir", str(out_dir), "--episodes", "5", "--resume"]) == 0
        from uavnav import valuetrain

        curve = valuetrain.read_curve_csv(out_dir / "curve.csv")
        assert [p.episode for p in curve] == [0, 1, 2, 3, 4]

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        boot = self._bootstrap(tmp_path, cfg_path)
        digests = []
        for i in range(2):
            out_dir = tmp_path / f"run{i}"
            assert main(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                         "--out-dir", str(out_dir)]) == 0
            digests.append(
                (digest(out_dir / "value-model.json"), digest(out_dir / "curve.csv"),
                 digest(out_dir / "train-state.json"), digest(out_dir / "replay.npz"))
            )
        assert digests[0] == digests[1]


class TestTrainmapCommand:
    def test_synthetic_training_reaches_target(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "map.json"
        curve = tmp_path / "acc.csv"
        assert main(["trainmap", "--config", str(cfg_path), "--out", str(out),
                     "--curve", str(curve)]) == 0
        rows = [l for l in curve.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("epoch")]
        final = float(rows[-1].split(",")[1])
        assert final >= 0.9  # uniform coverage: trivially learnable

    def test_malformed_measurement_file_errors(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        bad = tmp_path / "meas.csv"
        bad.write_text("# sinr-measurements v1 features=5 count=1\n0,1.0,2.0\n")
        rc = main(["trainmap", "--config", str(cfg_path), "--measurements", str(bad),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3

    def test_same_seed_identical_outputs(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        ds = []
        for i in range(2):
            out = tmp_path / f"map{i}.json"
            curve = tmp_path / f"acc{i}.csv"
            assert main(["trainmap", "--config", str(cfg_path), "--out", str(out),
                         "--curve", str(curve)]) == 0
            ds.append((digest(out), digest(curve)))
        assert ds[0] == ds[1]


class TestEvalCommand:
    @pytest.fixture
    def artifacts(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        boot = tmp_path / "boot.csv"
        main(["bootstrap", "--config", str(cfg_path), "--out", str(boot)])
        run = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
              "--out-dir", str(run)])
        map_path = tmp_path / "map.json"
        main(["trainmap", "--config", str(cfg_path), "--out", str(map_path)])
        return cfg_path, run / "value-model.json", map_path

    def test_jammer_off_three_identical_mode_rows(self, artifacts, tmp_path):
        cfg_path, value, map_path = artifacts
        out = tmp_path / "report.json"
        assert main(["eval", "--config", str(cfg_path), "--value-model", str(value),
                     "--map-model", str(map_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        rows = [data["modes"][m] for m in ("proposed", "outdated", "perfect")]
        assert rows[0] == rows[1] == rows[2]

    def test_trajectories_flag_writes_schema(self, artifacts, tmp_path):
        from uavnav import world

        cfg_path, value, map_path = artifacts
        tdir = tmp_path / "trajs"
        assert main(["eval", "--config", str(cfg_path), "--value-model", str(value),
                     "--map-model", str(map_path), "--out", str(tmp_path / "r.json"),
                     "--trajectories", str(tdir)]) == 0
        for mode in ("proposed", "outdated", "perfect"):
            lines = (tdir / f"trajectories-{mode}.csv").read_text().splitlines()
            assert lines[1] == world.TRAJECTORY_COLUMNS
            n_cols = len(world.TRAJECTORY_COLUMNS.split(","))
            assert all(len(l.split(",")) == n_cols for l in lines[2:])

    def test_architecture_mismatch_is_validation_error(self, artifacts, tmp_path):
        cfg_path, value, map_path = artifacts
        # j_n=5 changes the expected input length: the j_n=4 model must be rejected.
        raw = json.loads(Path(cfg_path).read_text())
        raw["world"]["j_n"] = 5
        bad_cfg = tmp_path / "cfg5.json"
        bad_cfg.write_text(json.dumps(raw))
        rc = main(["eval", "--config", str(bad_cfg), "--value-model", str(value),
                   "--map-model", str(map_path), "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_missing_map_model_for_proposed(self, artifacts, tmp_path):
        cfg_path, value, _ = artifacts
        rc = main(["eval", "--config", str(cfg_path), "--value-model", str(value),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_byte_identical_reruns(self, artifacts, tmp_path):
        cfg_path, value, map_path = artifacts
        ds = []
        for i in range(2):
            out = tmp_path / f"rep{i}.json"
            assert main(["eval", "--config", str(cfg_path), "--value-model", str(value),
                         "--map-model", str(map_path), "--out", str(out)]) == 0
            ds.append(digest(out))
        assert ds[0] == ds[1]


class TestDefaults:
    def test_written_defaults_validate_and_round_trip(self, tmp_path):
        out = tmp_path / "defaults.json"
        assert main(["defaults", "--out", str(out)]) == 0
        cfg = cfgmod.load(out)
        assert cfg.digest == cfgmod.load(None).digest
