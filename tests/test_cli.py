import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from uavnav import config as cfgmod
from uavnav import radio, valuetrain
from uavnav.cli import main


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rerecord(path: Path) -> None:
    """Record path's new sha256 in the train-state.json beside it, as if a checkpoint wrote it."""
    state_path = path.parent / "train-state.json"
    state = json.loads(state_path.read_text())
    state["sha256"][path.name] = digest(path)
    state_path.write_text(json.dumps(state))


def failing_writer(obj, path, *args, **kwargs):
    """A writer of obj to path that dies half way."""
    Path(path).write_text("half")
    raise OSError("disk full")


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

    @pytest.mark.parametrize("defaults", [None, {}])
    def test_station_defaults_omitted_resolve_to_the_default_stations(self, tmp_path, defaults):
        raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
        if defaults is None:
            del raw["environment"]["station_defaults"]
        else:
            raw["environment"]["station_defaults"] = defaults
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cfgmod.load(path).env.stations == cfgmod.load(None).env.stations

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

    def test_step_rules_take_the_step_cap_of_the_command(self, tmp_path):
        """Training and bootstrap fly to world.max_episode_steps, evaluation to
        evaluation.max_episode_steps; every other rule comes from the world block."""
        from uavnav import world

        cfg = cfgmod.load(tiny_config(tmp_path, **{"world.max_episode_steps": 70,
                                                   "evaluation.max_episode_steps": 90}))
        train, evaluation = cfg.step_rules(), cfg.step_rules(eval_mode=True)
        assert train.max_episode_steps == 70
        assert evaluation.max_episode_steps == 90
        for f in fields(world.StepRules):
            if f.name != "max_episode_steps":
                assert getattr(train, f.name) == getattr(evaluation, f.name) == cfg.world[f.name]

    def test_missions_take_the_mission_settings_of_the_world_block(self, tmp_path):
        cfg = cfgmod.load(tiny_config(tmp_path, **{"world.agent_radius": 0.75,
                                                   "world.speed_range": [5, 9]}))
        assert cfg.missions() == valuetrain.MissionRules(
            n_agents=2, position_bound=30.0, min_travel=30.0, min_separation=5.0, radius=0.75,
            speed_range=(5.0, 9.0))

    def test_separation_that_lets_starts_overlap_exits_2(self, tmp_path, capsys):
        # Each start is more than min_separation from the others; below twice
        # the radius two of them may overlap, which aborted bootstrap part-way.
        cfg_path = tiny_config(tmp_path, **{"world.agent_radius": 3.0,
                                            "world.min_separation": 1.0})
        rc = main(["bootstrap", "--config", str(cfg_path), "--episodes", "60",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "world.min_separation" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @staticmethod
    def _bootstrap_in_a_small_square(tmp_path, capsys, agents):
        """bootstrap of missions whose endpoints lie more than 5 m apart in a
        20 m square; checks that it fails naming the three settings and
        writes nothing, and returns its exit code."""
        raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
        raw["world"].update({"agents": agents, "position_bound": 10.0, "min_travel": 10.0})
        raw["training"]["bootstrap_episodes"] = 1
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        rc = main(["bootstrap", "--config", str(cfg_path), "--out", str(tmp_path / "boot.csv")])
        err = capsys.readouterr().err
        for key in ("world.agents", "world.min_separation", "world.position_bound"):
            assert key in err
        assert "overlap" not in err
        assert not (tmp_path / "boot.csv").exists()
        return rc

    def test_agents_above_the_packing_bound_exit_2(self, tmp_path, capsys):
        # By Oler's inequality at most 27.5 points more than 5 m apart fit in
        # a 20 m square, so 30 agents are refused at load.
        assert self._bootstrap_in_a_small_square(tmp_path, capsys, 30) == 2

    def test_agents_that_do_not_fit_the_square_exit_3(self, tmp_path, capsys):
        # 27 agents pass the packing bound, but the sampler finds no room for
        # them: it says which settings, instead of returning an overlapping mission.
        assert self._bootstrap_in_a_small_square(tmp_path, capsys, 27) == 3

    def test_position_bound_beyond_the_arena_exits_2(self, tmp_path, capsys):
        # The SINR maps cover only the arena; missions must stay inside it.
        cfg_path = tiny_config(tmp_path, **{"world.position_bound": 60.0,
                                            "world.arena_half_extent": 20.0})
        rc = main(["covmap", "--config", str(cfg_path), "--out", str(tmp_path / "cov.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "world.position_bound" in err and "world.arena_half_extent" in err
        assert not (tmp_path / "cov.csv").exists()

    def test_training_jammer_at_uav_altitude_exits_2(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, **{"training.jammer_height": 60.0})
        rc = main(["bootstrap", "--config", str(cfg_path), "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "training.jammer_height" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("edit, command, flags, message", [
        (lambda raw: {k: v for k, v in raw.items() if k != "environment"},
         "covmap", ["--preset", "center-1w"], "config.environment: missing"),
        (lambda raw: {**raw, "environment": []},
         "covmap", ["--preset", "center-1w"], "environment: expected an object"),
        (lambda raw: [raw], "covmap", ["--seed", "5"], "config: expected an object"),
        (lambda raw: {**raw, "training": []},
         "train", ["--episodes", "5"], "training: expected an object"),
        (lambda raw: {**raw, "training": []},
         "bootstrap", ["--episodes", "5"], "training: expected an object"),
    ], ids=["preset-without-environment", "preset-on-environment-list", "seed-on-list",
            "episodes-on-training-list", "bootstrap-episodes-on-training-list"])
    def test_override_flag_on_a_malformed_config_exits_2(self, tmp_path, capsys, edit, command,
                                                         flags, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(json.loads(json.dumps(cfgmod.DEFAULT_CONFIG)))))
        outputs = (["--bootstrap", str(tmp_path / "b.csv"), "--out-dir", str(tmp_path / "run")]
                   if command == "train" else ["--out", str(tmp_path / "c.csv")])
        # The same message with the flag as without it.
        for extra in ([], flags):
            assert main([command, "--config", str(path), *extra, *outputs]) == 2
            assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("block, field, value", [
        ("stations[0]", "height", [1]),
        ("stations[0]", "height", True),
        ("stations[0]", "tilt_deg", "10"),
        ("station_defaults", "tx_power", None),
        ("station_defaults", "beamwidth_deg", "15"),
        ("station_defaults", "max_atten_db", False),
        ("jammer", "height", [3]),
        ("jammer", "tx_power", "1"),
        ("jammer", "active", "no"),
        ("jammer", "active", 1),
    ])
    def test_wrong_station_or_jammer_field_exits_2(self, tmp_path, capsys, block, field, value):
        raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
        env = raw["environment"]
        env["jammer"] = {"position": [0.0, 0.0], "height": 18.0, "tx_power": 1.0}
        target = env["stations"][0] if block == "stations[0]" else env[block]
        target[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        rc = main(["covmap", "--config", str(path), "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert f"environment.{block}.{field}" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


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

    @pytest.mark.parametrize("resolution", ["nan", "inf"])
    def test_non_finite_resolution_is_validation_error(self, tmp_path, capsys, resolution):
        cfg_path = tiny_config(tmp_path)
        assert main(["covmap", "--config", str(cfg_path), "--out",
                     str(tmp_path / "x.csv"), "--resolution", resolution]) == 2
        assert "--resolution must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        outs = [tmp_path / f"c{i}.csv" for i in range(2)]
        for out in outs:
            main(["covmap", "--config", str(cfg_path), "--out", str(out)])
        assert digest(outs[0]) == digest(outs[1])

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "cov.csv"
        assert main(["covmap", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = digest(out)
        monkeypatch.setattr(radio, "write_coverage_csv", failing_writer)
        assert main(["covmap", "--config", str(cfg_path), "--out", str(out),
                     "--resolution", "4"]) == 3
        assert digest(out) == before
        assert sorted(p.name for p in tmp_path.glob("cov*")) == ["cov.csv"]


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

    def test_episodes_flag_writes_the_bytes_of_the_config_entry(self, tmp_path):
        (tmp_path / "flag").mkdir()
        (tmp_path / "file").mkdir()
        flagged = tiny_config(tmp_path / "flag", **{"training.bootstrap_episodes": 5})
        in_file = tiny_config(tmp_path / "file", **{"training.bootstrap_episodes": 3})
        assert main(["bootstrap", "--config", str(flagged), "--episodes", "3",
                     "--out", str(tmp_path / "flag.csv")]) == 0
        assert main(["bootstrap", "--config", str(in_file),
                     "--out", str(tmp_path / "file.csv")]) == 0
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        outs = [tmp_path / f"b{i}.csv" for i in range(2)]
        for out in outs:
            assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert digest(outs[0]) == digest(outs[1])

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        from uavnav import orca

        cfg_path = tiny_config(tmp_path)
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = digest(out)

        def half_written(pairs, path, *args, **kwargs):
            Path(path).write_text("# bootstrap-pairs v1 features=34 count=1\n")
            raise OSError("disk full")

        monkeypatch.setattr(orca, "write_bootstrap_csv", half_written)
        assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert digest(out) == before
        assert sorted(p.name for p in tmp_path.glob("boot*")) == ["boot.csv"]


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
        assert set(state["sha256"]) == {"value-model.json", "curve.csv", "replay.npz", "adam.npz"}
        assert state["sha256"]["adam.npz"] == digest(out_dir / "adam.npz") and "rng" in state

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

    def test_resume_with_fewer_episodes_than_the_checkpoint_is_validation_error(
            self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        boot = self._bootstrap(tmp_path, cfg_path)
        out_dir = tmp_path / "run"
        argv = ["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                "--out-dir", str(out_dir)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--episodes", "2", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "episode 4" in err and "2 episodes" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def _interrupted_run(self, tmp_path):
        """A 2-episode run to resume from, and the argv that resumes it to 4."""
        cfg_path = tiny_config(tmp_path)
        boot = self._bootstrap(tmp_path, cfg_path)
        argv = ["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                "--out-dir", str(tmp_path / "run"), "--episodes", "2"]
        assert main(argv) == 0
        return tmp_path / "run", [*argv[:-1], "4", "--resume"]

    def test_resume_without_optimizer_state_is_validation_error(self, tmp_path):
        out_dir, resume = self._interrupted_run(tmp_path)
        (out_dir / "adam.npz").unlink()
        assert main(resume) == 2

    @pytest.mark.parametrize("name", ["adam.npz", "replay.npz", "adam.npz of per-layer moments"])
    def test_resume_with_unreadable_checkpoint_archive_is_validation_error(
            self, tmp_path, capsys, name):
        out_dir, resume = self._interrupted_run(tmp_path)
        path = out_dir / name.split()[0]
        if name.endswith("moments"):  # the layout adam.npz had before it held m and v whole
            from uavnav import neuro

            net = neuro.load_model(out_dir / "value-model.json")
            np.savez(path, step=2, **{f"{k}{i}": np.zeros_like(a) for k, arrays in (
                ("m_w", net.weights), ("v_w", net.weights), ("m_b", net.biases),
                ("v_b", net.biases)) for i, a in enumerate(arrays)})
        else:
            path.write_bytes(b"not an npz archive")
        rerecord(path)
        capsys.readouterr()
        assert main(resume) == 2
        assert path.name in capsys.readouterr().err

    def test_resume_with_altered_replay_is_validation_error(self, tmp_path):
        out_dir, resume = self._interrupted_run(tmp_path)
        with np.load(out_dir / "replay.npz") as data:
            feats, targets = data["features"], data["targets"].copy()
        targets[0] += 1.0
        np.savez(out_dir / "replay.npz", features=feats, targets=targets)
        assert main(resume) == 2

    @pytest.mark.parametrize("edit", ["nan feature", "short targets", "flat features"])
    def test_resume_with_malformed_replay_names_it(self, tmp_path, capsys, edit):
        out_dir, resume = self._interrupted_run(tmp_path)
        with np.load(out_dir / "replay.npz") as data:
            feats, targets = data["features"].copy(), data["targets"]
        if edit == "nan feature":
            feats[1, 2] = np.nan
        elif edit == "short targets":
            targets = targets[:-1]
        else:
            feats = feats.ravel()
        np.savez(out_dir / "replay.npz", features=feats, targets=targets)
        rerecord(out_dir / "replay.npz")
        capsys.readouterr()
        assert main(resume) == 2
        assert "replay.npz" in capsys.readouterr().err

    def test_resume_under_another_config_is_validation_error(self, tmp_path, capsys):
        out_dir, resume = self._interrupted_run(tmp_path)
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert main([*resume, "--seed", "6"]) == 2
        assert "train-state.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("key, edit", [
        ("episode", lambda s: s.pop("episode")),
        ("episode", lambda s: s.update(episode="3")),
        ("episode", lambda s: s.update(episode=-1)),
        ("config_digest", lambda s: s.pop("config_digest")),
        ("sha256", lambda s: s.pop("sha256")),
        ("sha256", lambda s: s["sha256"].update({"adam.npz": 7})),
        ("rng.jammer", lambda s: s["rng"].pop("jammer")),
        ("rng.scenario", lambda s: s["rng"].update(scenario="seed")),
        ("rng.episode", lambda s: s["rng"]["episode"].update(bit_generator="MT19937")),
        ("rng.jammer", lambda s: s.pop("rng")),
        ("jammer", lambda s: s.pop("jammer")),
        ("jammer", lambda s: s.update(jammer=[0.0, 0.0])),
        ("jammer.position", lambda s: s["jammer"].update(position=[1.0])),
        ("jammer.height", lambda s: s["jammer"].update(height="18")),
        ("jammer.tx_power", lambda s: s["jammer"].pop("tx_power")),
    ])
    def test_resume_with_bad_state_field_names_it(self, tmp_path, capsys, key, edit):
        out_dir, resume = self._interrupted_run(tmp_path)
        state_path = out_dir / "train-state.json"
        state = json.loads(state_path.read_text())
        assert state["jammer"] is not None
        edit(state)
        state_path.write_text(json.dumps(state))
        capsys.readouterr()
        assert main(resume) == 2
        assert f"train-state.json.{key}:" in capsys.readouterr().err

    def test_resume_with_a_jammer_above_the_uavs_exits_2(self, tmp_path, capsys):
        # A well-formed jammer that the environment cannot hold is a bad
        # checkpoint, not a runtime abort part-way into training.
        out_dir, resume = self._interrupted_run(tmp_path)
        state_path = out_dir / "train-state.json"
        state = json.loads(state_path.read_text())
        state["jammer"]["height"] = 60.0  # the config's uav_altitude is 50
        state_path.write_text(json.dumps(state))
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert main(resume) == 2
        err = capsys.readouterr().err
        assert "train-state.json.jammer:" in err and "uav_altitude" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

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

    def test_malformed_measurement_file_errors(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        bad = tmp_path / "meas.csv"
        for row in ("0,1.0,2.0", "0,1,2,3,4,x,1"):  # wrong width; a non-number
            bad.write_text(f"# sinr-measurements v1 features=5 count=1\n{row}\n")
            rc = main(["trainmap", "--config", str(cfg_path), "--measurements", str(bad),
                       "--out", str(tmp_path / "m.json")])
            assert rc == 2
            assert f"{bad}:2:" in capsys.readouterr().err

    def test_measurement_log_width_and_levels_checked(self, tmp_path, capsys):
        from uavnav import sinrmap

        cfg_path = tiny_config(tmp_path)
        env = cfgmod.load(cfg_path).env
        log = sinrmap.sample_measurements(env, 40, np.random.default_rng(1),
                                          (-30.0, -30.0, 30.0, 30.0), k_n=1)
        meas = tmp_path / "meas.csv"
        out = tmp_path / "m.json"
        sinrmap.write_measurement_csv(log, meas)
        assert main(["trainmap", "--config", str(cfg_path), "--measurements", str(meas),
                     "--out", str(out)]) == 0
        assert sinrmap.load_map_model(out).env == env.without_jammer()

        stations_only = sinrmap.Measurements(log.features[:, :5], log.levels, log.timestamps)
        sinrmap.write_measurement_csv(stations_only, meas)
        assert main(["trainmap", "--config", str(cfg_path), "--measurements", str(meas),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(meas) in err and "5 * k_n + 2 = 7" in err

        far = log.features.copy()
        far[7, -2:] = (5000.0, 0.0)  # where the jammer-free level is 0
        sinrmap.write_measurement_csv(sinrmap.Measurements(far, log.levels, log.timestamps), meas)
        assert log.levels[7] > 0
        assert main(["trainmap", "--config", str(cfg_path), "--measurements", str(meas),
                     "--out", str(out)]) == 2
        assert f"{meas}:10: level lies above the jammer-free level" in capsys.readouterr().err

    def test_map_file_holds_no_jammer(self, tmp_path):
        cfg_path = tiny_config(tmp_path, jammer={"position": [5.0, 5.0], "tx_power": 0.5})
        out = tmp_path / "map.json"
        assert main(["trainmap", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cfgmod.load(cfg_path).env.jammer is not None
        data = json.loads(out.read_text())
        assert "jammer" not in data["environment"] and "jammer" not in out.read_text()

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

    def test_failed_write_keeps_the_previous_files(self, tmp_path, monkeypatch):
        from uavnav import sinrmap

        cfg_path = tiny_config(tmp_path)
        argv = ["trainmap", "--config", str(cfg_path), "--out", str(tmp_path / "map.json"),
                "--curve", str(tmp_path / "acc.csv")]
        assert main(argv) == 0
        before = {p.name: digest(p) for p in tmp_path.glob("*")}
        # Another seed: every output would differ, the curve (written first) included.
        monkeypatch.setattr(sinrmap, "save_map_model", failing_writer)
        assert main(argv + ["--seed", "778"]) == 3
        assert {p.name: digest(p) for p in tmp_path.glob("*")} == before


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

    def test_failed_write_keeps_the_previous_files(self, artifacts, tmp_path, monkeypatch):
        from uavnav import nav

        cfg_path, value, map_path = artifacts
        out, tdir = tmp_path / "eval", tmp_path / "eval" / "trajs"
        out.mkdir()
        argv = ["eval", "--config", str(cfg_path), "--value-model", str(value),
                "--map-model", str(map_path), "--out", str(out / "report.json"),
                "--trajectories", str(tdir)]
        assert main(argv) == 0
        before = {str(p): digest(p) for p in out.rglob("*.*")}
        assert len(before) == 4
        # One trial: every output would differ, the trajectories (written first) included.
        monkeypatch.setattr(nav, "write_report_json", failing_writer)
        assert main(argv + ["--trials", "1"]) == 3
        assert {str(p): digest(p) for p in out.rglob("*.*")} == before


class TestBadInputFiles:
    """An input file the readers cannot parse is a validation error (exit 2) naming it."""

    def _assert_rejected(self, argv, path, capsys):
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def _value_model(self, tmp_path, cfg_path):
        """An untrained value network of the right input size for cfg_path."""
        from uavnav import neuro, world

        j_n = cfgmod.load(cfg_path).world["j_n"]
        specs = neuro.dense_specs(world.frame_length(j_n), (4,), 1, "relu", "tanh")
        path = tmp_path / "value.json"
        neuro.save_model(neuro.init_network(specs, np.random.default_rng(0)), path)
        return path

    def test_bootstrap_row_of_wrong_width(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        boot = tmp_path / "boot.csv"
        boot.write_text("# bootstrap-pairs v1 features=3 count=1\n1.0,2.0,0.5\n")
        self._assert_rejected(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                               "--out-dir", str(tmp_path / "run")], boot, capsys)

    def test_bootstrap_set_of_another_j_n(self, tmp_path, capsys):
        (tmp_path / "j2").mkdir()
        boot, run = tmp_path / "boot.csv", tmp_path / "run"
        j_n_2 = tiny_config(tmp_path / "j2", **{"world.j_n": 2})
        assert main(["bootstrap", "--config", str(j_n_2), "--out", str(boot)]) == 0
        self._assert_rejected(["train", "--config", str(tiny_config(tmp_path)), "--bootstrap",
                               str(boot), "--out-dir", str(run)], boot, capsys)
        assert not run.exists()

    def test_bootstrap_header_without_feature_count(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        boot = tmp_path / "boot.csv"
        boot.write_text("# bootstrap-pairs v1 count=2\n1.0,2.0,0.5\n1.0,0.5\n")
        self._assert_rejected(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                               "--out-dir", str(tmp_path / "run")], boot, capsys)

    @pytest.mark.parametrize("cut", [
        lambda text: "".join(text.splitlines(keepends=True)[:text.count("\n") // 2]),
        lambda text: text[:-3],  # inside the last row's value
    ], ids=["at-a-row-boundary", "inside-the-last-row"])
    def test_cut_bootstrap_set(self, tmp_path, capsys, cut):
        cfg_path = tiny_config(tmp_path)
        boot = tmp_path / "boot.csv"
        assert main(["bootstrap", "--config", str(cfg_path), "--out", str(boot)]) == 0
        boot.write_text(cut(boot.read_text()))
        self._assert_rejected(["train", "--config", str(cfg_path), "--bootstrap", str(boot),
                               "--out-dir", str(tmp_path / "run")], boot, capsys)

    def test_value_model_that_does_not_parse(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        value = tmp_path / "value.json"
        value.write_text('{"format": ')
        self._assert_rejected(["eval", "--config", str(cfg_path), "--value-model", str(value),
                               "--out", str(tmp_path / "r.json")], value, capsys)

    def test_map_model_without_network(self, tmp_path, capsys):
        from uavnav import sinrmap

        cfg_path = tiny_config(tmp_path)
        value = self._value_model(tmp_path, cfg_path)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"format": sinrmap.MAP_FORMAT, "k_n": 1}))
        self._assert_rejected(["eval", "--config", str(cfg_path), "--value-model", str(value),
                               "--map-model", str(map_path), "--out", str(tmp_path / "r.json")],
                              map_path, capsys)

    def test_map_model_of_format_v1(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        map_path = tmp_path / "map.json"
        assert main(["trainmap", "--config", str(cfg_path), "--out", str(map_path)]) == 0
        data = json.loads(map_path.read_text())
        del data["environment"]
        map_path.write_text(json.dumps(dict(data, format="sinrmap-v1")))
        self._assert_rejected(["eval", "--config", str(cfg_path), "--value-model",
                               str(self._value_model(tmp_path, cfg_path)),
                               "--map-model", str(map_path), "--out", str(tmp_path / "r.json")],
                              map_path, capsys)

    def test_map_model_of_another_environment(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        map_path = tmp_path / "map.json"
        assert main(["trainmap", "--config", str(cfg_path), "--out", str(map_path)]) == 0
        (tmp_path / "moved").mkdir()
        moved = tiny_config(tmp_path / "moved", **{"environment.noise_power": 2e-6})
        assert main(["eval", "--config", str(moved), "--value-model",
                     str(self._value_model(tmp_path, moved)), "--map-model", str(map_path),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert str(map_path) in err and "jammer-free environment" in err

    def test_repeated_evaluation_mode_rejected(self, tmp_path, capsys):
        """A mode listed twice would be flown twice into one trajectory file."""
        value = self._value_model(tmp_path, tiny_config(tmp_path))
        cfg_path = tiny_config(tmp_path, **{"evaluation.modes": ["perfect", "perfect"]})
        rc = main(["eval", "--config", str(cfg_path), "--value-model", str(value),
                   "--out", str(tmp_path / "r.json"), "--trajectories", str(tmp_path / "t")])
        assert rc == 2
        assert "evaluation.modes" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "t").exists()

    def test_zero_trials_rejected(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path, **{"evaluation.modes": ["perfect"]})
        rc = main(["eval", "--config", str(cfg_path), "--value-model",
                   str(self._value_model(tmp_path, cfg_path)), "--out", str(tmp_path / "r.json"),
                   "--trials", "0"])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err


class TestDefaults:
    def test_written_defaults_validate_and_round_trip(self, tmp_path):
        out = tmp_path / "defaults.json"
        assert main(["defaults", "--out", str(out)]) == 0
        cfg = cfgmod.load(out)
        assert cfg.digest == cfgmod.load(None).digest


# Per command: its arguments apart from --config, with {bad} in the place of
# the flag under test and fine paths for any other output.
OUTPUT_COMMANDS = {
    "bootstrap": (["bootstrap", "--out", "{bad}"], "--out"),
    "train": (["train", "--bootstrap", "boot.csv", "--out-dir", "{bad}"], "--out-dir"),
    "trainmap-out": (["trainmap", "--out", "{bad}", "--curve", "acc.csv"], "--out"),
    "trainmap-curve": (["trainmap", "--out", "map.json", "--curve", "{bad}"], "--curve"),
    "eval-out": (["eval", "--value-model", "value.json", "--out", "{bad}",
                  "--trajectories", "trajs"], "--out"),
    "eval-trajectories": (["eval", "--value-model", "value.json", "--out", "r.json",
                           "--trajectories", "{bad}"], "--trajectories"),
    "covmap": (["covmap", "--out", "{bad}"], "--out"),
    "defaults": (["defaults", "--out", "{bad}"], "--out"),
}
DIRECTORY_FLAGS = ("--out-dir", "--trajectories")


class TestOutputPaths:
    """A bad output path exits 2 naming its flag, before any work and without writing a file."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A directory holding a config, a bootstrap set, a value net and a file named afile."""
        from uavnav import neuro

        d = tmp_path_factory.mktemp("inputs")
        cfg = tiny_config(d, **{"evaluation.modes": ["outdated", "perfect"]})
        assert main(["bootstrap", "--config", str(cfg), "--out", str(d / "boot.csv")]) == 0
        net = neuro.init_network(neuro.dense_specs(34, (4,), 1, "relu", "tanh"),
                                 np.random.default_rng(0))
        neuro.save_model(net, d / "value.json")
        (d / "afile").write_text("not a directory\n")
        return d

    @pytest.fixture
    def work(self, monkeypatch):
        """Spies on every command's work; returns the names of the calls it saw."""
        from uavnav import sinrmap, world

        calls = []
        for owner, name in ((world, "rollout"), (valuetrain, "pretrain_value_net"),
                            (sinrmap, "retrain"), (radio, "coverage_grid")):
            inner = getattr(owner, name)

            def spy(*args, _name=name, _inner=inner, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        return calls

    @pytest.mark.parametrize("command,bad", [
        (command, bad) for command, (_, flag) in sorted(OUTPUT_COMMANDS.items())
        # A missing parent, a file for a parent, then a file for a directory or a directory
        # for a file.
        for bad in ("nodir/x", "afile/x", "afile" if flag in DIRECTORY_FLAGS else ".")
    ])
    def test_bad_output_path_exits_2_before_any_work(self, inputs, work, capsys, monkeypatch,
                                                     command, bad):
        args, flag = OUTPUT_COMMANDS[command]
        monkeypatch.chdir(inputs)

        def listing():
            return {p: p.is_file() and p.read_bytes() for p in inputs.rglob("*")}

        before = listing()
        argv = [a.replace("{bad}", bad) for a in args]
        if command != "defaults":
            argv[1:1] = ["--config", "config.json"]
        assert main(argv) == 2
        assert f"error: {flag} {bad}:" in capsys.readouterr().err
        assert work == []
        assert listing() == before  # no file or directory written
