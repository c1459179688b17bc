"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale training artifacts are built once per session and shared by the
later criteria, so a full run takes roughly the training budget (~10-25 min).
Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
"""

import hashlib
import json
import math
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from uavnav import config as cfgmod
from uavnav import nav, neuro, orca, radio, sinrmap, valuetrain, world
from uavnav.cli import main

from conftest import make_station, random_env
from test_radio import brute_force_sinr

pytestmark = pytest.mark.slow


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def moving_average(values, window):
    out = np.convolve(values, np.ones(window) / window, mode="valid")
    return out


# ----------------------------------------------------------------- artifacts


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Bootstrap + full desk-scale training on the default config (3 agents)."""
    out = tmp_path_factory.mktemp("desk")
    raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
    raw["world"]["agents"] = 3
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(raw))
    t0 = time.monotonic()
    assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out / "boot.csv")]) == 0
    assert main(["train", "--config", str(cfg_path), "--bootstrap", str(out / "boot.csv"),
                 "--out-dir", str(out / "run")]) == 0
    elapsed = time.monotonic() - t0
    curve = valuetrain.read_curve_csv(out / "run" / "curve.csv")
    return {
        "dir": out,
        "config_path": cfg_path,
        "value_net": neuro.load_model(out / "run" / "value-model.json"),
        "curve": curve,
        "elapsed": elapsed,
        "config": cfgmod.load(cfg_path),
    }


@pytest.fixture(scope="session")
def preset_maps(desk_run):
    """SINR-map models trained per jammer preset via the synthetic pipeline."""
    out = desk_run["dir"]
    maps = {}
    for preset in ("center-1w", "southeast-1w", "none"):
        path = out / f"map-{preset}.json"
        assert main(["trainmap", "--config", str(desk_run["config_path"]),
                     "--preset", preset, "--out", str(path)]) == 0
        maps[preset] = sinrmap.load_map_model(path)
    return maps


def _recording_oracle(oracle, log):
    """oracle, logging every radio-map query position."""

    def recording(positions):
        log.append(np.asarray(positions, dtype=float).reshape(-1, 2))
        return oracle(positions)

    return recording


def perfect_fit_map(model, value_net, env, rules, missions, trials, seed, gamma,
                    rng, rounds=8):
    """Refine the map until it reproduces the ground truth at every queried
    position of the evaluation stream (the degenerate-equality construction:
    a learned source that coincides with the truth on the query set)."""
    truth = partial(radio.levels, env)
    triples = sinrmap.station_triples(env)
    extra_feats, extra_labels = None, None
    scenarios = nav.sample_scenarios(env, missions, trials, seed)
    for _ in range(rounds):
        log: list = []
        inner = sinrmap.learned_oracle(model)
        policy = nav.NavPolicy(value_net, _recording_oracle(inner, log), gamma)
        nav.run_evaluation(policy, env, rules, scenarios)
        pts = np.unique(np.vstack(log), axis=0)
        labels = np.asarray(truth(pts), dtype=int)
        feats = sinrmap.featurize_many(pts, triples, env.uav_altitude, model.k_n)
        preds = sinrmap.predict_levels(model, feats)
        if (preds == labels).all():
            return model, True
        if extra_feats is None:
            extra_feats, extra_labels = feats, labels.astype(float)
        else:
            extra_feats = np.vstack([extra_feats, feats])
            extra_labels = np.concatenate([extra_labels, labels.astype(float)])
        cfg = neuro.TrainConfig(learning_rate=1e-3, batch_size=200,
                                l2_coefficient=1e-7, epochs=40)
        sinrmap.fit_drops(model, extra_feats, extra_labels, cfg, rng)
    return model, False


# ----------------------------------------------------------------- criteria


class TestCriterion01RadioOracle:
    def test_sinr_matches_brute_force(self, rng):
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(20):
            env = random_env(rng, n_stations=int(rng.integers(2, 7)), with_jammer=True)
            pos = tuple(rng.uniform(-60, 60, 2))
            got = float(radio.sinr_many(env, pos)[0])
            want = brute_force_sinr(env, pos)
            worst = max(worst, abs(got - want) / abs(want))
        elapsed = time.monotonic() - t0
        report(
            1, worst <= 1e-12 and elapsed < 1.0,
            f"20 random configs, max rel err {worst:.2e} (<=1e-12), {elapsed:.3f}s (<1s)",
        )


class TestCriterion02AntennaProperties:
    def test_pattern_properties(self):
        boresight_tilt = math.degrees(math.atan2(32 - 50, 100.0))
        st_bore = make_station(tilt_deg=boresight_tilt, max_atten_db=30)
        boresight = radio.gbs_antenna_gain(100.0, st_bore, 50.0)

        st = make_station(height=32, tilt_deg=10, beamwidth_deg=15, max_atten_db=30)
        sweep = np.linspace(0.0, 2000.0, 1000)
        gains = np.array([radio.gbs_antenna_gain(float(d), st, 50.0) for d in sweep])
        cap_ok = np.isclose(gains.min(), 10 ** (-3.0)) and (gains >= 10 ** (-3.0) - 1e-15).all()

        uav = np.array([radio.uav_antenna_gain(float(d), 32.0, 50.0) for d in sweep])
        uav_ok = uav[0] == 1.0 and (np.diff(uav) < 0).all() and (uav > 0).all()

        ok = math.isclose(boresight, 1.0) and cap_ok and uav_ok
        report(
            2, ok,
            f"boresight={boresight}, cap floor={gains.min():.2e}=10^(-G_m/10), "
            f"uav gain monotone over 1000-point sweep",
        )


class TestCriterion03GradientCheck:
    def test_backward_matches_central_differences(self, rng):
        h = 1e-5
        worst = 0.0
        for hidden, out_act, n_in in (((64, 32, 16), "tanh", 34), ((32, 16, 8), "identity", 30)):
            specs = neuro.dense_specs(n_in, hidden, 1, "relu", out_act)
            params = neuro.init_network(specs, rng)
            params.standardizer = neuro.fit_standardizer(rng.normal(size=(50, n_in)))
            flat = [(li, idx) for li in range(len(params.weights))
                    for idx in np.ndindex(*params.weights[li].shape)]
            for _ in range(50):
                x = rng.normal(size=n_in)
                y = rng.normal(size=1)
                out, cache = neuro.forward_batch(params, x)
                gw, gb = neuro.backward_batch(params, cache, out - y, l2=1e-4)
                for li, idx in [flat[k] for k in rng.integers(0, len(flat), size=40)]:
                    orig = params.weights[li][idx]
                    params.weights[li][idx] = orig + h
                    up = _loss(params, x, y)
                    params.weights[li][idx] = orig - h
                    down = _loss(params, x, y)
                    params.weights[li][idx] = orig
                    numeric = (up - down) / (2 * h)
                    denom = max(abs(gw[li][idx]) + abs(numeric), 1e-6)
                    worst = max(worst, abs(gw[li][idx] - numeric) / denom)
        report(3, worst <= 1e-4,
               f"both architectures, 50 inputs each, max rel err {worst:.2e} (<=1e-4)")


def _loss(params, x, y, l2=1e-4):
    out, _ = neuro.forward_batch(params, x)
    return 0.5 * float(((out - y) ** 2).sum()) + 0.5 * l2 * sum(
        float((w**2).sum()) for w in params.weights
    )


class TestCriterion04AdamUnit:
    def test_three_scripted_steps(self):
        specs = (neuro.LayerSpec(1, 1, "identity"),)
        params = neuro.NetworkParams(
            specs=specs, weights=[np.array([[2.0]])], biases=[np.array([0.0])],
            standardizer=neuro.Standardizer.identity(1),
        )
        state = neuro.AdamState.for_params(params)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        w_ref, m, v = 2.0, 0.0, 0.0
        worst = 0.0
        for t in range(1, 4):
            g = 3.0 * w_ref  # gradient of 1.5 w^2
            neuro.adam_step(params, ([np.array([[g]])], [np.array([0.0])]), state, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            worst = max(worst, abs(params.weights[0][0, 0] - w_ref))
        report(4, worst <= 1e-12, f"three scripted steps, max drift {worst:.2e} (<=1e-12)")


class TestCriterion05OrcaSafety:
    def test_fifty_seeded_rollouts(self, strong_env):
        t0 = time.monotonic()
        rng = np.random.default_rng(50)
        collisions = 0
        runs = 0
        for k in range(50):
            if k % 2 == 0:
                gap = float(rng.uniform(14, 30))
                angle = float(rng.uniform(0, math.pi))
                dx, dy = gap / 2 * math.cos(angle), gap / 2 * math.sin(angle)
                scenario = world.ScenarioConfig(
                    starts=((-dx, -dy), (dx, dy)),
                    destinations=((dx, dy), (-dx, -dy)),
                    radii=(0.5, 0.5),
                    max_speeds=(float(rng.uniform(3, 6)),) * 2,
                )
                rules = world.StepRules(max_episode_steps=300)
            else:
                r = float(rng.uniform(10, 18))
                phase = float(rng.uniform(0, math.pi / 2))
                pts = [
                    (r * math.cos(phase + i * math.pi / 2), r * math.sin(phase + i * math.pi / 2))
                    for i in range(4)
                ]
                scenario = world.ScenarioConfig(
                    starts=tuple(pts),
                    destinations=tuple((-x, -y) for x, y in pts),
                    radii=(0.5,) * 4,
                    max_speeds=(float(rng.uniform(3, 6)),) * 4,
                )
                rules = world.StepRules(max_episode_steps=400)
            _, _, _, ep = orca.run_orca_episode(scenario, rules, strong_env, record_states=False)
            runs += 1
            if ep.any_collision or not ep.all_arrived:
                collisions += 1
        elapsed = time.monotonic() - t0
        report(
            5, collisions == 0 and elapsed < 10.0,
            f"{runs} swap/circle rollouts, {collisions} failures, {elapsed:.2f}s (<10s)",
        )


class TestCriterion06RewardConformance:
    def test_ten_thousand_random_cases(self, rng):
        t_s, margin = 10 ** (-0.3), 0.1
        env = radio.RadioEnvironment(stations=(make_station(),), sinr_threshold=t_s,
                                     margin=margin)
        checked = 0
        for _ in range(10000):
            t = int(rng.integers(0, 16))
            n_t = int(rng.integers(1, 6))
            sinr = float(rng.uniform(0, 1.2))
            r_i, r_j = (float(v) for v in rng.uniform(0.2, 1.0, 2))
            d = float(rng.uniform(0, r_i + r_j + 0.6))
            arrived = bool(rng.random() < 0.2)
            level = radio.quantize_many(sinr, env)
            gated = t % n_t == 0
            conn = float(world.transition_rewards(level, gated, 0.0, False, 0.0))
            if t % n_t != 0:
                assert conn == 0.0
            elif sinr < t_s:
                assert conn == -1.0
            elif sinr < t_s + margin:
                assert conn == -0.5
            else:
                assert conn == 0.0
            coll = float(world.collision_ramp(d - r_i - r_j))
            gap = d - r_i - r_j
            if gap <= 0:
                assert coll == -1.0
            elif gap <= 0.2:
                assert math.isclose(coll, -(1 - gap / 0.2), abs_tol=1e-12)
                eps = 1e-7
                assert abs(float(world.collision_ramp(d + eps - r_i - r_j)) - coll) < 1e-5
            else:
                assert coll == 0.0
            total = float(world.transition_rewards(level, gated, coll, arrived, -0.05))
            arrival = total - float(world.transition_rewards(level, gated, coll, False, -0.05))
            assert total == pytest.approx(conn + coll + arrival + -0.05)
            assert conn in (-1.0, -0.5, 0.0)
            assert arrival == pytest.approx(2.0 if arrived else 0.0, abs=1e-12)
            checked += 1
        report(6, checked == 10000, f"{checked} random reward cases conform to the bands")


class TestCriterion07SinrMapLearning:
    def test_learn_detect_retrain(self):
        t0 = time.monotonic()
        cfg_a = cfgmod.load(None, preset="center-1w")
        cfg_b = cfgmod.load(None, preset="southeast-1w")
        m = cfg_a.mapping
        rng = np.random.default_rng(cfg_a.seed)
        cloud = sinrmap.MeasurementCloud(m["cloud_capacity"])
        for meas in sinrmap.sample_measurements(
            cfg_a.env, 20000, rng, cfg_a.arena_bounds(), m["k_n"]
        ):
            cloud.record(meas)
        model = sinrmap.init_map_model(cfg_a.env, m["k_n"], rng, tuple(m["hidden"]))
        model, curve = sinrmap.retrain(model, cloud, cfg_a.map_train_config(), rng)
        first_acc = curve[-1]

        # Jammer moves; within one check cadence the accuracy drop must fire.
        fresh = sinrmap.sample_measurements(
            cfg_b.env, m["check_every"], rng, cfg_a.arena_bounds(), m["k_n"],
            timestamp_start=20000,
        )
        acc_now = sinrmap.evaluate_accuracy(model, fresh)
        fired = sinrmap.detect_change(acc_now, first_acc, m["drop_threshold"])

        for x in fresh:
            cloud.record(x)
        for x in sinrmap.sample_measurements(
            cfg_b.env, 20000 - m["check_every"], rng, cfg_a.arena_bounds(), m["k_n"],
            timestamp_start=20200,
        ):
            cloud.record(x)
        model2, _ = sinrmap.retrain(
            model, cloud, cfg_a.map_train_config(), rng, purge_before=20000
        )
        probe = sinrmap.sample_measurements(
            cfg_b.env, 2000, rng, cfg_a.arena_bounds(), m["k_n"], timestamp_start=90000
        )
        post_acc = sinrmap.evaluate_accuracy(model2, probe)
        elapsed = time.monotonic() - t0
        ok = first_acc >= 0.90 and fired and post_acc >= 0.90 and elapsed < 120.0
        report(
            7, ok,
            f"first acc {first_acc:.3f} (>=0.90), drop {first_acc - acc_now:.3f} fired={fired} "
            f"within one cadence, post-retrain acc {post_acc:.3f} (>=0.90), {elapsed:.0f}s (<2min)",
        )


class TestCriterion08DeskScaleTraining:
    def test_convergence_and_jammer_recovery(self, desk_run):
        curve = desk_run["curve"]
        rewards = np.array([p.mean_reward for p in curve])
        assert len(rewards) == 5000
        ma = moving_average(rewards, 100)
        rng_span = float(ma.max() - ma.min())
        last_decile = ma[-500:]
        spread = float(last_decile.max() - last_decile.min())
        converged = spread < 0.2 * rng_span

        # Jammer changes at episodes 2000 and 4000: look for dip then recovery.
        dips = []
        for change in (2000, 4000):
            c = change - 100  # moving-average index offset
            before = float(ma[c - 200 : c].mean())
            dip = float(ma[c : c + 400].min())
            after = float(ma[len(ma) - 500 :].mean() if change == 4000 else ma[c + 600 : c + 1200].mean())
            dips.append((before, dip, after))
        recovered = any(
            dip < before - 0.02 and after >= dip + 0.5 * (before - dip)
            for before, dip, after in dips
        )
        ok = converged and recovered and desk_run["elapsed"] < 1800.0
        report(
            8, ok,
            f"5000 episodes in {desk_run['elapsed']:.0f}s (<1800s); last-decile spread "
            f"{spread:.3f} < 20% of range {rng_span:.3f}: {converged}; dip/recover at a "
            f"jammer change: {recovered} {[(round(b,2), round(d,2), round(a,2)) for b,d,a in dips]}",
        )


class TestCriterion09TableOrdering:
    def test_mode_ordering_and_gaps(self, desk_run, preset_maps):
        cfg = desk_run["config"]
        value_net = desk_run["value_net"]
        eval_seed = cfg.seed + cfg.evaluation["seed_offset"]
        # 200 trials x 4 agents = 800 agent-trials per cell
        missions = replace(cfg.missions(), n_agents=4)
        lines = []
        all_ok = True
        for preset in ("center-1w", "southeast-1w"):
            env = cfgmod.load(desk_run["config_path"], preset=preset).env
            reports = nav.compare_modes(
                value_net, preset_maps[preset], env, cfg.step_rules(eval_mode=True), missions,
                trials=200, seed=eval_seed, gamma=cfg.training["gamma"],
            )
            s = {m: reports[m].success_rate for m in nav.MODES}
            d = {m: reports[m].disconnection_rate for m in nav.MODES}
            c = {m: reports[m].collision_rate for m in nav.MODES}
            ok = (
                s["perfect"] >= s["proposed"] > s["outdated"]
                and s["proposed"] - s["outdated"] >= 0.10
                and d["outdated"] > d["proposed"] >= d["perfect"]
                and all(v < 0.05 for v in c.values())
            )
            all_ok = all_ok and ok
            lines.append(
                f"{preset}: success {s['perfect']:.3f}/{s['proposed']:.3f}/{s['outdated']:.3f} "
                f"(perfect/proposed/outdated), disc {d['perfect']:.3f}/{d['proposed']:.3f}/"
                f"{d['outdated']:.3f}, coll max {max(c.values()):.3f}"
            )
        report(9, all_ok, "; ".join(lines))


class TestCriterion10JammerOffDegeneracy:
    def test_three_modes_identical(self, desk_run, preset_maps):
        # With the jammer inactive the outdated snapshot IS the current
        # environment; the learned source coincides once it reproduces the
        # truth on the query stream (fit to accuracy 1.0 on the query set).
        cfg = desk_run["config"]
        env = cfg.env.without_jammer()
        eval_seed = cfg.seed + cfg.evaluation["seed_offset"]
        missions = cfg.missions()
        rules = cfg.step_rules(eval_mode=True)
        fitted, converged = perfect_fit_map(
            sinrmap.MapModel(replace(preset_maps["none"].network), preset_maps["none"].k_n,
                             preset_maps["none"].env),
            desk_run["value_net"], env, rules, missions, 100, eval_seed, cfg.training["gamma"],
            np.random.default_rng(cfg.seed),
        )
        reports = nav.compare_modes(
            desk_run["value_net"], fitted, env, rules, missions, trials=100, seed=eval_seed,
            gamma=cfg.training["gamma"],
        )
        dicts = {
            m: nav.report_to_dict({"x": reports[m]}, eval_seed)["modes"]["x"]
            for m in nav.MODES
        }
        identical = dicts["proposed"] == dicts["outdated"] == dicts["perfect"]
        report(
            10, identical,
            f"jammer off: learned map fit to the query set (converged={converged}); "
            f"identical reports across modes = {identical} "
            f"(success {reports['perfect'].success_rate:.3f})",
        )


class TestCriterion11Determinism:
    def test_commands_are_byte_identical(self, tmp_path):
        map_path = tmp_path / "map.json"
        assert main(["trainmap", "--preset", "center-1w", "--out", str(map_path)]) == 0
        digests = {"bootstrap": [], "train": [], "eval": []}
        for i in range(2):
            boot = tmp_path / f"boot{i}.csv"
            assert main(["bootstrap", "--episodes", "3", "--out", str(boot)]) == 0
            digests["bootstrap"].append(file_digest(boot))
            run = tmp_path / f"run{i}"
            assert main(["train", "--episodes", "3", "--bootstrap", str(boot),
                         "--out-dir", str(run)]) == 0
            digests["train"].append(
                file_digest(run / "value-model.json") + file_digest(run / "curve.csv")
                + file_digest(run / "replay.npz") + file_digest(run / "train-state.json")
            )
            rep = tmp_path / f"report{i}.json"
            assert main(["eval", "--preset", "center-1w",
                         "--value-model", str(run / "value-model.json"),
                         "--map-model", str(map_path),
                         "--trials", "2", "--out", str(rep)]) == 0
            digests["eval"].append(file_digest(rep))
        ok = all(d[0] == d[1] for d in digests.values())
        report(11, ok, "bootstrap/train/eval reruns byte-identical: "
               + ", ".join(f"{k}={v[0] == v[1]}" for k, v in digests.items()))
