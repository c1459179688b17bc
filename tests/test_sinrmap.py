import json
import math
from collections import deque

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from uavnav import neuro, radio, sinrmap
from uavnav.sinrmap import (
    MapTrainConfig,
    Measurement,
    MeasurementCloud,
    detect_change,
    evaluate_accuracy,
    featurize_many,
    init_map_model,
    predict_levels,
    retrain,
    sample_measurements,
)

from conftest import random_env, single_station_env


def jammed_env(jx=10.0, jy=0.0, power=50.0):
    """One strong station, one strong jammer: a single smooth hole to learn."""
    return single_station_env(
        tx_power=1e4, jammer=radio.Jammer(position=(jx, jy), tx_power=power)
    )


def reference_featurize(uav_position, stations, uav_altitude, k_n,
                        pad_distance=sinrmap.FAR_STATION):
    """Scalar, one-station-at-a-time re-implementation of featurize_many's row."""
    px, py = float(uav_position[0]), float(uav_position[1])
    with_d = sorted(
        ((math.hypot(s[0] - px, s[1] - py), s) for s in stations), key=lambda t: t[0]
    )[:k_n]
    out = []
    for d, s in with_d:
        rx, ry = s[0] - px, s[1] - py
        elev = math.pi / 2.0 if d == 0.0 else math.atan2(uav_altitude - s[2], d)
        azim = 0.0 if d == 0.0 else math.atan2(ry, rx)
        out.extend((rx, ry, d, elev, azim))
    for _ in range(k_n - len(with_d)):
        out.extend((0.0, 0.0, pad_distance, 0.0, 0.0))
    return np.array(out + [px, py])


def featurize(uav_position, stations, uav_altitude, k_n):
    """featurize_many's row for one position."""
    return featurize_many(np.array([uav_position], dtype=float), stations, uav_altitude, k_n)[0]


class TestFeaturize:
    def test_station_directly_below(self):
        f = featurize((5.0, 5.0), [(5.0, 5.0, 32.0)], 50.0, k_n=1)
        assert f.tolist() == [0.0, 0.0, 0.0, math.pi / 2, 0.0, 5.0, 5.0]

    def test_relative_station_trig(self):
        f = featurize((0.0, 0.0), [(30.0, 0.0, 32.0)], 50.0, k_n=1)
        assert f[0] == 30.0 and f[1] == 0.0
        assert f[2] == 30.0
        assert f[3] == pytest.approx(math.atan(18.0 / 30.0))
        assert f[4] == 0.0
        assert f[5:].tolist() == [0.0, 0.0]

    def test_padding(self):
        stations = [(10.0, 0.0, 32.0)] * 4
        f = featurize((0.0, 0.0), stations, 50.0, k_n=6)
        assert len(f) == 32
        assert f[5 * 4 + 2] == sinrmap.FAR_STATION
        assert f[5 * 5 + 2] == sinrmap.FAR_STATION

    def test_sorted_by_distance(self):
        stations = [(40.0, 0.0, 32.0), (5.0, 0.0, 32.0), (-20.0, 0.0, 32.0)]
        f = featurize((0.0, 0.0), stations, 50.0, k_n=3)
        assert f[2] == 5.0 and f[7] == 20.0 and f[12] == 40.0

    def test_translation_invariance(self, rng):
        for _ in range(30):
            stations = [tuple(rng.uniform(-50, 50, 2)) + (32.0,) for _ in range(5)]
            pos = rng.uniform(-40, 40, 2)
            shift = rng.uniform(-100, 100, 2)
            moved = [(s[0] + shift[0], s[1] + shift[1], s[2]) for s in stations]
            f1 = featurize(tuple(pos), stations, 50.0, k_n=4)
            f2 = featurize((pos[0] + shift[0], pos[1] + shift[1]), moved, 50.0, k_n=4)
            assert np.allclose(f1[:-2], f2[:-2], atol=1e-9)  # the station blocks
            assert np.allclose(f2[-2:] - f1[-2:], shift, atol=1e-9)  # the position

    def test_vectorized_matches_scalar(self, rng):
        stations = [tuple(rng.uniform(-50, 50, 2)) + (float(rng.uniform(20, 40)),)
                    for _ in range(7)]
        pts = rng.uniform(-60, 60, (25, 2))
        pts[0] = stations[2][:2]  # a station directly below
        for k_n in (5, 9):  # nearest subset, and padding past the station count
            many = featurize_many(pts, stations, 50.0, k_n=k_n)
            for i, p in enumerate(pts):
                ref = reference_featurize(tuple(p), stations, 50.0, k_n=k_n)
                assert np.allclose(many[i], ref, rtol=0.0, atol=1e-9)

    def test_rejects_empty_stations(self):
        with pytest.raises(ValueError, match="no stations"):
            featurize_many(np.zeros((3, 2)), [], 50.0, 3)


class TestMeasurementCloud:
    def test_insert_and_capacity(self):
        cloud = MeasurementCloud(capacity=3)
        for i in range(5):
            cloud.record(Measurement(np.zeros(5), level=1, timestamp=i))
        assert len(cloud) == 3
        assert [m.timestamp for m in cloud.measurements()] == [2, 3, 4]

    def test_timestamps_stay_sorted_from_single_stream(self):
        cloud = MeasurementCloud(capacity=10)
        for i in [0, 1, 1, 2, 5, 9]:
            cloud.record(Measurement(np.zeros(5), level=0, timestamp=i))
        ts = [m.timestamp for m in cloud.measurements()]
        assert ts == sorted(ts)

    def test_purge_before(self):
        cloud = MeasurementCloud(capacity=10)
        for i in range(6):
            cloud.record(Measurement(np.zeros(5), level=0, timestamp=i))
        removed = cloud.purge_before(3)
        assert removed == 3
        assert [m.timestamp for m in cloud.measurements()] == [3, 4, 5]

    @settings(max_examples=150, deadline=None)
    @given(capacity=hst.integers(1, 10), seed=hst.integers(0, 2**32 - 1),
           steps=hst.lists(hst.tuples(hst.integers(0, 25), hst.booleans()), min_size=1,
                           max_size=10))
    def test_matches_a_deque_through_wrap_around_and_purges(self, capacity, seed, steps):
        rng = np.random.default_rng(seed)
        cloud, ref, stamp = MeasurementCloud(capacity), deque(maxlen=capacity), 0
        for n, purge in steps:
            batch = sinrmap.Measurements(rng.normal(size=(n, 3)), rng.integers(0, 3, n),
                                         np.arange(stamp, stamp + n))
            stamp += n
            if n < 4:
                for m in batch:
                    cloud.record(m)
            else:
                cloud.record(batch)
            ref.extend(batch)
            if purge:
                cut = int(rng.integers(stamp - capacity - 2, stamp + 2))
                kept = [m for m in ref if m.timestamp >= cut]
                assert cloud.purge_before(cut) == len(ref) - len(kept)
                ref = deque(kept, maxlen=capacity)
            got = list(cloud.measurements())
            assert len(cloud) == len(got) == len(ref)
            for a, b in zip(got, ref):
                assert (a.features.tobytes(), a.level, a.timestamp) == (
                    b.features.tobytes(), b.level, b.timestamp)

    def test_measurements_are_a_copy(self):
        cloud = MeasurementCloud(capacity=3)
        for i in range(3):
            cloud.record(Measurement(np.full(5, float(i)), level=1, timestamp=i))
        held = cloud.measurements()
        for i in range(3, 6):
            cloud.record(Measurement(np.full(5, float(i)), level=2, timestamp=i))
        assert held.features[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert held.levels.tolist() == [1, 1, 1] and held.timestamps.tolist() == [0, 1, 2]
        assert cloud.measurements().timestamps.tolist() == [3, 4, 5]

    def test_rejects_bad_level(self):
        cloud = MeasurementCloud(capacity=3)
        with pytest.raises(ValueError):
            cloud.record(Measurement(np.zeros(5), level=3, timestamp=0))
        with pytest.raises(ValueError):
            cloud.record(Measurement(np.array([0.0, np.nan, 0.0, 0.0, 0.0]), level=1, timestamp=0))
        with pytest.raises(ValueError, match="row 1"):
            sinrmap.Measurements(np.zeros((2, 5)), [1, 3], [0, 1])
        assert len(cloud) == 0


FAR = (1000.0, 0.0)  # far outside the single station's coverage


class TestPredict:
    def _const_model(self, value):
        """A map over single_station_env() whose network predicts the drop `value` everywhere."""
        specs = neuro.dense_specs(5, (2,), 1, "relu", "identity")
        net = neuro.NetworkParams(
            specs=specs, weights=[np.zeros((5, 2)), np.zeros((2, 1))],
            biases=[np.zeros(2), np.array([value])],
            standardizer=neuro.Standardizer.identity(5),
        )
        return sinrmap.MapModel(network=net, k_n=1, env=single_station_env())

    def test_rounding_and_clamping(self):
        def level(value, position=(0.0, 0.0)):
            row = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, *position]])
            (got,) = predict_levels(self._const_model(value), row)
            return got

        priors = radio.levels(single_station_env(), np.array([[0.0, 0.0], FAR]))
        assert priors.tolist() == [2, 0]
        # level = prior - clip(rint(drop), 0, prior), with prior 2 at the origin
        assert level(1.4) == 1
        assert level(-0.7) == 2
        assert level(2.5) == 0
        assert level(7.3) == 0
        # documented round-half-to-even at the midpoints
        assert level(1.5) == 0
        assert level(0.5) == 2
        # prior 0: no drop lowers it further, none raises it
        assert level(1.4, FAR) == level(-0.7, FAR) == level(7.3, FAR) == 0

    def test_never_above_the_prior(self, rng):
        env = random_env(rng, n_stations=4)
        model = init_map_model(env, 3, rng, hidden=(8,))
        pts = rng.uniform(-80, 80, (300, 2))
        feats = featurize_many(pts, sinrmap.station_triples(env), env.uav_altitude, 3)
        truth_off = radio.quantize_many(radio.sinr_many(env.without_jammer(), pts), env)
        for scale in (0.0, 1.0, 100.0):  # exact prior, and drops of every sign and size
            model.network.flat[:] = rng.normal(size=model.network.flat.shape) * scale
            got = predict_levels(model, feats)
            assert (got >= 0).all() and (got <= truth_off).all()
            if scale == 0.0:
                assert got.tolist() == truth_off.tolist()

    def test_map_model_needs_a_jammer_free_environment(self, rng):
        model = init_map_model(jammed_env(), 1, rng)
        assert model.env.jammer is None
        with pytest.raises(ValueError, match="jammer-free"):
            sinrmap.MapModel(model.network, 1, jammed_env())

    def test_levels_always_valid(self, rng):
        model = init_map_model(single_station_env(), 2, rng)
        feats = rng.normal(size=(50, 12)) * 100
        assert set(predict_levels(model, feats)) <= {0, 1, 2}


class TestAccuracy:
    def _measurements(self, labels):
        """Measurements at the origin, where the prior is 2."""
        return sinrmap.Measurements(np.zeros((len(labels), 7)), labels, np.arange(len(labels)))

    def test_all_correct_and_half(self):
        model = TestPredict()._const_model(2.0)  # a drop of 2 below the prior: level 0
        ms = self._measurements([0, 0, 0, 0])
        assert evaluate_accuracy(model, ms) == 1.0
        ms = self._measurements([0, 0, 1, 2])
        assert evaluate_accuracy(model, ms) == 0.5

    def test_constant_predictor_matches_histogram(self, rng):
        labels = list(rng.integers(0, 3, 40))
        model = TestPredict()._const_model(2.0)
        expected = labels.count(0) / 40
        assert evaluate_accuracy(model, self._measurements(labels)) == pytest.approx(expected)

    def test_permutation_invariant(self, rng):
        labels = list(rng.integers(0, 3, 30))
        model = TestPredict()._const_model(1.0)
        ms = self._measurements(labels)
        a = evaluate_accuracy(model, ms)
        perm = ms[rng.permutation(30)]
        assert evaluate_accuracy(model, perm) == a

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(TestPredict()._const_model(0.0), self._measurements([]))


class TestDetectChange:
    def test_small_drop_does_not_fire(self):
        assert not detect_change(0.94, 0.95, 0.10)

    def test_large_drop_fires(self):
        assert detect_change(0.60, 0.95, 0.10)

    def test_zero_baseline_never_fires(self):
        assert not detect_change(0.0, 0.0, 0.10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            detect_change(1.2, 0.5, 0.1)


class TestRetrain:
    def test_learns_fixed_analytic_map(self, rng):
        env = jammed_env()
        cloud = MeasurementCloud(5000)
        for m in sample_measurements(env, 5000, rng, (-40, -40, 40, 40), k_n=1):
            cloud.record(m)
        model = init_map_model(env, 1, rng, hidden=(16, 8))
        cfg = MapTrainConfig(epochs=40)
        model, curve = retrain(model, cloud, cfg, rng)
        assert curve[-1] >= 0.9

    def test_deterministic(self):
        env = jammed_env()
        results = []
        for _ in range(2):
            rng = np.random.default_rng(4)
            cloud = MeasurementCloud(800)
            for m in sample_measurements(env, 800, rng, (-40, -40, 40, 40), k_n=1):
                cloud.record(m)
            model = init_map_model(env, 1, rng, hidden=(8,))
            model, curve = retrain(model, cloud, MapTrainConfig(epochs=5), rng)
            import json

            results.append((json.dumps(neuro.to_dict(model.network), sort_keys=True),
                            tuple(curve)))
        assert results[0] == results[1]

    def test_matches_one_train_call_per_epoch(self):
        """retrain equals, bit for bit, a loop of one-epoch train_epochs calls."""

        def retrain_epoch_by_epoch(model, cloud, config, rng):
            data = cloud.measurements()
            feats = np.stack([m.features for m in data])
            labels = np.array([m.level for m in data])
            # The network reads the station blocks and learns the drop below the
            # jammer-free level at each row's position (its last two features).
            stations = feats[:, :-2]
            prior = radio.quantize_many(radio.sinr_many(model.env, feats[:, -2:]), model.env)
            drops = (prior - labels).astype(float)
            order = rng.permutation(len(data))
            n_hold = int(len(data) * config.holdout_fraction)
            hold_idx, train_idx = order[:n_hold], order[n_hold:]
            standardizer = neuro.fit_standardizer(stations[train_idx])
            new_model = sinrmap.MapModel(
                network=neuro.init_network(model.network.specs, rng, standardizer),
                k_n=model.k_n, env=model.env,
            )
            adam = neuro.AdamState.for_params(new_model.network)
            epoch_cfg = neuro.TrainConfig(
                learning_rate=config.learning_rate, batch_size=config.batch_size,
                l2_coefficient=config.l2, epochs=1,
            )
            curve = []
            for _ in range(config.epochs):
                neuro.train_epochs(new_model.network, stations[train_idx], drops[train_idx],
                                   epoch_cfg, rng, adam)
                hits = predict_levels(new_model, feats[hold_idx]) == labels[hold_idx]
                curve.append(float(np.mean(hits)))
            return new_model, curve

        env = jammed_env()
        cloud = MeasurementCloud(600)
        for m in sample_measurements(env, 600, np.random.default_rng(8), (-40, -40, 40, 40),
                                     k_n=2):
            cloud.record(m)
        cfg = MapTrainConfig(epochs=5, batch_size=64)
        model = init_map_model(env, 2, np.random.default_rng(9), hidden=(16, 8))
        rng_a, rng_b = np.random.default_rng(10), np.random.default_rng(10)
        got, got_curve = retrain(model, cloud, cfg, rng_a)
        want, want_curve = retrain_epoch_by_epoch(model, cloud, cfg, rng_b)
        assert got_curve == want_curve
        assert len(got_curve) == 5
        assert got.network.flat.tobytes() == want.network.flat.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_purge_and_retrain_recovers_new_regime(self, rng):
        old_env = jammed_env(jx=10.0)
        new_env = jammed_env(jx=-15.0, jy=8.0)
        cloud = MeasurementCloud(6000)
        for m in sample_measurements(old_env, 3000, rng, (-40, -40, 40, 40), k_n=1):
            cloud.record(m)
        model = init_map_model(old_env, 1, rng, hidden=(16, 8))
        cfg = MapTrainConfig(epochs=30)
        model, _ = retrain(model, cloud, cfg, rng)
        fresh = sample_measurements(new_env, 3000, rng, (-40, -40, 40, 40), k_n=1,
                                    timestamp_start=3000)
        acc_before = evaluate_accuracy(model, fresh)
        for m in fresh:
            cloud.record(m)
        model2, _ = retrain(model, cloud, cfg, rng, purge_before=3000)
        probe = sample_measurements(new_env, 1000, rng, (-40, -40, 40, 40), k_n=1,
                                    timestamp_start=9000)
        acc_after = evaluate_accuracy(model2, probe)
        assert acc_after > acc_before
        assert all(m.timestamp >= 3000 for m in cloud.measurements())

    def test_below_one_batch_still_trains(self, rng):
        env = jammed_env()
        cloud = MeasurementCloud(50)
        for m in sample_measurements(env, 50, rng, (-30, -30, 30, 30), k_n=1):
            cloud.record(m)
        model = init_map_model(env, 1, rng, hidden=(4,))
        model, curve = retrain(model, cloud, MapTrainConfig(epochs=2, batch_size=200), rng)
        assert len(curve) == 2

    def test_jammer_off_map_equals_the_truth(self, rng):
        """With the jammer off every drop is 0, so the fitted map is the truth."""
        env = random_env(rng, n_stations=4, with_jammer=False)
        cloud = MeasurementCloud(2000)
        cloud.record(sample_measurements(env, 2000, rng, (-60, -60, 60, 60), k_n=3))
        model, curve = retrain(init_map_model(env, 3, rng, hidden=(8,)), cloud,
                               MapTrainConfig(epochs=5), rng)
        assert curve == [1.0] * 5
        probe = sample_measurements(env, 5000, rng, (-90, -90, 90, 90), k_n=3)
        assert set(probe.levels.tolist()) == {0, 1, 2}
        assert predict_levels(model, probe.features).tolist() == probe.levels.tolist()

    def test_empty_cloud_rejected(self, rng):
        model = init_map_model(jammed_env(), 1, rng)
        with pytest.raises(ValueError):
            retrain(model, MeasurementCloud(5), MapTrainConfig(), rng)


class TestMeasurementCsv:
    def test_round_trip(self, rng, tmp_path):
        env = jammed_env()
        ms = sample_measurements(env, 20, rng, (-30, -30, 30, 30), k_n=2)
        path = tmp_path / "meas.csv"
        sinrmap.write_measurement_csv(ms, path, extra_comments=("digest=z",))
        back = sinrmap.read_measurement_csv(path)
        assert len(back) == 20
        for a, b in zip(ms, back):
            assert a.level == b.level and a.timestamp == b.timestamp
            assert (a.features == b.features).all()

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# sinr-measurements v1 features=5 count=1\n"
            "timestamp,f0,f1,f2,f3,f4,label\n"
            "0,1.0,2.0,3.0,4.0\n"
        )
        with pytest.raises(ValueError, match="bad.csv:3"):
            sinrmap.read_measurement_csv(path)
        path.write_text(
            "# sinr-measurements v1 features=2 count=2\n"
            "timestamp,f0,f1,label\n"
            "0,1.0,2.0,1\n"
            "1,1.0,2.0,5\n"
        )
        with pytest.raises(ValueError, match="bad.csv:4: level"):
            sinrmap.read_measurement_csv(path)


    def test_level_above_the_jammer_free_level_names_line(self, rng, tmp_path):
        env = jammed_env(power=1e6)
        ms = sample_measurements(env, 50, rng, (-30, -30, 30, 30), k_n=1)
        prior = radio.levels(env.without_jammer(), ms.features[:, -2:])
        assert (ms.levels <= prior).all() and (ms.levels < prior).any()
        path = tmp_path / "meas.csv"
        sinrmap.write_measurement_csv(ms, path)
        assert len(sinrmap.read_measurement_csv(path, k_n=1, env=env.without_jammer())) == 50
        raised = ms.levels.copy()
        i = int(np.flatnonzero(ms.levels < prior)[0])
        raised[i] = prior[i]  # consistent with the truth without the jammer only
        raised[i + 1:] = prior[i + 1:]
        sinrmap.write_measurement_csv(
            sinrmap.Measurements(ms.features, raised, ms.timestamps), path)
        with pytest.raises(ValueError, match=f"meas.csv:{i + 3}: level lies above"):
            sinrmap.read_measurement_csv(path, k_n=1, env=env)

    def test_width_checked_against_k_n(self, rng, tmp_path):
        ms = sample_measurements(jammed_env(), 5, rng, (-30, -30, 30, 30), k_n=2)
        path = tmp_path / "meas.csv"
        sinrmap.write_measurement_csv(ms, path)
        with pytest.raises(ValueError, match=r"feature length 12 does not match 5 \* k_n \+ 2 = 7"):
            sinrmap.read_measurement_csv(path, k_n=1)


class TestModelFile:
    def test_round_trip(self, rng, tmp_path):
        model = init_map_model(random_env(rng), 6, rng)
        path = tmp_path / "map.json"
        sinrmap.save_map_model(model, path)
        back = sinrmap.load_map_model(path)
        assert back.k_n == 6
        assert back.env == model.env
        x = rng.normal(size=(1, 32))
        assert predict_levels(back, x) == predict_levels(model, x)

    def test_stores_the_jammer_free_environment_only(self, rng, tmp_path):
        env = random_env(rng, n_stations=3, with_jammer=True)
        assert env.jammer is not None
        path = tmp_path / "map.json"
        sinrmap.save_map_model(init_map_model(env, 2, rng), path)
        data = json.loads(path.read_text())
        assert data["format"] == "sinrmap-v2"
        assert "jammer" not in path.read_text()
        assert sinrmap.load_map_model(path).env == env.without_jammer()

    def test_v1_file_rejected(self, rng, tmp_path):
        path = tmp_path / "map.json"
        sinrmap.save_map_model(init_map_model(jammed_env(), 1, rng), path)
        data = json.loads(path.read_text())
        del data["environment"]
        path.write_text(json.dumps(dict(data, format="sinrmap-v1")))
        with pytest.raises(ValueError, match="sinrmap-v1"):
            sinrmap.load_map_model(path)
