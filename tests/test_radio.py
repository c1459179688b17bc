import dataclasses
import math
from unittest import mock

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from uavnav import radio

from conftest import make_station, random_env, single_station_env


def brute_force_sinr(env, pos):
    """Independent re-implementation of the full SINR chain for oracle checks."""
    hv = env.uav_altitude
    alpha = env.pathloss_exponent
    powers = []
    for s in env.stations:
        d = math.dist(pos, s.position)
        angle = math.degrees(math.atan2(s.height - hv, d))
        mismatch = (angle - s.tilt_deg) / s.beamwidth_deg
        g_b = 10.0 ** (-min(1.2 * mismatch**2, s.max_atten_db / 10.0))
        g_v = (hv - s.height) / math.sqrt(d**2 + (hv - s.height) ** 2)
        loss = (d**2 + (s.height - hv) ** 2) ** (alpha / 2.0)
        powers.append(s.tx_power * g_b * g_v / loss)
    jam = 0.0
    j = env.jammer
    if j is not None and j.active:
        dj = math.dist(pos, j.position)
        dh = hv - j.height
        jam = j.tx_power * (dh / math.sqrt(dj**2 + dh**2)) / (dj**2 + dh**2) ** (alpha / 2.0)
    best = max(range(len(powers)), key=lambda k: powers[k])
    return powers[best] / (env.noise_power + jam + sum(powers) - powers[best])


def sinr_at(env, pos) -> float:
    """radio.sinr_many at one position."""
    return float(radio.sinr_many(env, pos)[0])


def serving_gbs(env, pos) -> int:
    """Index of the station with the largest received power at pos; ties go to the lowest."""
    return int(radio.received_powers(env, pos)[0].argmax())


class TestGbsAntennaGain:
    def test_boresight_gain_is_one(self):
        # Tilt set to the actual depression angle at d=100 makes the mismatch zero.
        tilt = math.degrees(math.atan2(32 - 50, 100.0))
        st = make_station(tilt_deg=tilt, beamwidth_deg=15, max_atten_db=30)
        assert radio.gbs_antenna_gain(100.0, st, 50.0) == pytest.approx(1.0, abs=1e-15)

    def test_paper_parameter_point(self):
        # Scalar oracle evaluated inline.
        st = make_station(height=32, tilt_deg=10, beamwidth_deg=15, max_atten_db=30)
        x = (math.degrees(math.atan2(32 - 50, 100.0)) - 10.0) / 15.0
        expected = 10.0 ** (-min(1.2 * x * x, 3.0))
        assert 1.2 * x * x < 3.0  # below the cap for this geometry
        assert radio.gbs_antenna_gain(100.0, st, 50.0) == pytest.approx(expected, rel=1e-15)

    def test_cap_saturation(self):
        st = make_station(height=32, tilt_deg=10, beamwidth_deg=15, max_atten_db=30)
        # Close range: huge mismatch, attenuation clamps at max_atten_db.
        assert radio.gbs_antenna_gain(1.0, st, 50.0) == pytest.approx(1e-3, rel=1e-15)

    def test_zero_distance_uses_vertical_convention(self):
        st = make_station(height=32, tilt_deg=10, beamwidth_deg=15, max_atten_db=30)
        x = (-90.0 - 10.0) / 15.0
        expected = 10.0 ** (-min(1.2 * x * x, 3.0))
        assert radio.gbs_antenna_gain(0.0, st, 50.0) == pytest.approx(expected, rel=1e-15)

    def test_range_and_rejection(self, rng):
        st = make_station(height=32)
        for d in rng.uniform(0, 500, 200):
            g = radio.gbs_antenna_gain(float(d), st, 50.0)
            assert 0.0 < g <= 1.0
        with pytest.raises(ValueError):
            radio.gbs_antenna_gain(-1.0, st, 50.0)


class TestUavAntennaGain:
    def test_directly_above(self):
        assert radio.uav_antenna_gain(0.0, 32.0, 50.0) == 1.0

    def test_45_degrees(self):
        assert radio.uav_antenna_gain(18.0, 32.0, 50.0) == pytest.approx(1 / math.sqrt(2))

    def test_monotone_decreasing_sweep(self):
        ds = np.linspace(0.0, 2000.0, 1000)
        gains = [radio.uav_antenna_gain(d, 32.0, 50.0) for d in ds]
        assert gains[0] == 1.0
        assert all(a > b for a, b in zip(gains, gains[1:]))
        assert all(0.0 < g <= 1.0 for g in gains)

    def test_rejects_station_above_uav(self):
        with pytest.raises(ValueError):
            radio.uav_antenna_gain(10.0, 50.0, 50.0)


class TestPathLoss:
    def test_vertical_only(self):
        assert radio.path_loss(0.0, 18.0, 2.0) == pytest.approx(324.0)

    def test_diagonal(self):
        assert radio.path_loss(18.0, 18.0, 2.0) == pytest.approx(648.0)

    def test_alpha_three(self):
        assert radio.path_loss(30.0, 18.0, 3.0) == pytest.approx((900 + 324) ** 1.5)

    def test_singular_origin(self):
        with pytest.raises(ValueError):
            radio.path_loss(0.0, 0.0, 2.0)

    def test_strictly_increasing_in_distance(self, rng):
        for _ in range(100):
            dh = rng.uniform(1, 50)
            alpha = rng.uniform(2, 4)
            d1, d2 = sorted(rng.uniform(0, 300, 2))
            if d1 == d2:
                continue
            assert radio.path_loss(d1, dh, alpha) < radio.path_loss(d2, dh, alpha)


class TestJammerInterference:
    POINTS = np.array([[0.0, 0.0], [12.0, -7.0], [50.0, 0.0]])

    def test_absent(self):
        env = single_station_env()
        assert radio.jammer_interference(env, self.POINTS) == 0.0

    def test_inactive_and_zero_power(self):
        env = single_station_env(jammer=radio.Jammer(position=(5, 5), tx_power=1.0, active=False))
        assert radio.jammer_interference(env, self.POINTS) == 0.0
        env = single_station_env(jammer=radio.Jammer(position=(5, 5), tx_power=0.0))
        assert radio.jammer_interference(env, self.POINTS) == 0.0

    def test_emits_only_when_active_with_power(self):
        assert radio.Jammer(position=(5, 5), tx_power=1.0).emits
        assert not radio.Jammer(position=(5, 5), tx_power=1.0, active=False).emits
        assert not radio.Jammer(position=(5, 5), tx_power=0.0).emits

    def test_overhead_value(self):
        env = single_station_env(jammer=radio.Jammer(position=(0, 0), height=0.0, tx_power=1.0))
        got = radio.jammer_interference(env, self.POINTS)
        assert got.shape == (3,)
        # Overhead: P / L with L = 50^2 and unit vertical gain.
        assert got[0] == pytest.approx(4e-4, rel=1e-12)
        # 45 degrees off at d = 50: gain 1/sqrt(2), L = 5000.
        assert got[2] == pytest.approx(1.0 / math.sqrt(2.0) / 5000.0, rel=1e-12)
        assert got[0] > got[1] > got[2]

    def test_rejects_jammer_at_or_above_uav(self):
        with pytest.raises(ValueError):
            single_station_env(jammer=radio.Jammer(position=(0, 0), height=50.0))


def component_power(station, env, pos):
    """Received power composed from the scalar antenna, gain and path-loss formulas."""
    d = math.dist(pos, station.position)
    return (
        station.tx_power
        * radio.gbs_antenna_gain(d, station, env.uav_altitude)
        * radio.uav_antenna_gain(d, station.height, env.uav_altitude)
        / radio.path_loss(d, station.height - env.uav_altitude, env.pathloss_exponent)
    )


class TestReceivedPower:
    def test_linearity_in_tx_power(self):
        env1 = single_station_env(tx_power=1.0)
        env2 = single_station_env(tx_power=2.0)
        p1 = radio.received_powers(env1, [(30, 10)])[0, 0]
        p2 = radio.received_powers(env2, [(30, 10)])[0, 0]
        assert p2 == pytest.approx(2 * p1, rel=1e-15)

    def test_composition_matches_component_oracle(self, rng):
        for _ in range(50):
            env = random_env(rng, n_stations=3, with_jammer=False)
            pts = rng.uniform(-80, 80, (4, 2))
            got = radio.received_powers(env, pts)
            assert got.shape == (4, 3)
            for row, pos in zip(got, pts):
                for p, st in zip(row, env.stations):
                    assert p == pytest.approx(component_power(st, env, tuple(pos)), rel=1e-12)


class TestServingGbs:
    def test_single_station(self):
        assert serving_gbs(single_station_env(), (12, 7)) == 0

    def test_tie_breaks_to_lowest_index(self):
        env = radio.RadioEnvironment(
            stations=(make_station(-10, 0), make_station(10, 0))
        )
        assert serving_gbs(env, (0.0, 5.0)) == 0

    def test_proximity_wins_for_identical_stations(self):
        env = radio.RadioEnvironment(
            stations=(make_station(-40, 0, max_atten_db=5.0), make_station(40, 0, max_atten_db=5.0))
        )
        assert serving_gbs(env, (38, 2)) == 1
        p0, p1 = radio.received_powers(env, (38, 2))[0]
        assert p1 > p0

    def test_invariant_under_uniform_power_scaling(self, rng):
        for _ in range(30):
            env = random_env(rng, n_stations=4, with_jammer=False)
            pos = tuple(rng.uniform(-60, 60, 2))
            scaled = radio.RadioEnvironment(
                stations=tuple(
                    radio.GroundStation(
                        position=s.position, height=s.height, tx_power=s.tx_power * 7.5,
                        tilt_deg=s.tilt_deg, beamwidth_deg=s.beamwidth_deg,
                        max_atten_db=s.max_atten_db,
                    )
                    for s in env.stations
                ),
                noise_power=env.noise_power,
                uav_altitude=env.uav_altitude,
                pathloss_exponent=env.pathloss_exponent,
            )
            assert serving_gbs(env, pos) == serving_gbs(scaled, pos)


class TestSinr:
    def test_single_station_no_jammer(self):
        env = single_station_env()
        pos = (25.0, -14.0)
        expected = component_power(env.stations[0], env, pos) / env.noise_power
        assert sinr_at(env, pos) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_jammer_power(self, rng):
        for _ in range(50):
            env = random_env(rng, with_jammer=True)
            if env.jammer is None or not env.jammer.active:
                continue
            pos = tuple(rng.uniform(-60, 60, 2))
            boosted = env.with_jammer(
                radio.Jammer(
                    position=env.jammer.position, height=env.jammer.height,
                    tx_power=env.jammer.tx_power * 10 + 1.0,
                )
            )
            assert sinr_at(boosted, pos) < sinr_at(env, pos) or math.isclose(
                sinr_at(boosted, pos), sinr_at(env, pos)
            )

    def test_huge_jammer_drives_sinr_to_zero(self):
        env = single_station_env(
            jammer=radio.Jammer(position=(0, 0), tx_power=1e12)
        )
        assert sinr_at(env, (10, 10)) < 1e-6

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(20):
            env = random_env(rng, n_stations=3, with_jammer=True)
            pos = tuple(rng.uniform(-60, 60, 2))
            assert sinr_at(env, pos) == pytest.approx(
                brute_force_sinr(env, pos), rel=1e-12
            )

    def test_vectorized_matches_scalar(self, rng):
        for _ in range(10):
            env = random_env(rng, n_stations=5, with_jammer=True)
            pts = rng.uniform(-60, 60, (40, 2))
            vec = radio.sinr_many(env, pts)
            for i, p in enumerate(pts):
                assert vec[i] == pytest.approx(brute_force_sinr(env, tuple(p)), rel=1e-12)


class TestLevels:
    """radio.levels is quantize_many(sinr_many(...)) row for row, whatever the
    batch's size or shape."""

    @staticmethod
    def env_of(rng, jammer="active"):
        env = random_env(rng, n_stations=int(rng.integers(1, 6)), with_jammer=False)
        if jammer == "absent":
            return env
        return env.with_jammer(radio.Jammer(
            position=tuple(rng.uniform(-60, 60, 2)), height=float(rng.uniform(0, 20)),
            tx_power=0.0 if jammer == "silent" else float(rng.uniform(0.1, 3.0)),
            active=jammer != "inactive",
        ))

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1),
           jammer=hst.sampled_from(["absent", "active", "inactive", "silent"]))
    def test_levels_are_quantized_kernel_rows(self, seed, jammer):
        rng = np.random.default_rng(seed)
        env = self.env_of(rng, jammer)
        pts = rng.uniform(-80, 80, (15, 2))
        many = radio.sinr_many(env, pts)
        want = radio.quantize_many(many, env)
        assert radio.levels(env, pts).tolist() == want.tolist()
        for p, level in zip(pts, want):
            got = radio.levels(env, p)
            assert got.shape == () and got == level
        if jammer in ("inactive", "silent"):
            assert (many == radio.sinr_many(env.without_jammer(), pts)).all()

    @settings(max_examples=30, deadline=None)
    @given(n=hst.sampled_from([0, 1, 2047, 2048, 2049, 5000]), seed=hst.integers(0, 2**32 - 1))
    def test_every_batch_size_in_blocks(self, n, seed):
        rng = np.random.default_rng(seed)
        env = self.env_of(rng)
        pts = rng.uniform(-80, 80, (n, 2))
        want = radio.quantize_many(radio.sinr_many(env, pts), env)
        with mock.patch.object(radio, "sinr_many", wraps=radio.sinr_many) as spy:
            got = radio.levels(env, pts)
        assert got.shape == (n,) and got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        # One call per block of LEVEL_BLOCK rows; a batch of one block, the
        # empty one included, is one call on the positions as given, not a copy.
        sizes = [len(c.args[1]) for c in spy.call_args_list]
        if n <= radio.LEVEL_BLOCK:
            assert sizes == [n] and spy.call_args.args[1].base is pts
        else:
            assert sizes == [min(radio.LEVEL_BLOCK, n - i) for i in range(0, n, radio.LEVEL_BLOCK)]

    @settings(max_examples=30, deadline=None)
    @given(a=hst.integers(0, 5), m=hst.sampled_from([1, 15, 409, 410, 1000]),
           seed=hst.integers(0, 2**32 - 1))
    def test_stacks_keep_their_shape(self, a, m, seed):
        rng = np.random.default_rng(seed)
        env = self.env_of(rng)
        pts = rng.uniform(-80, 80, (a, m, 2))
        want = radio.quantize_many(radio.sinr_many(env, pts.reshape(-1, 2)), env)
        got = radio.levels(env, pts)
        assert got.shape == (a, m)
        assert got.reshape(-1).tolist() == want.tolist()


class TestQuantize:
    def test_bands(self):
        env = single_station_env()
        t = env.sinr_threshold
        values = [0.0, t - 1e-12, t, t + env.margin - 1e-12, t + env.margin, 1e9]
        assert radio.quantize_many(values, env).tolist() == [0, 0, 1, 1, 2, 2]

    def test_monotone_step(self, rng):
        env = single_station_env()
        values = np.sort(rng.uniform(0, 2, 1000))
        levels = radio.quantize_many(values, env).tolist()
        assert all(a <= b for a, b in zip(levels, levels[1:]))
        assert set(levels) == {0, 1, 2}


class TestCoverageGrid:
    def test_full_coverage_single_strong_station(self):
        env = single_station_env(tx_power=1e6)
        grid = radio.coverage_grid(env, (-20, -20, 20, 20), 2.0)
        assert (grid.levels == 2).all()

    def test_jammer_creates_hole_at_its_cell(self):
        env = single_station_env(
            tx_power=1e6,
            jammer=radio.Jammer(position=(0.0, 0.0), tx_power=1e9),
        )
        grid = radio.coverage_grid(env, (-20, -20, 20, 20), 2.0)
        # The jammer at (0, 0) lies in row 10, col 10, the 2 m cell centered on (1, 1).
        row, col = 10, 10
        # Direct oracle: the SINR at the jammer cell center is below threshold.
        assert sinr_at(env, (1.0, 1.0)) < env.sinr_threshold
        assert grid.levels[row, col] == 0

    def test_jammer_never_improves_coverage(self, rng):
        env = random_env(rng, n_stations=4, with_jammer=False)
        jam = radio.Jammer(position=(0, 0), tx_power=2.0)
        g_off = radio.coverage_grid(env, (-40, -40, 40, 40), 4.0)
        g_on = radio.coverage_grid(env.with_jammer(jam), (-40, -40, 40, 40), 4.0)
        assert (g_on.levels <= g_off.levels).all()

    def test_inactive_jammer_equals_absent(self, rng):
        env = random_env(rng, n_stations=3, with_jammer=False)
        inactive = env.with_jammer(radio.Jammer(position=(3, 3), tx_power=5.0, active=False))
        g1 = radio.coverage_grid(env, (-30, -30, 30, 30), 3.0)
        g2 = radio.coverage_grid(inactive, (-30, -30, 30, 30), 3.0)
        assert (g1.levels == g2.levels).all()

    def test_grid_geometry_and_rejects(self):
        env = single_station_env()
        grid = radio.coverage_grid(env, (-10, -5, 10, 5), 1.0)
        assert (grid.nrows, grid.ncols) == (10, 20)
        # Cell (0, 0) is sampled at its center.
        corner = radio.quantize_many(radio.sinr_many(env, np.array([[-9.5, -4.5]])), env)
        assert grid.levels[0, 0] == corner[0]
        with pytest.raises(ValueError):
            radio.coverage_grid(env, (-10, -5, -10, 5), 1.0)
        with pytest.raises(ValueError):
            radio.coverage_grid(env, (-10, -5, 10, 5), 0.0)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf])
    def test_non_finite_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution must be a finite number > 0"):
            radio.coverage_grid(single_station_env(), (-10, -5, 10, 5), resolution)

    def test_csv_round_trip(self, tmp_path):
        env = single_station_env(jammer=radio.Jammer(position=(2, 2), tx_power=0.5))
        grid = radio.coverage_grid(env, (-12, -8, 12, 8), 2.0)
        path = tmp_path / "cov.csv"
        radio.write_coverage_csv(grid, path, extra_comments=("digest=abc",))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {grid.xmin!r},{grid.ymin!r},{grid.resolution!r},{grid.ncols},{grid.nrows}"
        back = radio.read_coverage_csv(path)
        assert back.xmin == grid.xmin and back.resolution == grid.resolution
        assert (back.levels == grid.levels).all()


class TestEnvironmentInvariants:
    def test_requires_stations(self):
        with pytest.raises(ValueError):
            radio.RadioEnvironment(stations=())

    def test_requires_uav_above_stations(self):
        with pytest.raises(ValueError):
            radio.RadioEnvironment(stations=(make_station(height=60.0),), uav_altitude=50.0)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            single_station_env(noise_power=0.0)
        with pytest.raises(ValueError):
            single_station_env(pathloss_exponent=1.5)
        with pytest.raises(ValueError):
            make_station(tx_power=0.0)

    def test_without_jammer_copies(self):
        env = single_station_env(jammer=radio.Jammer(position=(1, 1)))
        bare = env.without_jammer()
        assert bare.jammer is None and env.jammer is not None
        assert bare.stations == env.stations


class TestStationArrays:
    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1))
    def test_derived_environments_match_scalar_sinr(self, seed):
        # Arrays built for one environment must not leak into derived ones.
        rng = np.random.default_rng(seed)
        env = random_env(rng, with_jammer=False)
        jammer = radio.Jammer(position=tuple(rng.uniform(-60, 60, 2)),
                              height=float(rng.uniform(0, 20)),
                              tx_power=float(rng.uniform(0.1, 3.0)))
        other = random_env(rng, n_stations=int(rng.integers(1, 6)))
        pts = rng.uniform(-80, 80, (20, 2))
        radio.sinr_many(env, pts)
        for derived in (env.with_jammer(jammer), env.with_jammer(jammer).without_jammer(),
                        dataclasses.replace(env, stations=other.stations)):
            got = radio.sinr_many(derived, pts)
            for p, g in zip(pts, got):
                assert g == pytest.approx(brute_force_sinr(derived, tuple(p)), rel=1e-12)
