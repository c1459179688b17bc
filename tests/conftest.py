from dataclasses import replace

import numpy as np
import pytest

from uavnav import radio, valuetrain


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_station(x=0.0, y=0.0, **kw):
    return radio.GroundStation(position=(x, y), **kw)


def single_station_env(tx_power=1.0, jammer=None, **kw):
    return radio.RadioEnvironment(
        stations=(make_station(tx_power=tx_power),), jammer=jammer, **kw
    )


@pytest.fixture
def strong_env():
    """One overwhelming station: level 2 everywhere in a small arena."""
    return single_station_env(tx_power=1e6)


def random_env(rng, n_stations=3, with_jammer=True, box=60.0):
    stations = tuple(
        radio.GroundStation(
            position=tuple(rng.uniform(-box, box, 2)),
            height=float(rng.uniform(10, 40)),
            tx_power=float(rng.uniform(0.1, 5.0)),
            tilt_deg=float(rng.uniform(-20, 20)),
            beamwidth_deg=float(rng.uniform(5, 40)),
            max_atten_db=float(rng.uniform(0, 40)),
        )
        for _ in range(n_stations)
    )
    jammer = None
    if with_jammer:
        jammer = radio.Jammer(
            position=tuple(rng.uniform(-box, box, 2)),
            height=float(rng.uniform(0, 20)),
            tx_power=float(rng.uniform(0, 3.0)),
            active=bool(rng.random() < 0.8),
        )
    return radio.RadioEnvironment(
        stations=stations,
        jammer=jammer,
        noise_power=float(rng.uniform(1e-8, 1e-5)),
        uav_altitude=float(rng.uniform(45, 80)),
        pathloss_exponent=float(rng.uniform(2.0, 3.5)),
    )


def draw_scenario(rng, n_agents, position_ok=None, **settings):
    """valuetrain.sample_scenario with MissionRules' defaults for the settings not given."""
    missions = replace(valuetrain.MissionRules(n_agents=n_agents), **settings)
    return valuetrain.sample_scenario(rng, position_ok=position_ok, **vars(missions))
