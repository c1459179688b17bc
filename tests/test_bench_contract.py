"""The names the benchmark patches in place must keep existing.

bench/spans.py wraps listed functions in every module namespace that holds
them, and bench/run.py times each navigation decision through
nav.navigate_step.  Renaming or deleting one of those names breaks a traced
benchmark run while the unit tests stay green; this test catches that.
"""

import json
import sys
from pathlib import Path

from uavnav import config as cfgmod
from uavnav import nav, valuetrain
from uavnav.cli import main

from test_cli import tiny_config

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import spans

        tracer = spans.Tracer()
        originals = [getattr(owner, attr) for _, owner, attr, _, _ in spans.TRACED]
        try:
            tracer.install()
        finally:
            tracer.uninstall()
        assert [getattr(owner, attr) for _, owner, attr, _, _ in spans.TRACED] == originals
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_navigate_step_is_a_module_attribute():
    assert "navigate_step" in vars(nav)
    assert callable(nav.navigate_step)


def test_every_eval_decision_goes_through_navigate_step(tmp_path, monkeypatch):
    """bench/run.py times decisions by patching nav.navigate_step; an eval that
    chose actions some other way would leave nav.decision_ms_* at 0."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import checks
    finally:
        sys.path.remove(str(BENCH_DIR))
    decided = []
    original = nav.navigate_step

    def counting(policy, states, *args, **kwargs):
        decided.append(len(states))
        return original(policy, states, *args, **kwargs)

    monkeypatch.setattr(nav, "navigate_step", counting)
    raw = json.loads(json.dumps(cfgmod.DEFAULT_CONFIG))
    raw["seed"] = 3
    raw["evaluation"]["modes"] = ["outdated", "perfect"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert main(["eval", "--config", str(cfg), "--preset", "center-1w",
                 "--value-model", str(BENCH_DIR / "fixtures" / "value-model.json"),
                 "--out", str(tmp_path / "report.json"),
                 "--trajectories", str(tmp_path / "traj"), "--trials", "2"]) == 0
    expected = sum(checks.count_decisions(checks.read_trajectories(f))
                   for f in sorted((tmp_path / "traj").glob("trajectories-*.csv")))
    assert expected > 0
    assert sum(decided) == expected


def test_every_mission_draw_passes_its_settings_as_keywords(tmp_path, monkeypatch):
    """bench/spans.py re-checks each drawn mission with the position_ok,
    min_separation and min_travel keywords of its valuetrain.sample_scenario
    call; a draw that passed them another way would be checked against
    defaults instead."""
    calls = []
    original = valuetrain.sample_scenario

    def recording(*args, **kwargs):
        calls.append((len(args), kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(valuetrain, "sample_scenario", recording)
    cfg_path = tiny_config(tmp_path, **{"evaluation.modes": ["outdated", "perfect"]})
    config, boot, run = ["--config", str(cfg_path)], tmp_path / "boot.csv", tmp_path / "run"
    assert main(["bootstrap", *config, "--out", str(boot)]) == 0
    assert main(["train", *config, "--bootstrap", str(boot), "--out-dir", str(run)]) == 0
    assert main(["eval", *config, "--value-model", str(run / "value-model.json"),
                 "--out", str(tmp_path / "report.json")]) == 0
    cfg = cfgmod.load(cfg_path)
    t = cfg.training
    assert len(calls) == t["bootstrap_episodes"] + t["total_episodes"] + cfg.evaluation["trials"]
    for positional, kwargs in calls:
        assert positional == 1  # the generator alone
        assert callable(kwargs["position_ok"])
        assert kwargs["min_separation"] == cfg.world["min_separation"]
        assert kwargs["min_travel"] == cfg.world["min_travel"]
