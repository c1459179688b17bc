"""The names the benchmark patches in place must keep existing.

bench/spans.py wraps listed functions in every module namespace that holds
them, and bench/run.py times each navigation decision through
nav.navigate_step.  Renaming or deleting one of those names breaks a traced
benchmark run while the unit tests stay green; this test catches that.
"""

import sys
from pathlib import Path

from uavnav import nav

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
