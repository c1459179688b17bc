"""Benchmark of uavnav: offline training, online SINR mapping, navigation.

    python3 bench/run.py --workload offline-train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  One process drives the program through
`uavnav.cli.main` and the public `sinrmap` functions, sequentially, with one
BLAS thread.  After set-up (done three times, median reported) it runs whole
passes over the workload's cases until --seconds of pass time have gone by,
checks the outputs, and prints one JSON object as the last line of standard
output.  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench-out"
SETUP_REPEATS = 3
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="offline-train, online-map, navigate, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    s = sorted(values)
    rank = -(-q * len(s) // 100)  # ceil
    return s[min(len(s), max(1, int(rank))) - 1]


class StageTimer:
    """Wall time of each named stage of one case."""

    def __init__(self):
        self.times: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, stage: str):
        t0 = time.perf_counter()
        yield
        self.times[stage] = time.perf_counter() - t0


class DecisionTimer:
    """Times each call of nav.navigate_step; the one wrapper of an untraced pass."""

    def __init__(self, nav):
        self.nav = nav
        self.original = nav.navigate_step
        self.seconds: list[float] = []

    def install(self) -> None:
        original, seconds = self.original, self.seconds

        def navigate_step(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - t0)

        self.nav.navigate_step = navigate_step

    def uninstall(self) -> None:
        self.nav.navigate_step = self.original


# A round figure for what one calibration unit takes on the two-core machine
# the benchmark was built on (numpy 2.4.6, one BLAS thread); reported times
# are scaled to the speed at which it takes exactly this long.
CALIBRATION_REFERENCE_S = 0.05


def calibrate() -> float:
    """Wall time of a fixed mix like the program's: small and mid-sized matrix
    products, elementwise numpy and a scalar Python loop.

    The machines this runs on share their cores, and their speed drifts by as
    much as 1.8x within minutes.  Dividing by this figure, taken between the
    cases of every pass, removes that drift from the reported times.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.normal(size=(15, 34)), rng.normal(size=(34, 64)), rng.normal(size=(64, 32))
    b, w3 = rng.normal(size=(200, 30)), rng.normal(size=(30, 32))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        acc += float(np.tanh(np.maximum(x @ w1, 0.0) @ w2).sum())
        acc += float((b.T @ np.maximum(b @ w3, 0.0))[0, 0])
        acc += sum(math.hypot(i, j) for j in range(12))
    return time.perf_counter() - t0


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "uavnav" / "cli.py").is_file():
        print(f"error: no uavnav sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, SRC_DIR)
        result = run(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(wl, args, work: Path) -> dict:
    import workloads
    from spans import Tracer
    from uavnav import nav

    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"cases {wl.cases} BLAS threads {BLAS_THREADS}", flush=True)

    setup_times, states, calibration = [], None, []
    for i in range(SETUP_REPEATS):
        d = work / f"setup-{i}"
        d.mkdir()
        calibration.append(calibrate())
        t0 = time.perf_counter()
        s = wl.setup(d)
        setup_times.append(time.perf_counter() - t0)
        states = states or s

    tracer = Tracer() if args.trace else None
    decisions = DecisionTimer(nav)
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    stage_times = {(c, s): [] for c in range(wl.cases) for s in wl.stages}
    layer_passes: list[dict] = []
    attempted = failed = 0
    check_failures: list[str] = []
    first: dict[int, tuple[dict, dict]] = {}  # case -> (digests, verdict) of its first run
    units: dict[int, dict[str, int]] = {}  # case -> work units per stage
    measured, n = 0.0, 0
    while n < MIN_PASSES or measured < args.seconds:
        # With tracing, odd passes are traced and even passes time decisions.
        traced = tracer is not None and n % 2 == 1
        hooks = tracer if traced else decisions if tracer else None
        if traced:
            tracer.reset()
        pass_elapsed = 0.0
        for c, state in enumerate(states):
            calibration.append(calibrate())
            d = work / f"pass-{n}-case-{c}"
            d.mkdir()
            timer = StageTimer()
            if hooks:
                hooks.install()
            t0 = time.perf_counter()
            try:
                result = wl.run_case(state, d, timer)
                error = None
            except Exception as exc:  # a failed operation; the run goes on
                result, error = None, exc
                traceback.print_exc(file=sys.stderr)
            finally:
                pass_elapsed += time.perf_counter() - t0
                if hooks:
                    hooks.uninstall()
            attempted += len(wl.stages)
            if error is not None:
                failed += len(wl.stages)
                continue
            if not traced:
                for s in wl.stages:
                    stage_times[c, s].append(timer.times[s])
            digests = {s: workloads.digest(p) for s, p in wl.outputs(d).items()}
            if c not in first:
                first[c] = (digests, wl.check(state, d, result))
                units[c] = wl.units(d)
                check_failures += [f"case {c} {s}: {m}"
                                   for s, msgs in first[c][1].items() for m in msgs]
            for s in wl.stages:
                if digests[s] != first[c][0][s]:
                    failed += 1
                    check_failures.append(f"case {c} {s}: pass {n} output differs from the first")
                elif first[c][1][s]:
                    failed += 1  # byte-identical to an output that failed its checks
            shutil.rmtree(d, ignore_errors=True)
            calibration.append(calibrate())
        measured += pass_elapsed
        pass_times[traced].append(pass_elapsed)
        print(f"pass {n}{' traced' if traced else ''}: {pass_elapsed:.3f} s; stages "
              + " ".join(f"{stage_times[c, s][-1]:.4f}" for c in range(wl.cases)
                         for s in wl.stages if stage_times[c, s] and not traced), flush=True)
        if traced:
            layer_passes.append(tracer.pass_summary(workloads.env_of_radio))
        n += 1

    if args.trace:
        metrics = per_layer_metrics(layer_passes, pass_times, decisions.seconds, check_failures)
    else:
        # Each stage: the median over passes of every case, summed over the cases,
        # per unit of the stage's work.
        stage_ms = [
            1e3 * sum(median_or_nan(stage_times[c, s]) for c in range(wl.cases))
            / max(1, sum(units.get(c, {}).get(s, 0) for c in range(wl.cases)))
            for s in wl.stages
        ]
        setup_s = statistics.median(setup_times)
        print(f"wall times: setup {setup_s:.6g} s, stage1 {stage_ms[0]:.6g} ms, "
              f"stage2 {stage_ms[1]:.6g} ms")
        scale = CALIBRATION_REFERENCE_S / statistics.median(calibration)
        print(f"calibration: median {statistics.median(calibration):.6g} s of "
              f"{len(calibration)}, reference {CALIBRATION_REFERENCE_S} s, scale {scale:.4f}")
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "stage1_ms": (stage_ms[0] * scale, "ms"),
            "stage2_ms": (stage_ms[1] * scale, "ms"),
        }
    for msg in check_failures[:40]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"stages {' + '.join(wl.stages)}; passes {n} of {wl.cases} cases; "
          f"attempted {attempted} failed {failed}")
    return {
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def median_or_nan(values) -> float:
    return statistics.median(values) if values else float("nan")


COUNT_UNITS = {"calls": "count", "points": "count", "rows": "count", "self_s": "s"}


def per_layer_metrics(layer_passes, pass_times, decision_seconds, check_failures) -> dict:
    """Counts from the traced passes (they must repeat exactly), self times as medians."""
    from spans import PER_LAYER_COUNTS

    if not layer_passes:
        return {}
    first = layer_passes[0]
    for r in layer_passes[1:]:
        for key, value in r.items():
            if not key.endswith("_s") and value != first[key]:
                check_failures.append(f"per-layer count {key} differs between passes: "
                                      f"{first[key]} then {value}")
    out = {}
    for name, fields in PER_LAYER_COUNTS.items():
        for f in fields:
            key = f"{name}.{f}"
            value = (statistics.median(r[key] for r in layer_passes) if f == "self_s"
                     else first[key])
            out[key] = (value, COUNT_UNITS[f])
    out["orca.skipped_episodes"] = (first["orca.skipped_episodes"], "count")
    out["valuetrain.coverage_checks"] = (first["valuetrain.coverage_checks"], "count")
    out["valuetrain.endpoint_accept_ratio"] = (first["valuetrain.endpoint_accept_ratio"], "ratio")
    out["valuetrain.sample_scenario.waived"] = (first["valuetrain.sample_scenario.waived"],
                                                "count")
    out["nav.scenario_reuse_ratio"] = (first["nav.scenario_reuse_ratio"], "ratio")
    out["cli.io_s"] = (statistics.median(r["cli.io_s"] for r in layer_passes), "s")
    out["cli.bytes_written"] = (first["cli.bytes_written"], "bytes")
    if decision_seconds:
        out["nav.decision_ms_p50"] = (1e3 * percentile(decision_seconds, 50), "ms")
        out["nav.decision_ms_p99"] = (1e3 * percentile(decision_seconds, 99), "ms")
    else:
        out["nav.decision_ms_p50"] = out["nav.decision_ms_p99"] = (0.0, "ms")
    untraced, traced = pass_times[False], pass_times[True]
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
    return out


if __name__ == "__main__":
    sys.exit(main())
