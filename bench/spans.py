"""Spans around uavnav's public functions, kept in memory.

`Tracer.install` replaces each listed function, in every module namespace
that holds a reference to it, by a wrapper that records a span; `uninstall`
puts the originals back.  A span's self time is its duration minus the
durations of the spans it directly encloses.  Counters ride on the same
wrappers, so batch sizes and ratios are measured where the work happens.
"""

from __future__ import annotations

import os
import pathlib
import time
from collections import defaultdict

import numpy as np

from uavnav import cli, nav, neuro, orca, radio, sinrmap, valuetrain, world

from reference import sinr as ref_sinr, level as ref_level


def _rows(x) -> int:
    a = np.asarray(x)
    return 1 if a.ndim == 1 else len(a)


# (name, owner, attribute, extra namespaces holding the same function, batch counter)
TRACED = [
    ("radio.sinr_many", radio, "sinr_many", (), ("points", lambda a, k: _rows(a[1]))),
    ("world.sample_action_space", world, "sample_action_space", (), None),
    ("world.agent_frame_rows", world, "agent_frame_rows", (), ("rows", lambda a, k: _rows(a[0]))),
    ("world.to_agent_frame", world, "to_agent_frame", (valuetrain, orca), None),
    ("world.step_all", world, "step_all", (), None),
    ("orca.orca_velocity", orca, "orca_velocity", (), None),
    ("neuro.forward_batch", neuro, "forward_batch", (), ("rows", lambda a, k: _rows(a[1]))),
    ("neuro.backward_batch", neuro, "backward_batch", (), None),
    ("neuro.adam_step", neuro, "adam_step", (), None),
    ("valuetrain.lookahead_select", valuetrain, "lookahead_select", (), None),
    ("valuetrain.sample_scenario", valuetrain, "sample_scenario", (), None),
    ("valuetrain.ReplayBuffer.sample", valuetrain.ReplayBuffer, "sample", (), None),
    ("valuetrain.pretrain_value_net", valuetrain, "pretrain_value_net", (), None),
    ("sinrmap.featurize_many", sinrmap, "featurize_many", (), ("rows", lambda a, k: _rows(a[0]))),
    ("sinrmap.sample_measurements", sinrmap, "sample_measurements", (), None),
    ("sinrmap.retrain", sinrmap, "retrain", (), None),
    ("sinrmap.evaluate_accuracy", sinrmap, "evaluate_accuracy", (), None),
    ("nav.navigate_step", nav, "navigate_step", (), None),
    ("nav.run_trial", nav, "run_trial", (), None),
    ("nav.compare_modes", nav, "compare_modes", (), None),
    ("orca.generate_bootstrap_set", orca, "generate_bootstrap_set", (), None),
    ("cli.main", cli, "main", (), None),
]

# Readers and writers the commands call; `path_arg` is the argument naming
# the file a writer wrote (None for readers).
IO_FUNCTIONS = [
    ("io.save_model", neuro, "save_model", 1),
    ("io.load_model", neuro, "load_model", None),
    ("io.write_curve_csv", valuetrain, "write_curve_csv", 1),
    ("io.read_curve_csv", valuetrain, "read_curve_csv", None),
    ("io.write_bootstrap_csv", orca, "write_bootstrap_csv", 1),
    ("io.read_bootstrap_csv", orca, "read_bootstrap_csv", None),
    ("io.save_map_model", sinrmap, "save_map_model", 1),
    ("io.load_map_model", sinrmap, "load_map_model", None),
    ("io.read_measurement_csv", sinrmap, "read_measurement_csv", None),
    ("io.write_report_json", nav, "write_report_json", 1),
    ("io.savez", np, "savez", 0),
    ("io.write_text", pathlib.Path, "write_text", 0),
]

# Metric names reported for every traced run, in order.
PER_LAYER_COUNTS = {
    "radio.sinr_many": ("calls", "points", "self_s"),
    "world.sample_action_space": ("calls", "self_s"),
    "world.agent_frame_rows": ("calls", "rows", "self_s"),
    "world.to_agent_frame": ("calls", "self_s"),
    "world.step_all": ("calls", "self_s"),
    "orca.orca_velocity": ("calls", "self_s"),
    "neuro.forward_batch": ("calls", "rows", "self_s"),
    "neuro.backward_batch": ("calls", "self_s"),
    "neuro.adam_step": ("calls", "self_s"),
    "valuetrain.lookahead_select": ("calls", "self_s"),
    "valuetrain.sample_scenario": ("calls", "self_s"),
    "valuetrain.ReplayBuffer.sample": ("calls", "self_s"),
    "valuetrain.pretrain_value_net": ("self_s",),
    "sinrmap.featurize_many": ("calls", "rows", "self_s"),
    "sinrmap.sample_measurements": ("self_s",),
    "sinrmap.retrain": ("calls", "self_s"),
    "sinrmap.evaluate_accuracy": ("calls", "self_s"),
    "nav.navigate_step": ("calls", "self_s"),
    "nav.run_trial": ("calls", "self_s"),
}


class Tracer:
    """Collects spans for one pass at a time; `pass_summary` folds them up."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._scenarios: list[tuple] = []  # (scenario, predicate, kwargs)
        self._nav_scenarios: list[set] = []
        self._nav_sampled = 0

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn, batch):
        tracer = self

        def traced(*args, **kwargs):
            if batch is not None:
                tracer.counts[f"{name}.{batch[0]}"] += batch[1](args, kwargs)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer._after(name, args, kwargs, result)
            return result

        return traced

    def _io_wrapper(self, name, fn, path_arg):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._inside("cli.main"):
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if path_arg is not None:
                path = os.fspath(args[path_arg])
                if name == "io.savez" and not path.endswith(".npz"):
                    path += ".npz"
                tracer.counts["cli.bytes_written"] += os.path.getsize(path)
            return result

        return traced

    def _after(self, name, args, kwargs, result) -> None:
        if name == "valuetrain.sample_scenario":
            self._scenarios.append((result, kwargs.get("position_ok"), kwargs))
            if self._inside("nav.compare_modes"):
                self._nav_scenarios[-1].add(result)
                self._nav_sampled += 1
        elif name == "orca.generate_bootstrap_set":
            self.counts["orca.skipped_episodes"] += result[1]

    def _coverage_predicate(self, fn):
        tracer = self

        def coverage_predicate(env, neighborhood=5.0):
            ok = fn(env, neighborhood)

            def counted(point):
                tracer.counts["valuetrain.coverage_checks"] += 1
                return ok(point)

            counted.env = env
            counted.neighborhood = neighborhood
            return counted

        return coverage_predicate

    def _compare_modes(self, fn):
        tracer = self

        def compare_modes(*args, **kwargs):
            tracer._nav_scenarios.append(set())
            return fn(*args, **kwargs)

        return compare_modes

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        patches = []
        for name, owner, attr, aliases, batch in TRACED:
            fn = getattr(owner, attr)
            if attr == "compare_modes":
                fn = self._compare_modes(fn)
            wrapped = self._span_wrapper(name, fn, batch)
            patches.append((owner, attr, wrapped))
            patches.extend((alias, attr, wrapped) for alias in aliases)
        for name, owner, attr, path_arg in IO_FUNCTIONS:
            patches.append((owner, attr, self._io_wrapper(name, getattr(owner, attr), path_arg)))
        patches.append(
            (valuetrain, "coverage_predicate",
             self._coverage_predicate(valuetrain.coverage_predicate))
        )
        for owner, attr, wrapped in patches:
            self._originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # -- folding -------------------------------------------------------------
    def pass_summary(self, ref_env_of) -> dict:
        """Per-layer figures of the spans recorded since the last reset.

        ref_env_of(radio_env) gives the reference environment used to re-check
        sampled endpoints from outside the program.
        """
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]

        out: dict[str, float] = {}
        for name, fields in PER_LAYER_COUNTS.items():
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = calls[name]
                elif f == "self_s":
                    out[f"{name}.self_s"] = self_s[name]
                else:
                    out[f"{name}.{f}"] = self.counts[f"{name}.{f}"]
        out["orca.skipped_episodes"] = self.counts["orca.skipped_episodes"]
        checks = self.counts["valuetrain.coverage_checks"]
        endpoints = sum(2 * s.num_agents for s, ok, _ in self._scenarios if ok is not None)
        out["valuetrain.coverage_checks"] = checks
        out["valuetrain.endpoint_accept_ratio"] = endpoints / checks if checks else 0.0
        out["valuetrain.sample_scenario.waived"] = self._count_waived(ref_env_of)
        out["nav.scenario_reuse_ratio"] = (
            sum(len(s) for s in self._nav_scenarios) / self._nav_sampled
            if self._nav_sampled else 0.0
        )
        out["cli.io_s"] = sum(v for k, v in self_s.items() if k.startswith("io."))
        out["cli.bytes_written"] = self.counts["cli.bytes_written"]
        return out

    def _count_waived(self, ref_env_of) -> int:
        """Returned endpoints that break coverage, travel or separation, checked here."""
        waived = 0
        for scenario, ok, kwargs in self._scenarios:
            min_sep = kwargs.get("min_separation", 5.0)
            min_travel = kwargs.get("min_travel", 50.0)
            env = ref_env_of(ok.env) if ok is not None else None
            offsets = ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
            # Like the sampler, each endpoint is held apart from the earlier
            # ones of its group, so a close pair counts once.
            for group in (scenario.starts, scenario.destinations):
                for i, p in enumerate(group):
                    bad = any(
                        np.hypot(p[0] - q[0], p[1] - q[1]) <= min_sep for q in group[:i]
                    )
                    if group is scenario.destinations:
                        s = scenario.starts[i]
                        bad = bad or np.hypot(p[0] - s[0], p[1] - s[1]) < min_travel
                    if env is not None and not bad:
                        bad = any(
                            ref_level(env, ref_sinr(env, p[0] + ok.neighborhood * ox,
                                                    p[1] + ok.neighborhood * oy)) != 2
                            for ox, oy in offsets
                        )
                    waived += bad
        return waived
