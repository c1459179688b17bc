"""Every module-level function and class in src/uavnav, and every method of
those classes apart from dunders, is used by src/uavnav.

A name counts as used when a Name or Attribute node anywhere in the package
refers to it.  Code that only tests or the benchmark call is deleted, or
listed below with the reason it stays.
"""

import ast
from pathlib import Path

import uavnav

SRC = Path(uavnav.__file__).parent

ALLOWED = {
    # Traced by the benchmark (bench/spans.py), which reports them by name.
    "run_trial": "traced by the benchmark; the one-trial view of run_evaluation",
    "lookahead_select": "traced by the benchmark; the one-agent view of lookahead_index",
    "sample_action_space": "traced by the benchmark; the Action-list view of action_grid",
    "backward_batch": "traced by the benchmark; criteria 3 and 4 check it",
    "adam_step": "traced by the benchmark; criteria 3 and 4 check it",
    # Called by the benchmark's online-map workload.
    "detect_change": "called by the benchmark's online-map workload",
    "evaluate_accuracy": "called by the benchmark's online-map workload",
    # One-item views of a batched kernel, for tests.
    "run_orca_episode": "one-episode view of the ORCA bootstrap rule",
    "serving_gbs": "one-position view of radio.received_powers",
    # Formula references that tests check the kernels against.
    "gbs_antenna_gain": "formula reference for the GBS antenna gain",
    "uav_antenna_gain": "formula reference for the UAV antenna gain",
    "path_loss": "formula reference for the path loss",
    # The other half of a file format the commands read or write.
    "read_coverage_csv": "reader of the coverage grid that covmap writes",
    "write_measurement_csv": "writer of the measurement log that trainmap reads",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_level_definitions() -> dict[str, str]:
    """Name -> module file of every top-level function and class, and of every
    method (not a dunder) defined in such a class's body."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                out[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        out[item.name] = path.name
    return out


def referenced_names() -> set[str]:
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_used_or_allowed():
    refs = referenced_names()
    unused = {name: module for name, module in module_level_definitions().items()
              if name not in refs and name not in ALLOWED}
    assert not unused, f"nothing in src/uavnav uses {unused}: delete it or allow it with a reason"


def test_every_allowed_name_is_still_defined_and_unused():
    """An entry whose definition went, or that src/ now uses, is stale."""
    definitions, refs = module_level_definitions(), referenced_names()
    assert {name for name in ALLOWED if name not in definitions} == set()
    assert {name for name in ALLOWED if name in refs} == set()
