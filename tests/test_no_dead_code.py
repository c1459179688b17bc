"""Every module-level function and class in src/uavnav, and every method of
those classes apart from dunders, is used by src/uavnav.

A top-level name counts as used only where it resolves to its own module: as
a bare name in that module, as a name imported from it (`from .world import
Action`), or as an attribute of the module itself (`radio.sinr_many`, also
under an alias such as `config as cfgmod`).  So a function is not kept alive
by an attribute of another object that happens to share its name.  A method
counts as used wherever a name or attribute of its spelling appears.  Code
that only tests or the benchmark call is deleted, or listed below, by its
qualified name, with the reason it stays.
"""

import ast
from pathlib import Path

import uavnav

SRC = Path(uavnav.__file__).parent

ALLOWED = {
    # Traced by the benchmark (bench/spans.py), which reports them by name.
    "nav.run_trial": "traced by the benchmark; the one-trial view of run_evaluation",
    "valuetrain.lookahead_select": "traced by the benchmark; the one-agent view of lookahead_index",
    "world.sample_action_space": "traced by the benchmark; the Action-list view of action_grid",
    "neuro.backward_batch": "traced by the benchmark; criteria 3 and 4 check it",
    "neuro.adam_step": "traced by the benchmark; criteria 3 and 4 check it",
    # Called by the benchmark's online-map workload.
    "sinrmap.detect_change": "called by the benchmark's online-map workload",
    "sinrmap.evaluate_accuracy": "called by the benchmark's online-map workload",
    # One-item views of a batched kernel, for tests.
    "orca.run_orca_episode": "one-episode view of the ORCA bootstrap rule",
    # Formula references that tests check the kernels against.
    "radio.gbs_antenna_gain": "formula reference for the GBS antenna gain",
    "radio.uav_antenna_gain": "formula reference for the UAV antenna gain",
    "radio.path_loss": "formula reference for the path loss",
    # The other half of a file format the commands read or write.
    "radio.read_coverage_csv": "reader of the coverage grid that covmap writes",
    "sinrmap.write_measurement_csv": "writer of the measurement log that trainmap reads",
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(src: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def definitions(trees) -> dict[str, str | None]:
    """Qualified name -> None for every top-level function and class
    ('radio.levels'), and -> the bare name for every method (not a dunder)
    defined in such a class's body ('neuro.RowRing.keep')."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                out[f"{module}.{node.name}"] = None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        out[f"{module}.{node.name}.{item.name}"] = item.name
    return out


def references(trees) -> tuple[set[str], set[str]]:
    """The qualified top-level names that some module refers to, and every
    bare name or attribute spelled anywhere (for methods)."""
    qualified, spelled = set(), set()
    for module, tree in trees.items():
        modules = {}  # local name -> the package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        qualified.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                qualified.add(f"{module}.{node.id}")
                spelled.add(node.id)
            elif isinstance(node, ast.Attribute):
                spelled.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    qualified.add(f"{modules[node.value.id]}.{node.attr}")
    return qualified, spelled


def unused(src: Path) -> set[str]:
    trees = parse(src)
    qualified, spelled = references(trees)
    return {name for name, method in definitions(trees).items()
            if (name not in qualified if method is None else method not in spelled)}


def test_every_definition_is_used_or_allowed():
    dead = unused(SRC) - ALLOWED.keys()
    assert not dead, (f"nothing in src/uavnav uses {sorted(dead)}: "
                      "delete it or allow it with a reason")


def test_every_allowed_name_is_still_defined_and_unused():
    """An entry whose definition went, or that src/ now uses, is stale."""
    assert set(ALLOWED) - definitions(parse(SRC)).keys() == set()
    assert set(ALLOWED) - unused(SRC) == set()


def test_a_name_shared_with_another_objects_attribute_is_still_unused(tmp_path):
    """A function is used through its own module only: the field
    EpisodeState.sinr does not keep a module-level radio.sinr alive."""
    (tmp_path / "radio.py").write_text(
        "def sinr_many(points):\n    return points\n\n\n"
        "def sinr(point):\n    return sinr_many([point])[0]\n\n\n"
        "def gain(d):\n    return d\n\n\n"
        "def levels(points):\n    return sinr_many(points)\n")
    (tmp_path / "world.py").write_text(
        "from . import radio as rd\nfrom .radio import gain\n\n\n"
        "class EpisodeState:\n    sinr = 0.0\n\n"
        "    def step(self):\n        return rd.levels([self.sinr]), gain(1.0)\n\n\n"
        "def run():\n    return EpisodeState().step()\n\n\nRUNNERS = [run]\n")
    assert unused(tmp_path) == {"radio.sinr"}
