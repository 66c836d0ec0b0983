"""Every public name of a layer has a reader outside the tests.

A function or class in a module's ``__all__``, and every public method or
property of such a class, must be named somewhere in ``src/`` (the CLI
included), ``demos/`` or ``perfbench/``, outside its own definition.  A
method or property counts as named by any ``ast.Name`` or ``ast.Attribute``
of its name.  A module-level function counts only as an ``ast.Name``, or as
an attribute of ``qergo`` or of one of its modules (``runner.run_scenario``):
an attribute of another object (numpy's ``Generator.advance``) is a
different function.  Imports and ``__all__`` list names as strings or
aliases, so they do not count.  A name that only tests read is API without
behaviour: delete it, or add it to ``KEEP`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qergo"
READER_FILES = sorted(
    [*ROOT.glob("src/**/*.py"), *ROOT.glob("demos/**/*.py"), *ROOT.glob("perfbench/**/*.py")]
)

# The paper's named constructs, and the oracles the tests hold the fast
# paths to.  Each stays without a reader in the program.
KEEP = {
    "microstate.microstate_at": "the paper's microstate |M^j(t)>: the active eigenvector at time t",
    "microstate.value_function": "the definite value of an observable along the jump trajectory",
    "microstate.apply_value_operator": "the paper's time-dependent observable acting on an eigenvector",
    "measurement.measurement_operator_apply": "the paper's measurement operator at time t",
    "ergodic.window_average_value": "the abstract's expectation value as a time average over tau",
    "qgrid.planck_cell_probability": "one Planck cell's mass, the oracle cell_probabilities matches bitwise",
    "measurement.advance": "moves the protocol's clock without a measurement; README pins advance(advance(s, 0.3), 2.5)",
    "microstate.dump_trajectory": (
        "the one-string form of the blocks the runner writes; perfbench's tracer names it, and "
        "tests/test_perfbench_contract.py requires it to be public"
    ),
    "measurement.format_measurement_log": (
        "the one-string form of the log blocks the runner writes for a sequential experiment; "
        "perfbench's tracer names it"
    ),
}

# ``qergo`` and its modules, the names a module-level function is read through.
MODULES = {"qergo", *(path.stem for path in PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READER_FILES}


def _public_definitions() -> list[tuple[str, Path, ast.AST]]:
    """("module.name" or "module.Class.member", file, definition) for every checked name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = TREES[path]
        exported = set(_exported(tree))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name not in exported:
                continue
            out.append((f"{path.stem}.{node.name}", path, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}.{item.name}", path, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


DEFINITIONS = _public_definitions()


def _is_module(node: ast.AST) -> bool:
    """Whether ``node`` names qergo or one of its modules (``runner``, ``qergo.runner``)."""
    if isinstance(node, ast.Attribute):
        return node.attr in MODULES and _is_module(node.value)
    return isinstance(node, ast.Name) and node.id in MODULES


def _has_reader(name: str, path: Path, definition: ast.AST) -> bool:
    own = {id(node) for node in ast.walk(definition)}
    function = isinstance(definition, ast.FunctionDef) and definition in TREES[path].body
    for reader, tree in TREES.items():
        for node in ast.walk(tree):
            if reader == path and id(node) in own:
                continue
            if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute)
                and node.attr == name
                and (not function or _is_module(node.value))
            ):
                return True
    return False


def test_every_public_name_has_a_reader_outside_the_tests():
    names = {qualified for qualified, _, _ in DEFINITIONS}
    assert {"partition.build_partition", "microstate.JumpTrajectory.partition"} <= names
    unread = [q for q, path, d in DEFINITIONS if q not in KEEP and not _has_reader(d.name, path, d)]
    assert not unread, f"read only by tests (delete them, or keep them in KEEP with a reason): {unread}"


def test_every_kept_name_is_defined_and_still_lacks_a_reader():
    # A kept name that the program starts to read needs no entry any more.
    kept = [(q, path, d) for q, path, d in DEFINITIONS if q in KEEP]
    assert sorted(q for q, _, _ in kept) == sorted(KEEP)
    read = [q for q, path, d in kept if _has_reader(d.name, path, d)]
    assert not read, f"kept names that the program now reads: {read}"
