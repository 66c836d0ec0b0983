"""The benchmark still finds everything it uses of qergo.

``perfbench/tracing.py`` wraps the public functions of qergo's modules (the
names in each module's ``__all__`` that are functions defined there) and
reduces the spans to per-layer metrics by ``"layer.function"`` name.  A
function that is renamed, moved to another module or dropped from
``__all__`` is no longer wrapped, and the metrics that name it silently read
zero.  These tests read the names from the tracer and check each one.  They
also check every name the benchmark imports from qergo, and run its
known-defect probe, which builds a ``Scenario`` by keyword.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list[str]:
    tracing = _load_tracing()
    names = set(tracing.BUILD) | set(tracing.RETURNS_PARTITION) | set(tracing.EXTRAS)
    source = inspect.getsource(tracing.layer_metrics)
    names |= set(re.findall(r'\b(?:calls|total|self_ns)\["([\w.]+)"\]', source))
    names.discard("partition.build")  # the sum over BUILD, not a function
    return sorted(names)


NAMES = _traced_names()


def test_tracer_names_were_collected():
    assert len(NAMES) >= 21


@pytest.mark.parametrize("name", NAMES)
def test_traced_function_is_public_in_its_layer(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"qergo.{layer}")
    assert attr in module.__all__
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def _qergo_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) for each qergo import in perfbench; name None for ``import m``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qergo":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "qergo"
                ]
    return found


QERGO_IMPORTS = _qergo_imports()


def test_perfbench_qergo_imports_were_collected():
    assert ("checks.py", "qergo", "Scenario") in QERGO_IMPORTS


@pytest.mark.parametrize("where,module,name", QERGO_IMPORTS)
def test_perfbench_qergo_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")


def test_perfbench_probe_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(checks)
        assert checks.probe_known_defect() == (True, "ok")
    finally:
        sys.modules.pop("workloads", None)  # imported by checks.py under a bare name
