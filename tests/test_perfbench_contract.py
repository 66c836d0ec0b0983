"""The benchmark's tracer still finds every function its metrics name.

``perfbench/tracing.py`` wraps the public functions of qergo's modules (the
names in each module's ``__all__`` that are functions defined there) and
reduces the spans to per-layer metrics by ``"layer.function"`` name.  A
function that is renamed, moved to another module or dropped from
``__all__`` is no longer wrapped, and the metrics that name it silently read
zero.  This test reads the names from the tracer and checks each one.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
