"""The benchmark's tracer still sees every step of a measurement and a trajectory.

``perfbench/tracing.py`` counts work by wrapping qergo's public functions:
evolutions through ``evolve``, layouts through the partition builders,
measurements through ``measure``.  A lean path that skipped one of them
would make its work vanish from the per-layer metrics instead of making it
cheaper.  These tests install the tracer in-process around a small driven
measurement sequence and a small driven trajectory and check the counts that
the call structure fixes, and that every partition they returned passes its
audit.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qergo
from qergo.hilbert import Hamiltonian, make_state
from qergo.microstate import Scenario
from qergo.partition import MEASURE_TOL, SchedulerSpec
from qergo.testing import sigma_z_set

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracing, run) -> tuple[dict[str, float], float]:
    """Per-layer metrics of ``run()`` under the tracer, and the worst audited measure error."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans), tracer.measure_err_max()


def _driven_scenario() -> Scenario:
    # H does not commute with sigma_z, so no window reuses window 0's layout.
    h = Hamiltonian(np.array([[0.3, 0.7], [0.7, -0.2]]))
    return Scenario(
        state0=make_state([0.6, 0.8j]),
        hamiltonian=h,
        csets=(sigma_z_set(),),
        schedulers={"sz": SchedulerSpec(kind="two-outcome", offset=0.3)},
    )


def test_tracer_counts_every_step_of_a_driven_measurement_sequence(tracing):
    scenario = _driven_scenario()
    metrics, err = _traced(
        tracing,
        # Looked up under the tracer, which rebinds qergo's module attributes.
        lambda: qergo.measurement.sequential_experiment(scenario, [("sz", 0.5), ("sz", 1.5)], 5, 11),
    )
    assert metrics["measurement.measure.calls"] == 10
    # Per run: one step into window 0, then one to the boundary u = 1 and
    # one on into window 1.
    assert metrics["hilbert.evolve.calls"] == 15
    # Window 0's layout is built once, from the state every run starts in;
    # window 1's once per run, from that run's state at u = 1.
    assert metrics["partition.build.calls"] == 1 + 5
    assert metrics["hilbert.born_probabilities.calls"] == 1 + 5
    assert metrics["partition.extend.calls"] == 0
    assert 0.0 <= err <= MEASURE_TOL


def test_tracer_counts_every_window_of_a_driven_trajectory(tracing):
    scenario = _driven_scenario()
    metrics, err = _traced(tracing, lambda: qergo.microstate.trajectory(
        scenario.state0, scenario.hamiltonian, scenario.cset("sz"), scenario.scheduler_for("sz"), 6
    ))
    assert metrics["microstate.trajectory.calls"] == 1
    assert metrics["partition.build.calls"] == 6
    assert metrics["partition.extend.calls"] == 0
    assert metrics["microstate.events"] == metrics["partition.segments"] > 0
    assert 0.0 <= err <= MEASURE_TOL
