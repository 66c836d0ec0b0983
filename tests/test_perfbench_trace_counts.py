"""The benchmark's tracer still sees every step of a measurement and a trajectory.

``perfbench/tracing.py`` counts work by wrapping qergo's public functions:
evolutions through ``evolve``, layouts through the partition builders,
measurements through ``measure``.  A lean path that skipped one of them
would make its work vanish from the per-layer metrics instead of making it
cheaper.  These tests install the tracer in-process around a small driven
measurement sequence, small driven trajectories (one with seeded-random
layouts drawn in batches), a weakly coupled one that shifts only its early
windows and a small reads-conserved-shaped run whose blocks share a
trajectory, and check the counts that the call structure fixes, and that
every partition they returned passes its audit.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qergo
from qergo.hilbert import Hamiltonian, make_state
from qergo.microstate import Scenario
from qergo.partition import MEASURE_TOL, SchedulerSpec
from qergo.testing import random_cset, random_hamiltonian, random_state, sigma_x_set, sigma_z_set

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(tracing, run):
    """The tracer after recording ``run()``."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def _traced(tracing, run) -> tuple[dict[str, float], float]:
    """Per-layer metrics of ``run()`` under the tracer, and the worst audited measure error."""
    tracer = _trace(tracing, run)
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
    # Per run: one step from the collapse in window 0 to the boundary u = 1;
    # the reads themselves take none.
    assert metrics["hilbert.evolve.calls"] == 5
    # Window 0's layout is built once, from the state every run starts in;
    # window 1's once per run, from that run's state at u = 1.
    assert metrics["partition.build.calls"] == 1 + 5
    assert metrics["hilbert.born_probabilities.calls"] == 1 + 5
    assert metrics["partition.extend.calls"] == 0
    assert 0.0 <= err <= MEASURE_TOL


def test_tracer_counts_every_step_of_a_measure_seq_shaped_run(tracing):
    # The benchmark's measure-seq in small: d = 4, a driven H, one set per
    # scheduler, four steps over windows 0-2 with two of them in window 1.
    rng = np.random.default_rng(44)
    csets = tuple(random_cset(rng, 4, id=cid) for cid in ("ca", "cb", "cc"))
    scenario = Scenario(
        state0=random_state(rng, 4),
        hamiltonian=random_hamiltonian(rng, 4),
        csets=csets,
        schedulers={
            "cb": SchedulerSpec(kind="two-outcome", offset=0.3),
            "cc": SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=9),
        },
    )
    steps, runs = [("ca", 0.4), ("cb", 1.3), ("cc", 1.8), ("ca", 2.6)], 7
    tracer = _trace(
        tracing, lambda: qergo.measurement.sequential_experiment(scenario, steps, runs, 12)
    )
    metrics, err = tracing.layer_metrics(tracer.spans), tracer.measure_err_max()
    # A step crosses to its time without the snapshot advance would build.
    assert "measurement.advance" not in {span[0] for span in tracer.spans}
    assert metrics["measurement.measure.calls"] == 4 * runs
    # Per run: one step to u = 1 and one to u = 2; the step inside window 1
    # reads the remainder and crosses nothing.
    assert metrics["hilbert.evolve.calls"] == 2 * runs
    # Window 0's layout of ca is built once, from the state every run starts
    # in; per run, cb's window 1, cc's remainder of window 1 and ca's window 2.
    assert metrics["partition.build.calls"] == 1 + 3 * runs
    assert metrics["hilbert.born_probabilities.calls"] == 1 + 3 * runs
    assert metrics["partition.extend.calls"] == 0
    assert metrics["partition.read_ratio"] == 4 * runs / (1 + 3 * runs)
    assert 0.0 <= err <= MEASURE_TOL


def test_tracer_counts_one_step_per_boundary_crossed_by_hops(tracing):
    scenario = _driven_scenario()

    def run():
        m = qergo.measurement
        sys = m.SystemUnderObservation.from_scenario(scenario)
        for u in (0.2, 0.4, 0.6, 1.3, 2.7):
            sys = m.advance(sys, u)
        m.measure(sys, "sz", 2.9)

    metrics, err = _traced(tracing, run)
    # Hops step only to the boundaries u = 1 and u = 2; the read at 2.9 lays
    # out window 2 from the state at u = 2 and needs no state at 2.9.
    assert metrics["hilbert.evolve.calls"] == 2
    assert metrics["partition.build.calls"] == 1
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


def test_tracer_counts_every_window_of_a_driven_seeded_random_trajectory(tracing):
    # The layouts are drawn a chunk of windows at a time, and each window is
    # still built once, from its own Born weights.
    rng = np.random.default_rng(16)
    state, h, cset = random_state(rng, 16), random_hamiltonian(rng, 16), random_cset(rng, 16)
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=4, seed=3)
    metrics, err = _traced(
        tracing, lambda: qergo.microstate.trajectory(state, h, cset, spec, 70)
    )
    assert metrics["partition.build.calls"] == 70
    assert metrics["hilbert.born_probabilities.calls"] == 70
    assert metrics["partition.extend.calls"] == 0
    assert 0.0 <= err <= MEASURE_TOL


def test_tracer_counts_shifted_and_built_windows_of_a_weakly_coupled_trajectory(tracing):
    # H = 1e-11 sigma_x passes is_conserved, and the shift of window 0 stays
    # sound up to window 25: windows 1-25 are shifted, 26-39 built afresh.
    h = Hamiltonian(np.array([[0.0, 1e-11], [1e-11, 0.0]]))
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=4)
    state = make_state([0.6, 0.8])
    metrics, err = _traced(
        tracing, lambda: qergo.microstate.trajectory(state, h, sigma_z_set(), spec, 40)
    )
    assert metrics["partition.extend.calls"] == 25
    assert metrics["partition.build.calls"] == 1 + 14
    assert 0.0 <= err <= MEASURE_TOL


def test_tracer_counts_each_bases_window_0_layout_once(tracing):
    # sigma_z is conserved by a diagonal H and sigma_x is not.  Reading sz in
    # windows 0-4 shifts the initial state's window-0 layout; measuring sx at
    # 4.7 starts a new base, whose window-0 layout windows 5-7 shift.  Builds:
    # the two bases' sz layouts and sx's window 4; extends: sz's windows 1-4
    # and 5-7, none for window 0.
    scenario = Scenario(
        state0=make_state([0.6, 0.8]),
        hamiltonian=Hamiltonian(np.diag([0.3, -0.2])),
        csets=(sigma_z_set(), sigma_x_set()),
        schedulers={},
    )

    def run():
        m = qergo.measurement
        sys = m.SystemUnderObservation.from_scenario(scenario)
        for u in (0.5, 1.5, 2.5, 3.5, 4.5):
            sys = m.advance(sys, u)
            sys.partition("sz")
        _, sys = m.measure(sys, "sx", 4.7)
        for u in (5.5, 6.5, 7.5):
            sys = m.advance(sys, u)
            sys.partition("sz")

    metrics, err = _traced(tracing, run)
    assert metrics["partition.build.calls"] == 3
    assert metrics["partition.extend.calls"] == 7
    assert 0.0 <= err <= MEASURE_TOL


_READS_CONSERVED_CONFIG = """
system {
  dimension = 4
  state = 0.5, 0.5i, -0.5, 0.5
  hamiltonian {
    row = 0.3, 0, 0, 0
    row = 0, -0.2, 0, 0
    row = 0, 0, 0.7, 0
    row = 0, 0, 0, 0.1
  }
}

csco {
  id = h
  basis {
    row = 1, 0, 0, 0
    row = 0, 1, 0, 0
    row = 0, 0, 1, 0
    row = 0, 0, 0, 1
  }
  labels = (0), (1), (2), (3)
  eigenvalues = (1), (2), (3), (4)
  scheduler {
    kind = seeded-random
    max_subintervals = 4
    seed = 5
  }
}

experiment {
  kind = born-sampling
  id = born
  csco = h
  windows = 6
  window = 3
  samples = 1000
  seed = 1
}

experiment {
  kind = sub-tau
  id = lag
  csco = h
  windows = 5
  delta = 0.1
  pairs = 2000
  seed = 2
}

experiment {
  kind = offset-average
  id = offset
  csco = h
  windows = 6
  alpha = 2.5
}
"""


def test_tracer_counts_one_trajectory_per_shared_key_of_a_reads_conserved_shaped_run(tracing, tmp_path):
    # The benchmark's reads-conserved in small: H is diagonal in the set's
    # basis, so each trajectory builds window 0 and shifts it into the rest.
    # born and offset read the same 6 windows and share one trajectory.
    config = tmp_path / "reads.cfg"
    config.write_text(_READS_CONSERVED_CONFIG)
    metrics, err = _traced(
        tracing, lambda: qergo.runner.run_scenario(config, out_dir=tmp_path / "out")
    )
    assert metrics["microstate.trajectory.calls"] == 2
    assert metrics["microstate.trajectory.distinct_ratio"] == 1.0
    assert metrics["partition.build.calls"] == 2
    assert metrics["partition.extend.calls"] == (6 - 1) + (5 - 1)
    assert metrics["ergodic.reads"] == 1000 + 2 * 2000
    assert 0.0 <= err <= MEASURE_TOL
