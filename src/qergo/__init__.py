"""qergo: quantum statistics as exact time averages over window partitions.

The model: split every unit time window into disjoint labelled
sub-intervals whose lengths equal the outcome probabilities frozen at the
window start.  At each instant exactly one label is active, so observables
have definite values along a deterministic jump trajectory, and quantum
statistics come back out as time averages (exactly) or as random-time
samples (statistically) — including a measurement protocol with collapse
and re-partitioning, and a Planck-grid position pipeline feeding the same
machinery.
"""

from .errors import ConfigError, InvariantViolation, QergoError
from .hilbert import (
    CommutingSet,
    Hamiltonian,
    QuantumState,
    born_probabilities,
    evolve,
    expectation,
    is_conserved,
    make_state,
    off_diagonal_norm,
)
from .partition import (
    SchedulerSpec,
    SubInterval,
    WindowPartition,
    active_label,
    build_partition,
    build_partition_span,
    check_partition,
    dump_partition,
    interval_measure,
    periodic_extend,
    step_function,
)
from .microstate import (
    JumpTrajectory,
    MicrostateSnapshot,
    Scenario,
    TrajectoryEvent,
    apply_value_operator,
    dump_trajectory,
    microstate_at,
    trajectory,
    value_function,
)
from .ergodic import (
    CorrelationEstimate,
    EmpiricalDistribution,
    format_statistics,
    offset_window_average,
    same_outcome_measure,
    sample_born,
    sub_tau_correlation,
    window_average_step,
    window_average_value,
)
from .measurement import (
    MeasurementRecord,
    SequenceDistribution,
    SystemUnderObservation,
    advance,
    measure,
    measurement_operator_apply,
    sequence_records,
    sequential_experiment,
    total_variation,
)
from .qgrid import (
    GridWavefunction,
    cell_probabilities,
    load_grid,
    planck_cell_probability,
    position_partition,
    window_renormalize,
)

__version__ = "0.1.0"

from .config import ScenarioConfig, load_config, parse_config_text  # noqa: E402
from .runner import run_scenario  # noqa: E402  (needs __version__)
from .verify import verify_suite  # noqa: E402
