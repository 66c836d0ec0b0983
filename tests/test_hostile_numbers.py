"""Every numeric input refuses nan, inf, -inf and an overflowing literal.

A refusal is a ValueError, or a ConfigError at the line of the offending
entry; the input is never accepted, and no OverflowError or TypeError
escapes from the checks.  Every numeric argument of the public API, found
from the signatures, also refuses what is no number of its kind: a bool, a
string, ``None`` or a complex number, a fraction where an integer is due,
and an integer outside the range its argument allows.  A numpy number is
taken as the plain number of the same value.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qergo
from qergo import ConfigError, load_config, parse_config_text
from qergo.ergodic import (
    offset_window_average,
    same_outcome_measure,
    sample_born,
    sub_tau_correlation,
    window_average_step,
    window_average_value,
)
from qergo.hilbert import CommutingSet, Hamiltonian, QuantumState, evolve, expectation, make_state
from qergo.measurement import (
    SystemUnderObservation,
    advance,
    measure,
    measurement_operator_apply,
    sequence_records,
    sequential_experiment,
)
from qergo.microstate import (
    MAX_WINDOWS,
    Scenario,
    apply_value_operator,
    microstate_at,
    shift_is_sound,
    trajectory,
    value_function,
)
from qergo.partition import (
    _NOT_REAL,
    SchedulerSpec,
    _real,
    active_label,
    build_partition,
    build_partition_span,
    interval_measure,
    periodic_extend,
    step_function,
)
from qergo.qgrid import (
    GridWavefunction,
    cell_probabilities,
    format_cell_probabilities,
    load_grid,
    planck_cell_probability,
    position_partition,
    window_cells,
    window_renormalize,
)
from qergo.runner import run_experiment
from qergo.testing import sigma_z_set

HOSTILE = [math.nan, math.inf, -math.inf, 1e999]  # 1e999 overflows to inf


def _grid(origin=0.0, spacing=1.0 / 32.0, planck_step=1.0, compton_wavelength=1.0):
    return GridWavefunction(samples=np.ones(65, dtype=complex), origin=origin, spacing=spacing,
                            planck_step=planck_step, compton_wavelength=compton_wavelength)


MODEL_INPUTS = {
    "Hamiltonian diagonal": lambda x: Hamiltonian(np.array([[x, 0.5], [0.5, 0.0]])),
    "Hamiltonian off-diagonal": lambda x: Hamiltonian(np.array([[0.0, x], [x, 0.0]])),
    "Hamiltonian imaginary part": lambda x: Hamiltonian(np.array([[0.0, complex(0.5, x)], [complex(0.5, -x), 0.0]])),
    "CommutingSet basis": lambda x: CommutingSet("s", np.array([[1.0, 0.0], [x, 1.0]]), ((0,), (1,)), ((1.0,), (-1.0,))),
    "CommutingSet eigenvalues": lambda x: CommutingSet("s", np.eye(2), ((0,), (1,)), ((1.0,), (x,))),
    "CommutingSet labels": lambda x: CommutingSet("s", np.eye(2), ((0,), (x,)), ((1.0,), (-1.0,))),
    "QuantumState": lambda x: QuantumState(np.array([x, 0.0])),
    "make_state": lambda x: make_state([x, 1.0]),
    "SchedulerSpec.offset": lambda x: SchedulerSpec(kind="two-outcome", offset=x),
    "GridWavefunction.origin": lambda x: _grid(origin=x),
    "GridWavefunction.spacing": lambda x: _grid(spacing=x),
    "GridWavefunction.planck_step": lambda x: _grid(planck_step=x),
    "GridWavefunction.compton_wavelength": lambda x: _grid(compton_wavelength=x),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", HOSTILE, ids=["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("make", MODEL_INPUTS.values(), ids=MODEL_INPUTS.keys())
def test_model_constructors_refuse_hostile_numbers(make, bad):
    with pytest.raises(ValueError):
        make(bad)


# Values that are no real number at all, beside the hostile ones above.  A
# comparison TypeError escaped for '0.3', None and 1j, and True was kept as 1.
@pytest.mark.parametrize("bad", ["0.3", None, 1j, True, np.True_, np.complex128(0.3)], ids=repr)
def test_scheduler_offset_refuses_values_that_are_no_real_number(bad):
    with pytest.raises(ValueError, match=re.escape(f"offset must lie in [0, 1], got {bad!r}")):
        MODEL_INPUTS["SchedulerSpec.offset"](bad)


def test_scheduler_offset_is_stored_as_a_float():
    for given in (0.3, np.float64(0.3), 1, np.int64(0), np.float32(0.5)):
        spec = SchedulerSpec(kind="two-outcome", offset=given)
        assert type(spec.offset) is float and spec.offset == float(given)


# Every key that holds a number, in every block that has one.
FULL = """
system {
  dimension = 2
  state = 0.6, 0.8
  hamiltonian {
    row = 0.1, 0.5
    row = 0.5, 0.2
  }
}
csco {
  id = sz
  basis {
    row = 1, 0
    row = 0, 1
  }
  labels = (0), (1)
  eigenvalues = (1.5), (-1)
  scheduler {
    kind = seeded-random
    max_subintervals = 3
    seed = 5
    offset = 0.25
  }
}
experiment {
  kind = trajectory
  windows = 3
}
experiment {
  kind = born-sampling
  windows = 3
  window = 1
  samples = 100
  seed = 1
}
experiment {
  kind = offset-average
  windows = 3
  alpha = 0.5
  member = 0
}
experiment {
  kind = sub-tau
  windows = 3
  delta = 0.25
  pairs = 10
  seed = 2
}
experiment {
  kind = sequential-measurement
  runs = 5
  seed = 3
  step = sz, 0.5
}
experiment {
  kind = qgrid
  grid_file = grid.txt
  planck_step = 1.0
  compton_wavelength = 3.0
  center_cell = 2
  window_index = 1
  scheduler {
    kind = two-outcome
    offset = 0.3
  }
}
"""

_NUMBER = re.compile(r"\d+(?:\.\d+)?")
NUMBER_LINES = [
    i for i, line in enumerate(FULL.splitlines())
    if "=" in line and line.split("=")[0].strip() not in ("id", "kind", "grid_file")
]


def test_the_full_config_parses_and_names_every_number_key():
    cfg = parse_config_text(FULL)
    assert len(cfg.experiments) == 6
    keys = {FULL.splitlines()[i].split("=")[0].strip() for i in NUMBER_LINES}
    assert keys == {
        "dimension", "state", "row", "labels", "eigenvalues", "max_subintervals",
        "seed", "offset", "windows", "window", "samples", "alpha", "member", "delta", "pairs",
        "runs", "step", "planck_step", "compton_wavelength", "center_cell", "window_index",
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("at", NUMBER_LINES, ids=lambda i: f"line {i + 1}: {FULL.splitlines()[i].strip()}")
def test_config_refuses_hostile_numbers_at_their_line(at, bad):
    lines = FULL.splitlines()
    lines[at] = _NUMBER.sub(bad, lines[at], count=1)
    with pytest.raises(ConfigError) as info:
        parse_config_text("\n".join(lines))
    assert info.value.line == at + 1, str(info.value)



# ---------------------------------------------------------------------------
# Every numeric argument of the public API, generated from the signatures.
#
# A public callable is a function in the ``__all__`` of a qergo module, or a
# public method of a class listed there (``qergo.testing`` holds generators
# for the tests, not API).  Each of its parameters annotated ``float`` or
# ``int`` has one row: what it is (a real or an integer), how to make a valid
# call with the value as that argument, and a valid value.  An integer row
# also states the inclusive range ``lo, hi`` that ``partition._index`` holds
# it to, ``None`` for an open end: a seed is an integer of at least 0, and a
# window index one of ``WINDOW_INDEX``.  An estimate's label is left open:
# a label never drawn has the estimate 0.  Array
# parameters are not annotated ``float`` or ``int``, and a constructor is no
# public method: the checked constructors are ``MODEL_INPUTS`` above.

ROOT = Path(__file__).resolve().parent.parent

SPEC = SchedulerSpec()
SZ = sigma_z_set()
H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
STATE = make_state([0.6, 0.8])
P = np.array([0.36, 0.64])
PART = build_partition(P, 0, SPEC)
SCEN = Scenario(state0=STATE, hamiltonian=H, csets=(SZ,), schedulers={})
TRAJ = SCEN.build_trajectory(None, 3)
DIST = sample_born(TRAJ, 10, 0)
SYS = SystemUnderObservation.from_scenario(SCEN)
GRID = _grid()
CONFIG = load_config(ROOT / "configs" / "minimal.cfg")
GRID_FILE = ROOT / "configs" / "gaussian-grid.txt"

REAL, INTEGER = "real", "integer"
# The windows (N, N+1] whose ends are exact floats: float(2**53) + 1.0 rounds
# back to float(2**53).
WINDOW_INDEX = (0, 2**53 - 1)


def _joined(result):
    """``run_experiment``'s result with each artifact's blocks joined into its file's text."""
    artifacts, renorms = result
    return [(name, "".join(blocks)) for name, blocks in artifacts], renorms


ROWS = {
    ("ergodic.EmpiricalDistribution.estimate", "label"): (INTEGER, lambda x: DIST.estimate(x), 1, None, None),
    ("ergodic.window_average_step", "label"): (INTEGER, lambda x: window_average_step(PART, x), 1, 0, 1),
    ("ergodic.window_average_value", "member"): (INTEGER, lambda x: window_average_value(PART, SZ, x), 0, 0, 0),
    ("ergodic.sample_born", "n_samples"): (INTEGER, lambda x: sample_born(TRAJ, x, 0, 1), 10, 1, None),
    ("ergodic.sample_born", "seed"): (INTEGER, lambda x: sample_born(TRAJ, 10, x, 1), 3, 0, None),
    ("ergodic.sample_born", "window"): (INTEGER, lambda x: sample_born(TRAJ, 10, 0, x), 2, 0, 2),
    ("ergodic.offset_window_average", "alpha"): (REAL, lambda x: offset_window_average(TRAJ, x, SZ), 0.5),
    ("ergodic.offset_window_average", "member"): (INTEGER, lambda x: offset_window_average(TRAJ, 0.5, SZ, x), 0, 0, 0),
    ("ergodic.same_outcome_measure", "delta"): (REAL, lambda x: same_outcome_measure(TRAJ, x, 2), 0.25),
    # The range tests call with a lag of 0, which lets the base span reach the
    # last covered window; the others with a lag whose measure divides by it.
    ("ergodic.same_outcome_measure", "base_windows"): (
        INTEGER, lambda x: same_outcome_measure(TRAJ, 0.25, x), 2, 1, 3, lambda x: same_outcome_measure(TRAJ, 0.0, x)),
    ("ergodic.sub_tau_correlation", "delta"): (REAL, lambda x: sub_tau_correlation(TRAJ, x, 10, 0), 0.25),
    ("ergodic.sub_tau_correlation", "n_pairs"): (INTEGER, lambda x: sub_tau_correlation(TRAJ, 0.25, x, 0), 10, 1, None),
    ("ergodic.sub_tau_correlation", "seed"): (INTEGER, lambda x: sub_tau_correlation(TRAJ, 0.25, 10, x), 3, 0, None),
    ("hilbert.CommutingSet.basis_vector", "k"): (INTEGER, lambda x: SZ.basis_vector(x), 1, 0, 1),
    ("hilbert.CommutingSet.member_values", "member"): (INTEGER, lambda x: SZ.member_values(x), 0, 0, 0),
    ("hilbert.Hamiltonian.propagator", "du"): (REAL, lambda x: H.propagator(x), 0.5),
    ("hilbert.evolve", "du"): (REAL, lambda x: evolve(STATE, H, x), 0.5),
    ("hilbert.expectation", "member"): (INTEGER, lambda x: expectation(STATE, SZ, x), 0, 0, 0),
    ("measurement.advance", "u_target"): (REAL, lambda x: advance(SYS, x), 1.5),
    ("measurement.measure", "u"): (REAL, lambda x: measure(SYS, "sz", x), 1.5),
    ("measurement.measurement_operator_apply", "u"): (
        REAL, lambda x: measurement_operator_apply(STATE, PART, SZ, x), 0.5),
    ("measurement.sequence_records", "n_runs"): (INTEGER, lambda x: list(sequence_records(SCEN, [("sz", 0.5)], x, 0)), 2, 1, None),
    ("measurement.sequence_records", "seed"): (INTEGER, lambda x: list(sequence_records(SCEN, [("sz", 0.5)], 2, x)), 3, 0, None),
    ("measurement.sequential_experiment", "n_runs"): (INTEGER, lambda x: sequential_experiment(SCEN, [("sz", 0.5)], x, 0), 2, 1, None),
    ("measurement.sequential_experiment", "seed"): (INTEGER, lambda x: sequential_experiment(SCEN, [("sz", 0.5)], 2, x), 3, 0, None),
    ("microstate.JumpTrajectory.partition", "n"): (INTEGER, lambda x: TRAJ.partition(x), 2, 0, 2),
    ("microstate.Scenario.build_trajectory", "windows"): (INTEGER, lambda x: SCEN.build_trajectory("sz", x), 2, 1, MAX_WINDOWS),
    ("microstate.microstate_at", "u"): (REAL, lambda x: microstate_at(PART, SZ, x), 0.5),
    ("microstate.value_function", "member"): (INTEGER, lambda x: value_function(PART, SZ, x, 0.5), 0, 0, 0),
    ("microstate.value_function", "u"): (REAL, lambda x: value_function(PART, SZ, 0, x), 0.5),
    ("microstate.apply_value_operator", "u"): (REAL, lambda x: apply_value_operator(PART, SZ, 1, x), 0.5),
    ("microstate.apply_value_operator", "member"): (INTEGER, lambda x: apply_value_operator(PART, SZ, 1, 0.5, x), 0, 0, 0),
    ("microstate.shift_is_sound", "window_index"): (INTEGER, lambda x: shift_is_sound(H, SZ, x), 2, *WINDOW_INDEX),
    ("microstate.trajectory", "windows"): (INTEGER, lambda x: trajectory(STATE, H, SZ, SPEC, x), 2, 1, MAX_WINDOWS),
    ("partition.build_partition", "window_index"): (INTEGER, lambda x: build_partition(P, x, SPEC), 2, *WINDOW_INDEX),
    ("partition.build_partition_span", "lo"): (REAL, lambda x: build_partition_span(P, x, 1.0, SPEC, 0), 0.25),
    ("partition.build_partition_span", "hi"): (REAL, lambda x: build_partition_span(P, 0.0, x, SPEC, 0), 0.75),
    ("partition.build_partition_span", "window_index"): (
        INTEGER, lambda x: build_partition_span(P, 0.0, 1.0, SPEC, x), 0, *WINDOW_INDEX),
    ("partition.step_function", "label"): (INTEGER, lambda x: step_function(PART, x, 0.5), 1, 0, 1),
    ("partition.step_function", "u"): (REAL, lambda x: step_function(PART, 1, x), 0.5),
    ("partition.active_label", "u"): (REAL, lambda x: active_label(PART, x), 0.5),
    ("partition.interval_measure", "label"): (INTEGER, lambda x: interval_measure(PART, x), 1, 0, 1),
    ("partition.periodic_extend", "window_index"): (INTEGER, lambda x: periodic_extend(PART, x), 2, *WINDOW_INDEX),
    ("qgrid.GridWavefunction.cell_edges", "k"): (INTEGER, lambda x: GRID.cell_edges(x), 1, 0, 1),
    ("qgrid.window_renormalize", "k"): (INTEGER, lambda x: window_renormalize(GRID, x), 1, 0, 1),
    ("qgrid.planck_cell_probability", "k"): (INTEGER, lambda x: planck_cell_probability(window_renormalize(GRID, 1), x), 1, 1, 1),
    ("qgrid.window_cells", "k_center"): (INTEGER, lambda x: window_cells(GRID, x), 1, 0, 1),
    ("qgrid.cell_probabilities", "k_center"): (INTEGER, lambda x: cell_probabilities(GRID, x), 1, 0, 1),
    ("qgrid.position_partition", "k_center"): (INTEGER, lambda x: position_partition(GRID, x, 0, SPEC), 1, 0, 1),
    ("qgrid.position_partition", "window_index"): (INTEGER, lambda x: position_partition(GRID, 1, x, SPEC), 2, *WINDOW_INDEX),
    ("qgrid.load_grid", "planck_step"): (REAL, lambda x: load_grid(GRID_FILE, x, 9.0), 1.0),
    ("qgrid.load_grid", "compton_wavelength"): (REAL, lambda x: load_grid(GRID_FILE, 1.0, x), 9.0),
    ("qgrid.format_cell_probabilities", "k_center"): (INTEGER, lambda x: format_cell_probabilities(GRID, x), 1, 0, 1),
    ("runner.run_experiment", "ordinal"): (INTEGER, lambda x: _joined(run_experiment(CONFIG, CONFIG.experiments[0], x)), 1, 0, None),
}


def _public_callables():
    """("module.name" or "module.Class.method", function) for every public callable."""
    for info in pkgutil.iter_modules(qergo.__path__):
        if info.name == "testing":
            continue
        module = importlib.import_module(f"qergo.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # listed where it is defined
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


NUMERIC = {"float", "int", float, int}
PARAMETERS = sorted(
    (qualname, p.name)
    for qualname, fn in _public_callables()
    for p in inspect.signature(fn).parameters.values()
    if p.annotation in NUMERIC
)


def test_every_numeric_parameter_of_the_public_api_has_a_row():
    assert PARAMETERS, "no public callable found"
    assert set(PARAMETERS) - set(ROWS) == set(), "numeric parameters without a row"
    assert set(ROWS) - set(PARAMETERS) == set(), "rows for parameters that no longer exist"


# No number of any kind, then what is no real and no integer besides.
NO_NUMBER = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e999": 1e999, "'0.5'": "0.5",
    "None": None, "1j": 1j, "True": True, "np.True_": np.True_, "np.complex128(0.5)": np.complex128(0.5),
}
REFUSED = {
    REAL: {**NO_NUMBER, "10**400": 10**400},  # past the largest float
    INTEGER: {**NO_NUMBER, "1.5": 1.5, "2.0": 2.0},
}
CASES = [
    pytest.param(row, bad, id=f"{row[0]}({row[1]}={name})")
    for row in sorted(ROWS) for name, bad in REFUSED[ROWS[row][0]].items()
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row,bad", CASES)
def test_every_numeric_parameter_refuses_what_is_no_number_of_its_kind(row, bad):
    call = ROWS[row][1]
    with pytest.raises(ValueError):
        call(bad)


RANGES = {row: ROWS[row][3:5] for row in sorted(ROWS) if ROWS[row][0] == INTEGER}


def _range_call(row):
    """The call the range tests make: the one a row names after its range, else its own."""
    return ROWS[row][5] if len(ROWS[row]) > 5 else ROWS[row][1]


def _outside(lo, hi):
    """(id, value) of what a range refuses: ``lo - 1``, and ``hi + 1`` and ``10**400`` if ``hi`` is set."""
    if lo is not None:
        yield str(lo - 1), lo - 1
    if hi is not None:
        # 10**400 is past the largest float.
        yield from ((str(hi + 1), hi + 1), ("10**400", 10**400))


OUTSIDE = [
    pytest.param(row, bad, id=f"{row[0]}({row[1]}={name})")
    for row, bounds in RANGES.items() for name, bad in _outside(*bounds)
]
ENDS = [
    pytest.param(row, end, id=f"{row[0]}({row[1]}={end})")
    for row, bounds in RANGES.items() for end in sorted(set(bounds) - {None})
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row,bad", OUTSIDE)
def test_every_integer_parameter_refuses_what_is_outside_its_range(row, bad):
    lo, hi = RANGES[row]
    rule = f"an integer of at least {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    with pytest.raises(ValueError, match=re.escape(f" must be {rule}, got {bad}") + "$"):
        _range_call(row)(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row,end", ENDS)
def test_every_integer_parameter_accepts_both_ends_of_its_range(row, end):
    _range_call(row)(end)


def _same(a, b) -> bool:
    """Equal in type and value, field by field and entry by entry."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", sorted(ROWS), ids="{0[0]}({0[1]})".format)
def test_a_numpy_number_gives_what_the_plain_number_gives(row):
    kind, call, valid, *_ = ROWS[row]
    as_numpy = np.float64(valid) if kind == REAL else np.int64(valid)
    assert _same(call(as_numpy), call(valid))


# The grid's origin and lengths refuse what is no real number too.  A
# comparison TypeError escaped for '0.5', None and 1j, origin took True as
# 1.0, and each numpy complex raised numpy's ComplexWarning.
GRID_INPUTS = [
    "GridWavefunction.origin", "GridWavefunction.spacing",
    "GridWavefunction.planck_step", "GridWavefunction.compton_wavelength",
]
NOT_FLOATS = {name: x for name, x in NO_NUMBER.items() if not isinstance(x, float)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NOT_FLOATS.values(), ids=NOT_FLOATS.keys())
@pytest.mark.parametrize("make", GRID_INPUTS)
def test_grid_origin_and_lengths_refuse_what_is_no_real_number(make, bad):
    with pytest.raises(ValueError):
        MODEL_INPUTS[make](bad)


def test_grid_lengths_are_stored_as_floats():
    wf = _grid(origin=np.float64(-1.0), spacing=np.float64(1.0 / 32.0), planck_step=1, compton_wavelength=np.int64(1))
    lengths = (wf.origin, wf.spacing, wf.planck_step, wf.compton_wavelength)
    assert lengths == (-1.0, 1.0 / 32.0, 1.0, 1.0) and all(type(x) is float for x in lengths)


# _real takes a plain float by one math.isfinite; every other input takes the
# general path, kept here as the reference the plain-float test must match.
def _general_real(x):
    try:
        return float(x) if not isinstance(x, _NOT_REAL) and math.isfinite(x) else None
    except (TypeError, OverflowError):
        return None


class _Float(float):
    pass


DOUBLES = st.floats()  # nan, ±inf, subnormals and -0.0 among them
REALS = st.one_of(
    DOUBLES,
    DOUBLES.map(_Float),
    DOUBLES.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)


def _as_bits(x):
    return None if x is None else (type(x), x.hex(), x)


@settings(max_examples=500, deadline=None)
@given(REALS)
@example(-0.0)
@example(5e-324)
@example(_Float(-0.0))
@example(np.float64(-0.0))
@example(10**400)
def test_the_plain_float_test_of_real_agrees_with_its_general_path(x):
    got, want = _real(x), _general_real(x)
    assert _as_bits(got) == _as_bits(want)
    assert got is None or type(got) is float
