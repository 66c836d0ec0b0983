"""Every numeric input refuses nan, inf, -inf and an overflowing literal.

A refusal is a ValueError, or a ConfigError at the line of the offending
entry; the input is never accepted, and no OverflowError or TypeError
escapes from the checks.
"""

import math
import re

import numpy as np
import pytest

from qergo import ConfigError, parse_config_text
from qergo.hilbert import CommutingSet, Hamiltonian, QuantumState, make_state
from qergo.partition import SchedulerSpec
from qergo.qgrid import GridWavefunction

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

