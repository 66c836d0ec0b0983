"""The cheap common-path checks against the full checks they replace.

``QuantumState`` decides its norm with one reduction and looks at
finiteness only when that fails; ``_validated_probabilities`` decides the
common case with two.  The full checks are kept here as references: on
hostile input both sides must raise the same exception with the same
message, and on accepted input they must keep bit-identical arrays.
"""

import numpy as np
import pytest

from qergo.hilbert import NORM_TOL, QuantumState, make_state
from qergo.partition import PROB_SUM_TOL, SchedulerSpec, _validated_probabilities, build_partition
from qergo.testing import random_hamiltonian, random_state


def reference_probabilities(probabilities) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probabilities must form a non-empty 1-d vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < -1e-12):
        raise ValueError(f"probabilities must be non-negative, got min {p.min()!r}")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, off 1 by more than {PROB_SUM_TOL}")
    if total != 1.0:
        p = p / total
    return p


def reference_amplitudes(amplitudes) -> np.ndarray:
    vec = np.array(amplitudes, dtype=np.complex128)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("state amplitudes must form a non-empty 1-d vector")
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise ValueError("state amplitudes must be finite")
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(
            f"state norm {nrm!r} deviates from 1 by more than {NORM_TOL}; "
            "use make_state() to normalize raw amplitudes"
        )
    return vec


def outcome(fn, arg):
    """What ``fn(arg)`` does: ("ok", dtype, shape, bytes) or ("raise", type, message)."""
    try:
        a = fn(arg)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raise", type(exc), str(exc))
    return ("ok", a.dtype, a.shape, a.tobytes())


def _born_vectors():
    rng = np.random.default_rng(20)
    out = []
    for d in (1, 2, 3, 4, 16):
        for _ in range(40):
            psi = random_state(rng, d).amplitudes
            out.append(np.abs(psi) ** 2)
    return out


HOSTILE_PROBABILITIES = [
    [np.nan, 1.0],
    [1.0, np.nan],
    [np.inf, 0.0],
    [-np.inf, 1.0],
    [0.5, np.inf],
    [1e308, 1e308],
    [-2e-12, 1.0],
    [-1e-9, 0.5, 0.5],
    [-1e-13, 1.0],
    [-1e-13, 1.0 + 1e-13],
    [-0.0, 1.0],
    [1.0, -0.0, 0.0],
    [-0.0, -0.0],
    [0.0, 0.0],
    [0.5, 0.5 + 2e-6],
    [0.5, 0.5 - 2e-6],
    [0.5, 0.5 + 5e-7],
    [0.25, 0.25, 0.25, 0.25 - 9e-7],
    [[0.5, 0.5]],
    [[1.0]],
    [],
    0.5,
    [1.0],
    [1, 0],
    [0.3, 0.7],
    [1 / 3] * 3,
    [5e-324, 1.0],
    [1e-300, 1.0 - 1e-300],
    np.array([0.25, 0.75], dtype=np.float32),
    np.arange(8.0)[::2] / 12.0,
]


def assert_same_probabilities(p):
    want = outcome(reference_probabilities, p)
    assert outcome(_validated_probabilities, p) == want
    spec = SchedulerSpec()
    assert outcome(lambda q: build_partition(q, 0, spec).probabilities, p) == want


@pytest.mark.parametrize("p", HOSTILE_PROBABILITIES, ids=repr)
def test_validated_probabilities_equal_full_checks_on_hostile_input(p):
    assert_same_probabilities(p)


def test_validated_probabilities_equal_full_checks_on_born_weights():
    for p in _born_vectors():
        assert_same_probabilities(p)


def test_negative_zero_weight_is_stored_as_positive_zero():
    got = _validated_probabilities([-0.0, 1.0])
    assert not np.signbit(got[0])


def _near_unit(delta: float) -> np.ndarray:
    return np.array([1.0 + delta, 0.0], dtype=complex)


HOSTILE_AMPLITUDES = [
    [np.nan, 0.0],
    [1.0, complex(0.0, np.nan)],
    [np.inf, 0.0],
    [complex(0.6, -np.inf), 0.8],
    [1e200, 1e200],
    [1e200, 0.0],
    [1e-200, 0.0],
    [1.0 + 1e-8, 0.0],
    [1.0 - 1e-8, 0.0],
    [0.6, 0.8j],
    [-0.0, 1.0],
    [complex(1.0, -0.0), 0.0],
    [5e-324, 1.0],
    [[1.0, 0.0]],
    [],
    [1.0],
    [2.0],
    [0.0, 0.0],
]
# Deltas that straddle NORM_TOL, where the one-reduction verdict hands over
# to the full check.
HOSTILE_AMPLITUDES += [_near_unit(k * 1e-11) for k in range(-110, 111, 3)]
HOSTILE_AMPLITUDES += [_near_unit(s * NORM_TOL * f) for s in (1, -1) for f in (0.9, 0.95, 0.999, 1.0, 1.001)]


def _random_amplitudes():
    rng = np.random.default_rng(21)
    out = [random_state(rng, d).amplitudes for d in (1, 2, 3, 4, 16, 64) for _ in range(20)]
    h = random_hamiltonian(rng, 4)
    psi = random_state(rng, 4)
    u = h.propagator(0.37)
    for _ in range(50):
        v = u @ psi.amplitudes
        out.append(v)
        psi = make_state(v)
    return out


def assert_same_state(amplitudes):
    want = outcome(reference_amplitudes, amplitudes)
    assert outcome(lambda a: QuantumState(a).amplitudes, amplitudes) == want


@pytest.mark.parametrize("amplitudes", HOSTILE_AMPLITUDES, ids=repr)
def test_quantum_state_check_equals_full_checks_on_hostile_input(amplitudes):
    assert_same_state(amplitudes)


def test_quantum_state_check_equals_full_checks_on_evolved_states():
    for amplitudes in _random_amplitudes():
        assert_same_state(amplitudes)


def test_propagator_equals_uncached_adjoint():
    rng = np.random.default_rng(22)
    for d in (1, 2, 4, 16):
        h = random_hamiltonian(rng, d)
        w, v = np.linalg.eigh(h.matrix)
        for du in (0.0, 1e-9, 0.3, 1.0, 17.25):
            want = (v * np.exp(-1j * w * du)) @ v.conj().T
            assert h.propagator(du).tobytes() == want.tobytes()
