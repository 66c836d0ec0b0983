"""The cheap common-path checks against the full checks they replace.

``QuantumState`` decides its norm with one reduction and looks at
finiteness only when that fails; ``_validated_probabilities`` decides the
common case with two.  The full checks are kept here as references: on
hostile input both sides must raise the same exception with the same
message, and on accepted input they must keep bit-identical arrays.  The
partition builders skip the work that changes no bit and store their
arrays unchecked; the step-by-step builder is kept here as their reference.
"""

import math

import numpy as np
import pytest

from qergo.hilbert import NORM_TOL, QuantumState, make_state
from qergo.microstate import trajectory
from qergo.partition import (
    PROB_SUM_TOL,
    SCHEDULER_KINDS,
    SchedulerSpec,
    WindowPartition,
    _seeded_random_layout,
    _validated_probabilities,
    build_partition,
    build_partition_span,
    periodic_extend,
)
from qergo.testing import random_cset, random_hamiltonian, random_probabilities, random_state


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


# The builder with every step a separate numpy call: the layouts, the bounds
# pipeline, the clamp, the seal and the checked WindowPartition constructor.
def reference_layout(p, window_index, spec):
    if spec.kind == "contiguous":
        labels = np.flatnonzero(p > 0.0)
        return p[labels], labels
    if spec.kind == "seeded-random":
        return _seeded_random_layout(p, window_index, spec)
    p0 = float(p[0])
    off = min(spec.offset, 1.0 - p0)
    rest = [(k, float(p[k])) for k in range(1, p.size) if p[k] > 0.0]
    widths, room, i = [], off, 0
    while room > 0.0 and i < len(rest):
        k, w = rest[i]
        if w <= room:
            widths.append((w, k))
            room -= w
            i += 1
        else:
            widths.append((room, k))
            rest[i] = (k, w - room)
            room = 0.0
    if p0 > 0.0:
        widths.append((p0, 0))
    widths.extend((w, k) for k, w in rest[i:])
    return np.array([w for w, _ in widths]), np.array([k for _, k in widths], dtype=np.intp)


def reference_seal(bounds, labels):
    keep = bounds[1:] > bounds[:-1]
    if not np.all(keep):
        bounds = np.concatenate((bounds[:1], bounds[1:][keep]))
        labels = labels[keep]
    return bounds, labels


def reference_build(probabilities, lo, hi, spec, window_index, seen):
    p = reference_probabilities(probabilities)
    widths, labels = reference_layout(p, window_index, spec)
    bounds = np.zeros(widths.size + 1)
    np.cumsum(widths, out=bounds[1:])
    bounds *= hi - lo
    bounds += lo
    bounds[-1] = hi
    if bounds[-2] > hi:
        seen.add("clamp")
        np.minimum(bounds, hi, out=bounds)
    sealed = reference_seal(bounds, labels)
    if sealed[0].size < bounds.size:
        seen.add("seal")
    return WindowPartition(window_index, lo, hi, p, *sealed)


def assert_read_only_arrays(part):
    for name, dtype in (("probabilities", np.float64), ("bounds", np.float64), ("labels", np.intp)):
        a = getattr(part, name)
        assert type(a) is np.ndarray and a.dtype == dtype and not a.flags.writeable, name


def assert_same_partition(got, want):
    assert_read_only_arrays(got)
    assert (got.window_index, got.lo, got.hi) == (want.window_index, want.lo, want.hi)
    for name in ("probabilities", "bounds", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _lean_builder_cases():
    """(weights, lo, hi, window) over whole windows up to 10**4 and partial spans."""
    rng = np.random.default_rng(40)
    cases = []
    for d in (1, 2, 3, 4, 7, 16):
        for _ in range(25):
            p = random_probabilities(rng, d)
            if d > 2 and rng.random() < 0.3:  # some weights exactly zero
                p[rng.integers(d)] = 0.0
                p = p / p.sum()
            n = int(rng.choice([0, 1, 2, 17, 999, 10**4]))
            cases.append((p, float(n), n + 1.0, n))
            u = n + float(rng.random())
            cases.append((p, u, n + 1.0, n))
            cases.append((p, u, u + float(rng.uniform(1e-6, 3.0)), n))
    # Sub-ulp last weights: partial sums can round past hi, where the
    # clamp and the seal take over.  Near 0 the rounding shows most.
    overshooting = [0.3521690750691994, 0.2771775720926887, 0.37065335283811185, 4.661954861284995e-18]
    cases.append((np.array(overshooting), 0.0, 1.0, 0))
    for i in range(400):
        w = np.append(rng.uniform(1e-3, 1.0, int(rng.integers(1, 6))), rng.uniform(1e-30, 1e-16))
        lo = float(rng.uniform(0.0, 1.0 if i % 2 else 1e3))
        n = math.floor(lo)
        cases.append((w / w.sum(), float(n), n + 1.0, n))
        cases.append((w / w.sum(), lo, n + 1.0, n))
    return cases


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_lean_builders_equal_the_step_by_step_reference(kind):
    seen = set()
    # A shuffled layout rarely ends on its sub-ulp piece: three seeds.
    for seed in (0, 1, 2) if kind == "seeded-random" else (0,):
        spec = SchedulerSpec(kind=kind, max_subintervals=3, seed=seed, offset=0.3)
        for p, lo, hi, n in _lean_builder_cases():
            want = reference_build(p, lo, hi, spec, n, seen)
            assert_same_partition(build_partition_span(p, lo, hi, spec, n), want)
            if (lo, hi) == (float(n), n + 1.0):
                assert_same_partition(build_partition(p, n, spec), want)
    # The cases reach both the clamp and the seal.
    assert seen == {"clamp", "seal"}


def test_every_builder_gives_read_only_float64_and_intp_arrays():
    rng = np.random.default_rng(41)
    for kind in SCHEDULER_KINDS:
        spec = SchedulerSpec(kind=kind, max_subintervals=3, seed=2)
        p = random_probabilities(rng, 5)
        base = build_partition(p, 0, spec)
        for part in (base, build_partition_span(p, 0.25, 1.0, spec, 0), periodic_extend(base, 7)):
            assert_read_only_arrays(part)
        traj = trajectory(random_state(rng, 5), random_hamiltonian(rng, 5), random_cset(rng, 5), spec, 4)
        for n in range(4):
            assert_read_only_arrays(traj.partition(n))
    # A caller's lists and writable arrays are converted and frozen by the
    # checked constructor, which leaves the caller's array writable.
    bounds = np.array([0.0, 0.5, 1.0])
    assert_read_only_arrays(WindowPartition(0, 0.0, 1.0, [0.5, 0.5], bounds, [0, 1]))
    assert bounds.flags.writeable
