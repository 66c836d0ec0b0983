"""The measurement step derives each fact once and keeps every bit.

``hilbert.step`` hands a vector whose norm it has just checked to the state
without a second check or a copy; a commuting set keeps one collapse state
per eigenvector and its adjoint basis; a Hamiltonian keeps ``-1j * w`` and
its off-diagonal norm per set.  Each test compares against the formulation
that derived the fact again on every call.
"""

from pathlib import Path

import numpy as np
import pytest

import qergo.hilbert as hilbert
from qergo.hilbert import (
    NORM_TOL,
    Hamiltonian,
    QuantumState,
    born_probabilities,
    is_conserved,
    make_state,
    off_diagonal_norm,
    step,
)
from qergo.measurement import SystemUnderObservation, measure
from qergo.microstate import Scenario
from qergo.runner import run_scenario
from qergo.testing import random_cset, random_hamiltonian, random_state, sigma_x_set, sigma_z_set

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _reference_step(propagator, state):
    psi = propagator @ state.amplitudes
    nrm = float(np.linalg.norm(psi))
    drifted = abs(nrm - 1.0) > NORM_TOL
    if drifted:
        psi = psi / nrm
    return QuantumState(psi, renormalized=drifted)


def _assert_same_state(got, want):
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert got.amplitudes.dtype == np.complex128 and got.amplitudes.shape == want.amplitudes.shape
    assert not got.amplitudes.flags.writeable
    assert got.renormalized == want.renormalized
    assert got.input_norm == want.input_norm


# A propagator scaled by 1 +- 0.9e-9 passes the one-reduction squared-norm
# test; by 1 +- 0.97e-9 it fails that test but stays within NORM_TOL; by
# 1 + 1.01e-9 and 1 + 1e-8 it drifts past NORM_TOL.
SCALES = (1.0, 1.0 + 0.9e-9, 1.0 - 0.9e-9, 1.0 + 0.97e-9, 1.0 - 0.97e-9, 1.0 + 1.01e-9, 1.0 + 1e-8)


@pytest.mark.parametrize("d", [2, 3, 4, 16])
def test_step_equals_constructing_the_state_from_the_product(d):
    rng = np.random.default_rng(100 + d)
    h = random_hamiltonian(rng, d)
    renormalized = kept = 0
    for scale in SCALES:
        u = h.propagator(0.37) * scale
        got = want = random_state(rng, d)
        for _ in range(200):
            got, want = step(u, got), _reference_step(u, want)
            _assert_same_state(got, want)
            renormalized += got.renormalized
            kept += not got.renormalized
    assert kept >= 300 and renormalized >= 300  # both paths, 1,400 steps in all


def test_step_keeps_the_copy_free_state_apart_from_its_input():
    s = make_state([0.6, 0.8j])
    u = Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]])).propagator(0.5)
    out = step(u, s)
    assert out.amplitudes is not s.amplitudes
    assert not np.shares_memory(out.amplitudes, s.amplitudes)
    assert not out.renormalized and out.input_norm == 1.0 and out.dimension == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_with_a_non_finite_propagator_raises_the_constructors_message(bad):
    s = make_state([0.6, 0.8])
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with pytest.raises(ValueError) as want:
        _reference_step(u, s)
    with pytest.raises(ValueError) as got:
        step(u, s)
    assert str(got.value) == str(want.value) == "state amplitudes must be finite"


def test_born_probabilities_equal_the_uncached_adjoint_product():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4, 16):
        c = random_cset(rng, d)
        for _ in range(50):
            s = random_state(rng, d)
            want = np.abs(c.basis.conj().T @ s.amplitudes) ** 2
            assert born_probabilities(s, c).tobytes() == want.tobytes()


def test_collapses_onto_one_eigenvector_share_one_read_only_state():
    sz = sigma_z_set()
    h = Hamiltonian(np.zeros((2, 2)))
    scenario = Scenario(state0=make_state([0.0, 1.0]), hamiltonian=h, csets=(sz,), schedulers={})
    first, sys = measure(SystemUnderObservation.from_scenario(scenario), "sz", 0.5)
    second, _ = measure(sys, "sz", 1.5)
    assert first.outcome_index == second.outcome_index == 1
    assert first.post_state is second.post_state is sz.eigenstates[1]
    post = first.post_state
    assert post.amplitudes.tobytes() == sz.basis_vector(1).tobytes()
    assert not post.amplitudes.flags.writeable
    assert not post.renormalized and post.input_norm == 1.0


def test_eigenstates_hold_the_basis_columns_bitwise():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 16):
        c = random_cset(rng, d)
        assert len(c.eigenstates) == d and c.eigenstates is c.eigenstates
        for k, s in enumerate(c.eigenstates):
            assert s.amplitudes.tobytes() == c.basis_vector(k).tobytes()


@pytest.fixture
def computed(monkeypatch) -> list[str]:
    """The set ids whose off-diagonal norm is computed, in order."""
    ids = []
    original = hilbert._off_diagonal_norm

    def counting(hamiltonian, cset):
        ids.append(cset.id)
        return original(hamiltonian, cset)

    monkeypatch.setattr(hilbert, "_off_diagonal_norm", counting)
    return ids


def test_off_diagonal_norm_is_computed_once_per_hamiltonian_and_set(computed):
    h = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    sz, sx = sigma_z_set(), sigma_x_set()
    eps = off_diagonal_norm(h, sz)
    assert eps == 0.5
    assert off_diagonal_norm(h, sz) == eps and not is_conserved(h, sz)
    assert is_conserved(h, sx)
    assert computed == ["sz", "sx"]
    # A set equal in content is another key: sets compare by identity.
    off_diagonal_norm(h, sigma_z_set())
    assert computed == ["sz", "sx", "sz"]


def test_off_diagonal_norm_still_rejects_a_dimension_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="dimension mismatch between hamiltonian and basis"):
        off_diagonal_norm(random_hamiltonian(rng, 3), random_cset(rng, 2))


def test_a_config_computes_each_sets_off_diagonal_norm_once(computed, tmp_path):
    # Three experiments each build a trajectory of the one set sz, on one H.
    run_scenario(CONFIG_DIR / "rabi-born.cfg", out_dir=tmp_path)
    assert computed == ["sz"]
