import math
import re
import warnings

import numpy as np
import pytest

from qergo.hilbert import (
    HERMITICITY_TOL,
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
from qergo.testing import haar_unitary, random_cset, random_hamiltonian, random_state, sigma_z_set


def test_make_state_already_normalized():
    s = make_state([1.0, 0.0])
    assert np.array_equal(s.amplitudes, np.array([1.0, 0.0], dtype=complex))


def test_make_state_345_is_exact():
    s = make_state([0.6, 0.8j])
    # 3-4-5 arithmetic: the norm is exactly 1, so no rescaling happens
    assert np.array_equal(s.amplitudes, np.array([0.6, 0.8j]))
    assert float(np.linalg.norm(s.amplitudes)) == 1.0


def test_make_state_scales_to_unit_norm():
    s = make_state([2.0, 0.0, 0.0])
    assert np.array_equal(s.amplitudes, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_make_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        make_state([0.0, 0.0])


def test_quantum_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="make_state"):
        QuantumState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("amplitudes", [[1e200, 1e200], [1e200, 0.0]])
def test_quantum_state_refuses_an_overflowing_norm_without_a_warning(amplitudes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"state norm inf deviates from 1"):
            QuantumState(amplitudes)


def test_quantum_state_amplitudes_read_only():
    s = make_state([1.0, 0.0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_evolve_zero_hamiltonian_is_identity():
    H = Hamiltonian(np.zeros((2, 2)))
    s = make_state([0.6, 0.8j])
    out = evolve(s, H, 7.0)
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_evolve_sigma_z_phase():
    H = Hamiltonian(np.diag([1.0, -1.0]))
    s = make_state([1.0, 0.0])
    out = evolve(s, H, np.pi)
    # e^{-i pi} = -1 on the first component
    assert abs(out.amplitudes[0] - (-1.0)) < 1e-12
    assert abs(out.amplitudes[1]) == 0.0


def test_evolve_rejects_backward_and_mismatch():
    H = Hamiltonian(np.zeros((2, 2)))
    s = make_state([1.0, 0.0])
    with pytest.raises(ValueError, match="backward"):
        evolve(s, H, -0.1)
    with pytest.raises(ValueError, match="mismatch"):
        evolve(make_state([1.0, 0.0, 0.0]), H, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("du", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_evolve_refuses_a_non_finite_duration(du):
    # Refused before any numpy call, so no overflow or invalid-value warning
    # comes first and the message names the duration, not the state.
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="du must be finite"):
        evolve(make_state([1.0, 0.0]), H, du)


def test_evolve_unitarity_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        s = random_state(rng, d)
        H = random_hamiltonian(rng, d)
        du = float(rng.uniform(0.0, 10.0))
        out = evolve(s, H, du)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9


def test_evolve_composition():
    rng = np.random.default_rng(12)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        s = random_state(rng, d)
        H = random_hamiltonian(rng, d)
        a, b = rng.uniform(0.0, 3.0, size=2)
        two_step = evolve(evolve(s, H, a), H, b)
        one_step = evolve(s, H, a + b)
        # same H, so even the global phase agrees
        assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) < 1e-8


def test_born_computational_basis():
    sz = sigma_z_set()
    assert np.array_equal(born_probabilities(make_state([1.0, 0.0]), sz), [1.0, 0.0])
    p = born_probabilities(make_state([1.0, 1.0]), sz)
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)


def test_born_rabi_closed_form():
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    sz = sigma_z_set()
    s = make_state([1.0, 0.0])
    for u in [0.3, 1.0, 2.5, 7.0]:
        p = born_probabilities(evolve(s, H, u), sz)
        assert abs(p[0] - np.cos(u / 2) ** 2) < 1e-12


def test_born_completeness_random():
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = int(rng.integers(2, 17))
        p = born_probabilities(random_state(rng, d), random_cset(rng, d))
        assert abs(p.sum() - 1.0) <= 1e-10
        assert np.all(p >= 0.0)


def test_expectation_symmetric_and_weighted():
    sz = sigma_z_set()
    assert expectation(make_state([1.0, 1.0]), sz) == pytest.approx(0.0, abs=1e-15)
    s = make_state([0.6, 0.8])
    assert expectation(s, sz) == pytest.approx(-0.28, abs=1e-15)


def test_expectation_computational():
    cs = CommutingSet(id="n", basis=np.eye(2), labels=((0,), (1,)), eigenvalues=((5.0,), (9.0,)))
    assert expectation(make_state([1.0, 0.0]), cs) == 5.0
    with pytest.raises(ValueError, match="member"):
        expectation(make_state([1.0, 0.0]), cs, member=1)


def test_expectation_matches_matrix_sandwich():
    rng = np.random.default_rng(14)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        s = random_state(rng, d)
        cs = random_cset(rng, d)
        direct = expectation(s, cs)
        m = (cs.basis * cs.member_values(0)) @ cs.basis.conj().T
        sandwich = float(np.real(np.vdot(s.amplitudes, m @ s.amplitudes)))
        assert abs(direct - sandwich) < 1e-10


def test_conserved_detection():
    sz = sigma_z_set()
    assert is_conserved(Hamiltonian(np.diag([0.7, -0.2])), sz)
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert not is_conserved(H, sz)
    assert off_diagonal_norm(H, sz) == pytest.approx(0.5, abs=1e-15)


def test_cset_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        CommutingSet(id="bad", basis=np.array([[1.0, 1.0], [0.0, 1.0]]),
                     labels=((0,), (1,)), eigenvalues=((1.0,), (2.0,)))
    with pytest.raises(ValueError, match="distinct"):
        CommutingSet(id="dup", basis=np.eye(2), labels=((0,), (0,)),
                     eigenvalues=((1.0,), (2.0,)))
    with pytest.raises(ValueError, match="arity"):
        CommutingSet(id="ar", basis=np.eye(2), labels=((0,), (1,)),
                     eigenvalues=((1.0,), (2.0, 3.0)))


def test_cset_label_lookup_and_multi_index():
    rng = np.random.default_rng(15)
    basis = haar_unitary(rng, 4)
    labels = ((0, 0), (0, 1), (1, 0), (1, 1))
    eigs = tuple((float(i), float(j)) for i, j in labels)
    cs = CommutingSet(id="pair", basis=basis, labels=labels, eigenvalues=eigs)
    assert cs.n_members == 2
    assert cs.label_index((1, 0)) == 2
    with pytest.raises(ValueError, match="no eigenvector"):
        cs.label_index((2, 2))
    single = sigma_z_set()
    assert single.label_index(1) == 1


@pytest.mark.parametrize(
    "label", [1, np.int64(1), np.array(1), [1], np.array([1]), (np.int32(1),)], ids=repr
)
def test_label_index_accepts_a_bare_int_in_any_form(label):
    # A 0-d array used to raise TypeError: iteration over a 0-d array.
    assert sigma_z_set().label_index(label) == 1


@pytest.mark.parametrize("label", [np.array(1.0), np.array(True), "1", np.array([[1]])], ids=repr)
def test_label_index_refuses_non_integer_labels(label):
    with pytest.raises(ValueError):
        sigma_z_set().label_index(label)


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_hamiltonian_hermiticity_tolerance_scales_with_entries(scale):
    u = haar_unitary(np.random.default_rng(0), 8)
    m = (u * (scale * (1.0 + np.random.default_rng(1).random(8)))) @ u.conj().T
    assert np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL  # rounding alone
    assert Hamiltonian(m).dimension == 8
    m[0, 1] += 1e-8 * scale
    with pytest.raises(ValueError, match="Hermitian"):
        Hamiltonian(m)


def test_hamiltonian_hermiticity_tolerance_is_absolute_up_to_unit_entries():
    Hamiltonian(np.array([[0.0, 0.5], [0.5 + 0.9e-10, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        Hamiltonian(np.array([[0.0, 0.5], [0.5 + 2e-10, 0.0]]))


# float() took '0.5' as 0.5 and True as 1.0, and warned on a numpy complex.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), "0.5", True, None, 1j, np.True_, np.complex128(0.5)]
)
def test_commuting_set_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        CommutingSet("sz", np.eye(2), ((0,), (1,)), ((1.0,), (bad,)))


# numpy read True as a boolean index (a 3-d array came back), 1.5 failed
# with an IndexError and '1' with a comparison TypeError.
@pytest.mark.parametrize("k", [True, np.True_, 1.5, 1.0, "1", None], ids=repr)
def test_basis_vector_takes_only_an_integer_column(k):
    with pytest.raises(ValueError, match=re.escape(f"column index must be an integer, got {k!r}")):
        sigma_z_set().basis_vector(k)


# propagator(nan) returned an all-NaN matrix and propagator('0.5') failed in numpy.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("du", [math.nan, math.inf, "0.5", None, 1j, True, np.complex128(0.5)], ids=repr)
def test_propagator_refuses_what_evolve_refuses_with_its_message(du):
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError) as by_propagator:
        H.propagator(du)
    with pytest.raises(ValueError) as by_evolve:
        evolve(make_state([1.0, 0.0]), H, du)
    assert str(by_propagator.value) == str(by_evolve.value) == f"duration du must be finite, got {du!r}"


@pytest.mark.parametrize(
    "vec, unit",
    [
        ([1e200, 1e200], [0.5**0.5, 0.5**0.5]),
        ([1e154, 1e154], [0.5**0.5, 0.5**0.5]),
        ([1e308 + 1e308j, 0.0], [0.5**0.5 + 0.5**0.5 * 1j, 0.0]),
        ([1e-200, 0.0], [1.0, 0.0]),
        ([1e-160, 0.0], [1.0, 0.0]),
        ([3e-170, -4e-170j], [0.6, -0.8j]),
    ],
    ids=repr,
)
def test_make_state_normalizes_vectors_whose_squares_overflow_or_underflow(vec, unit):
    s = make_state(vec)
    assert abs(float(np.linalg.norm(s.amplitudes)) - 1.0) <= 1e-15
    assert np.max(np.abs(s.amplitudes - np.array(unit, dtype=complex))) <= 1e-15


@pytest.mark.parametrize(
    "vec",
    [[0.0, 0.0], [0.0j], [math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf], [complex(0.0, math.inf)]],
    ids=repr,
)
def test_make_state_still_rejects_zero_and_non_finite_vectors(vec):
    with pytest.raises(ValueError, match="cannot normalize a zero or non-finite vector"):
        make_state(vec)


def test_make_state_divides_ordinary_vectors_by_their_plain_norm():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        vec = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 10.0 ** rng.uniform(-140, 150)
        s = make_state(vec)
        assert np.array_equal(s.amplitudes, vec / np.linalg.norm(vec))


NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
def test_hamiltonian_rejects_non_finite_entries(bad, where):
    # A NaN deviation never exceeds the Hermiticity tolerance, and inf - inf
    # is NaN, so these matrices used to pass that check.
    m = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    m[where] = bad
    m[where[::-1]] = np.conj(bad)
    with pytest.raises(ValueError, match="hamiltonian entries must be finite"):
        Hamiltonian(m)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_commuting_set_rejects_non_finite_basis_entries(bad):
    basis = np.eye(2, dtype=complex)
    basis[1, 0] = bad
    with pytest.raises(ValueError, match="basis entries must be finite"):
        CommutingSet("sz", basis, ((0,), (1,)), ((1.0,), (-1.0,)))
