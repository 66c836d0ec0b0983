"""Finite-dimensional states, commuting observable sets, and unitary evolution.

Conventions used throughout the package:

* Times are dimensionless window units ``u = t / tau``; window ``N`` is the
  half-open interval ``(N, N + 1]``.
* Hamiltonian matrices are dimensionless as well (energy times ``tau/hbar``),
  so propagation over ``du`` window units applies ``exp(-i H du)``.
* A maximal set of commuting observables is stored as a single orthonormal
  eigenbasis whose columns carry a multi-index label (one integer per member
  observable) and a tuple of real eigenvalues (one per member).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .partition import _index, _real

NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
CONSERVED_TOL = 1e-10

__all__ = [
    "NORM_TOL",
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "CONSERVED_TOL",
    "QuantumState",
    "CommutingSet",
    "Hamiltonian",
    "make_state",
    "evolve",
    "born_probabilities",
    "expectation",
    "off_diagonal_norm",
    "is_conserved",
]


# |n^2 - 1| <= 1.9 NORM_TOL gives |n - 1| <= 0.95 NORM_TOL, a margin far wider
# than the rounding by which two ways of summing the squares can differ.
_NORM_SQ_SLACK = 1.9 * NORM_TOL

# Below this norm some squares summed by np.linalg.norm may be subnormal.
_MIN_PLAIN_NORM = 1e-150


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A normalized state vector.

    The constructor rejects vectors whose norm strays from 1 by more than
    ``NORM_TOL`` instead of silently fixing them; use :func:`make_state`
    to normalize arbitrary input.  ``renormalized`` marks states whose
    construction step applied a drift correction (see :func:`evolve`).
    """

    amplitudes: np.ndarray
    renormalized: bool = False

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=np.complex128)
        if vec.ndim != 1 or vec.size < 1:
            raise ValueError("state amplitudes must form a non-empty 1-d vector")
        # One reduction decides the common case: a squared norm within
        # _NORM_SQ_SLACK of 1 puts the norm well inside NORM_TOL, and a
        # non-finite or overflowing vector never lands there.  Everything
        # else takes the full checks, in their order and with their messages;
        # a sum of squares that overflows is refused, not warned about.
        re_im = vec.view(np.float64)
        with np.errstate(over="ignore"):
            if not abs(float(re_im @ re_im) - 1.0) <= _NORM_SQ_SLACK:
                if not np.all(np.isfinite(re_im)):
                    raise ValueError("state amplitudes must be finite")
                nrm = float(np.linalg.norm(vec))
                if abs(nrm - 1.0) > NORM_TOL:
                    raise ValueError(
                        f"state norm {nrm!r} deviates from 1 by more than {NORM_TOL}; "
                        "use make_state() to normalize raw amplitudes"
                    )
        object.__setattr__(self, "amplitudes", _readonly(vec))

    @property
    def dimension(self) -> int:
        return self.amplitudes.size


def _unit_state(vec: np.ndarray) -> QuantumState:
    """A :class:`QuantumState` that holds ``vec`` itself, made read-only.

    For a fresh 1-d complex128 vector whose norm the caller has just found
    within ``NORM_TOL`` of 1: the constructor would accept it and store a
    bitwise copy, so its checks and its copy are skipped.
    """
    state = object.__new__(QuantumState)
    object.__setattr__(state, "amplitudes", _readonly(vec))
    object.__setattr__(state, "renormalized", False)
    return state


def make_state(amplitudes) -> QuantumState:
    """Normalize raw amplitudes into a :class:`QuantumState`.

    Rejects the zero vector and non-finite amplitudes.
    """
    vec = np.asarray(amplitudes, dtype=np.complex128)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("state amplitudes must form a non-empty 1-d vector")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(vec))
    if not _MIN_PLAIN_NORM <= nrm < math.inf:
        # The unscaled squares overflowed, or underflowed into subnormals
        # that lose digits: take the norm of vec / max|x| instead.
        scale = float(np.max(np.maximum(np.abs(vec.real), np.abs(vec.imag))))
        if scale == 0.0 or not math.isfinite(scale):
            raise ValueError("cannot normalize a zero or non-finite vector")
        vec = vec / scale
        unit = float(np.linalg.norm(vec))
        return QuantumState(vec / unit)
    return QuantumState(vec / nrm)


def _label_text(label) -> str:
    """A multi-index label as every artifact writes it: ``0`` or ``0:1``."""
    return ":".join(map(str, label))


def _eigenvalue_text(eigenvalues) -> str:
    """An eigenvalue tuple as every artifact writes it: repr floats, colon-joined."""
    return ":".join(map(repr, eigenvalues))


@dataclass(frozen=True, eq=False)
class CommutingSet:
    """A complete set of commuting observables, stored via its joint eigenbasis.

    ``basis`` holds the orthonormal eigenvectors as columns.  Column ``k``
    carries the multi-index ``labels[k]`` (one integer per member observable)
    and the eigenvalue tuple ``eigenvalues[k]`` (one real value per member).
    Labels must be pairwise distinct: jointly they identify the eigenvector.
    """

    id: str
    basis: np.ndarray
    labels: tuple[tuple[int, ...], ...]
    eigenvalues: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.id:
            raise ValueError("commuting set id must be a non-empty string")
        b = np.array(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
            raise ValueError(f"basis must be a square matrix, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis entries must be finite")
        d = b.shape[0]
        gram_dev = float(np.max(np.abs(b.conj().T @ b - np.eye(d))))
        if gram_dev > UNITARITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal: max |B*B - I| = {gram_dev:.3e}"
            )
        labels = tuple(tuple(_index(i, "label") for i in lab) for lab in self.labels)
        eigs = tuple(tuple(map(_real, ev)) for ev in self.eigenvalues)
        if len(labels) != d or len(eigs) != d:
            raise ValueError("need exactly one label and one eigenvalue tuple per basis column")
        if len(set(labels)) != d:
            raise ValueError("labels must be pairwise distinct")
        arities = {len(lab) for lab in labels} | {len(ev) for ev in eigs}
        if len(arities) != 1 or 0 in arities:
            raise ValueError("labels and eigenvalue tuples must share one positive arity")
        if any(None in ev for ev in eigs):
            raise ValueError("eigenvalues must be finite real numbers")
        object.__setattr__(self, "basis", _readonly(b))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    @property
    def n_members(self) -> int:
        """Number of member observables in the commuting set."""
        return len(self.labels[0])

    @cached_property
    def _label_lookup(self) -> dict[tuple[int, ...], int]:
        return {lab: k for k, lab in enumerate(self.labels)}

    def label_index(self, label) -> int:
        """Column index for a multi-index label (a bare or 0-d integer means a 1-tuple)."""
        key = tuple(_index(i, "label") for i in ((label,) if np.ndim(label) == 0 else label))
        try:
            return self._label_lookup[key]
        except KeyError:
            raise ValueError(f"{self.id!r} has no eigenvector labelled {key}") from None

    @cached_property
    def _adjoint(self) -> np.ndarray:
        """The adjoint basis ``basis.conj().T``, read-only."""
        return _readonly(self.basis.conj()).T

    @cached_property
    def eigenstates(self) -> tuple[QuantumState, ...]:
        """One read-only state per basis column, in column order, built on first use.

        A collapse onto column ``k`` ends on ``eigenstates[k]``, so every
        collapse onto one eigenvector shares one state object.
        """
        return tuple(QuantumState(self.basis[:, k]) for k in range(self.dimension))

    def basis_vector(self, k: int) -> np.ndarray:
        """Copy of eigenvector column ``k``."""
        if not 0 <= (k := _index(k, "column index")) < self.dimension:
            raise ValueError(f"column index {k} out of range for dimension {self.dimension}")
        return self.basis[:, k].copy()

    @cached_property
    def _member_columns(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _readonly(np.array([ev[m] for ev in self.eigenvalues])) for m in range(self.n_members)
        )

    def member_values(self, member: int) -> np.ndarray:
        """Read-only eigenvalues of one member observable, one per basis column."""
        if not 0 <= (member := _index(member, "member")) < self.n_members:
            raise ValueError(f"member index {member} out of range ({self.n_members} members)")
        return self._member_columns[member]


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """A Hermitian generator of time evolution (dimensionless units)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"hamiltonian must be a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("hamiltonian entries must be finite")
        # Rounding in H's entries grows with their size, so the tolerance
        # does too; for max |H| <= 1 it is the absolute HERMITICITY_TOL.
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"hamiltonian is not Hermitian: max |H - H*| = {dev:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``-1j`` times the energies, the eigenvectors, and their adjoint ``v.conj().T``."""
        w, v = np.linalg.eigh(self.matrix)
        return _readonly(-1j * w), _readonly(v), _readonly(v.conj()).T

    @cached_property
    def _off_diagonal(self) -> dict:
        """Off-diagonal norms found so far, keyed by commuting set (by identity).

        See :func:`off_diagonal_norm`.
        """
        return {}

    def propagator(self, du: float) -> np.ndarray:
        """Unitary ``exp(-i H du)`` built from the cached eigensystem.

        ``du`` must be a finite real number, as for :func:`evolve`.
        """
        du, (minus_iw, v, v_adj) = _duration(du), self._eigensystem
        # (-1j * w) * du: the products -1j * w * du takes, in its order.
        return (v * np.exp(minus_iw * du)) @ v_adj


def _duration(du) -> float:
    """``du`` as a float if it is a finite real number; anything else is a ValueError."""
    if (d := _real(du)) is None:
        raise ValueError(f"duration du must be finite, got {du!r}")
    return d


def evolve(state: QuantumState, hamiltonian: Hamiltonian, du: float) -> QuantumState:
    """Propagate ``state`` forward by ``du`` window units.

    Backward and non-finite evolution are rejected.  If accumulated
    rounding pushes the propagated norm off 1 by more than ``NORM_TOL`` the
    vector is rescaled and the returned state carries ``renormalized=True``;
    callers that need bit-level determinism audits can count those flags.
    """
    if (du := _duration(du)) < 0:
        raise ValueError(f"cannot evolve backward (du = {du})")
    if hamiltonian.dimension != state.dimension:
        raise ValueError(
            f"dimension mismatch: state {state.dimension}, hamiltonian {hamiltonian.dimension}"
        )
    if du == 0.0:
        return state
    # Through the public propagator, though its check of du cannot fail here:
    # a subclass or a test that replaces propagator changes what evolve applies.
    return step(hamiltonian.propagator(du), state)


def step(propagator: np.ndarray, state: QuantumState) -> QuantumState:
    """Apply a prebuilt propagator to ``state``, renormalizing as :func:`evolve` does.

    For callers that take many equal steps and build the propagator once
    (a complex ``d x d`` matrix, as :meth:`Hamiltonian.propagator` gives).
    A product within ``NORM_TOL`` of unit norm becomes the new state as it
    is, without a second norm check or a copy.  Left out of ``__all__`` so
    that perfbench's tracer, which wraps the functions listed there, counts
    a step's time in its caller's span.
    """
    psi = propagator @ state.amplitudes
    # One reduction decides the common case, as in QuantumState: a squared
    # norm within _NORM_SQ_SLACK of 1 puts np.linalg.norm within NORM_TOL.
    re_im = psi.view(np.float64)
    if abs(float(re_im @ re_im) - 1.0) <= _NORM_SQ_SLACK:
        return _unit_state(psi)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) <= NORM_TOL:
        return _unit_state(psi)
    # Drifted, or not finite: the constructor's checks and messages decide.
    return QuantumState(psi / nrm, renormalized=True)


def born_probabilities(state: QuantumState, cset: CommutingSet) -> np.ndarray:
    """Probability vector ``|<k|psi>|^2`` over the eigenbasis columns."""
    if cset.dimension != state.dimension:
        raise ValueError(
            f"dimension mismatch: state {state.dimension}, basis {cset.dimension}"
        )
    amp = cset._adjoint @ state.amplitudes
    return np.abs(amp) ** 2


def _born_rows(amplitudes: np.ndarray, cset: CommutingSet) -> np.ndarray:
    """:func:`born_probabilities` of each row of ``amplitudes`` (``[W, d]``), bit for bit.

    A stacked matmul takes each row's product as ``born_probabilities``
    does; one gemm (``amplitudes @ basis.conj()``) does not round the same.
    Left out of ``__all__``, as :func:`step` is.
    """
    adjoint = np.broadcast_to(cset._adjoint, (len(amplitudes), *cset._adjoint.shape))
    return np.abs((adjoint @ amplitudes[:, :, None])[:, :, 0]) ** 2


def expectation(state: QuantumState, cset: CommutingSet, member: int = 0) -> float:
    """Quantum expectation of one member observable in ``state``."""
    w = cset.member_values(member)
    p = born_probabilities(state, cset)
    return float(p @ w)


# Most off-diagonal norms one Hamiltonian keeps for reuse.
_OFF_DIAGONAL_MEMO_SIZE = 128


def off_diagonal_norm(hamiltonian: Hamiltonian, cset: CommutingSet) -> float:
    """Max-abs off-diagonal entry of the Hamiltonian in the set's eigenbasis.

    Both objects are immutable, so the Hamiltonian keeps the norm of up to
    ``_OFF_DIAGONAL_MEMO_SIZE`` sets and returns it again for the same set.
    """
    memo = hamiltonian._off_diagonal
    eps = memo.get(cset)
    if eps is None:
        eps = _off_diagonal_norm(hamiltonian, cset)
        if len(memo) < _OFF_DIAGONAL_MEMO_SIZE:
            memo[cset] = eps
    return eps


def _off_diagonal_norm(hamiltonian: Hamiltonian, cset: CommutingSet) -> float:
    if hamiltonian.dimension != cset.dimension:
        raise ValueError("dimension mismatch between hamiltonian and basis")
    m = cset._adjoint @ hamiltonian.matrix @ cset.basis
    off = m - np.diag(np.diag(m))
    return float(np.max(np.abs(off)))


def is_conserved(hamiltonian: Hamiltonian, cset: CommutingSet) -> bool:
    """Whether every member observable commutes with the Hamiltonian.

    True exactly when the Hamiltonian is diagonal in the joint eigenbasis
    (up to ``CONSERVED_TOL``), in which case eigenbasis weights are
    constants of motion and window layouts can be chosen periodic.
    """
    return off_diagonal_norm(hamiltonian, cset) <= CONSERVED_TOL
