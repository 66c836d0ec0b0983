"""Microstates and deterministic jump trajectories.

At any instant exactly one labelled sub-interval of the current window
partition is active; the microstate at that instant is the corresponding
eigenvector, carrying its full multi-index label and eigenvalue tuple.
Following the active eigenvector through consecutive windows yields a
piecewise-constant jump trajectory: the state hops between eigenvectors at
the interior boundaries and the window layout is refrozen from the evolved
state at every integer crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    CONSERVED_TOL,
    CommutingSet,
    Hamiltonian,
    QuantumState,
    born_probabilities,
    off_diagonal_norm,
    step,
)
from .partition import (
    MEASURE_TOL,
    SchedulerSpec,
    SubInterval,
    WindowPartition,
    active_label,
    build_partition,
    periodic_extend,
)

__all__ = [
    "MicrostateSnapshot",
    "TrajectoryEvent",
    "JumpTrajectory",
    "Scenario",
    "MAX_WINDOWS",
    "microstate_at",
    "value_function",
    "apply_value_operator",
    "shift_is_sound",
    "trajectory",
    "dump_trajectory",
]


@dataclass(frozen=True, eq=False)
class MicrostateSnapshot:
    """The definite microscopic configuration at one instant."""

    cset_id: str
    time: float
    label_index: int
    label: tuple[int, ...]
    eigenvalues: tuple[float, ...]
    basis_vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.basis_vector, dtype=np.complex128)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"microstate vector norm {nrm!r} is not 1")
        v.setflags(write=False)
        object.__setattr__(self, "basis_vector", v)


@dataclass(frozen=True, eq=False)
class TrajectoryEvent:
    """One constant stretch of a jump trajectory."""

    window: int
    interval: SubInterval
    label_index: int
    label: tuple[int, ...]
    eigenvalues: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class JumpTrajectory:
    """A jump trajectory over whole windows ``(0, windows_covered]``.

    The constant stretches of every window, in time order, live in two
    read-only arrays: ``bounds`` (``float64[S+1]``, from ``0.0`` to
    ``windows_covered``) and ``labels`` (``intp[S]``); stretch ``i`` is
    ``(bounds[i], bounds[i+1]]`` with label index ``labels[i]``.  Window
    ``N`` owns stretches ``offsets[N]`` to ``offsets[N+1] - 1``, and
    ``partitions[N]`` is that window's layout, whose arrays are views into
    ``bounds`` and ``labels``.  ``states[N]`` is the window-start state.
    ``renorm_events`` counts drift corrections applied during the underlying
    evolution.
    """

    cset: CommutingSet
    scheduler: SchedulerSpec
    bounds: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    partitions: tuple[WindowPartition, ...]
    states: tuple[QuantumState, ...]
    renorm_events: int

    @property
    def cset_id(self) -> str:
        return self.cset.id

    @property
    def windows_covered(self) -> int:
        return len(self.partitions)

    @property
    def events(self) -> tuple[TrajectoryEvent, ...]:
        """One :class:`TrajectoryEvent` per stretch, built anew on each access."""
        b, c = self.bounds.tolist(), self.cset
        windows = np.repeat(np.arange(self.windows_covered), np.diff(self.offsets)).tolist()
        return tuple(
            TrajectoryEvent(n, SubInterval(lo, hi), k, c.labels[k], c.eigenvalues[k])
            for n, lo, hi, k in zip(windows, b, b[1:], self.labels.tolist())
        )

    def label_at(self, u: float) -> int:
        """Active label index at time ``u``."""
        if not 0.0 < u <= self.windows_covered:
            raise ValueError(
                f"time {u!r} outside the covered span (0, {self.windows_covered}]"
            )
        return int(self.labels[self.bounds[1:].searchsorted(u)])

    def labels_at(self, us: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`label_at` for sampling experiments."""
        us = np.asarray(us, dtype=float)
        if us.size and not (us.min() > 0.0 and us.max() <= self.windows_covered):  # NaN fails too
            raise ValueError("sample times must lie in (0, windows_covered]")
        return self.labels[self.bounds[1:].searchsorted(us)]

    def stretch_counts(self, us: np.ndarray) -> np.ndarray:
        """How many of the sorted times ``us`` fall in each stretch.

        Entry ``i`` counts the times in ``(bounds[i], bounds[i+1]]``, so a
        time on a bound counts in the earlier stretch, as in :meth:`labels_at`.
        ``np.repeat(labels, stretch_counts(us))`` is then ``labels_at(us)``.
        One search per bound over the sorted times replaces one search per
        time, which in random order mispredicts nearly every branch.
        """
        us = np.asarray(us, dtype=float)
        if us.size:
            # Written so that a NaN anywhere fails one of the two tests.
            if not np.all(us[1:] >= us[:-1]):
                raise ValueError("sample times must be sorted")
            if not (us[0] > 0.0 and us[-1] <= self.windows_covered):
                raise ValueError("sample times must lie in (0, windows_covered]")
        return np.diff(us.searchsorted(self.bounds, side="right"))


def microstate_at(partition: WindowPartition, cset: CommutingSet, u: float) -> MicrostateSnapshot:
    """Resolve the active eigenvector at time ``u`` within one window."""
    if partition.dimension != cset.dimension:
        raise ValueError("partition and commuting set dimensions differ")
    k = active_label(partition, u)
    return MicrostateSnapshot(
        cset_id=cset.id,
        time=u,
        label_index=k,
        label=cset.labels[k],
        eigenvalues=cset.eigenvalues[k],
        basis_vector=cset.basis_vector(k),
    )


def value_function(
    partition: WindowPartition, cset: CommutingSet, member: int, u: float
) -> float:
    """The definite value of one member observable at time ``u``.

    Piecewise constant in time: the eigenvalue of whichever eigenvector is
    active.  Jumps happen only at interior interval boundaries.
    """
    values = cset.member_values(member)
    return float(values[active_label(partition, u)])


def apply_value_operator(
    partition: WindowPartition,
    cset: CommutingSet,
    label,
    u: float,
    member: int = 0,
) -> np.ndarray:
    """Apply the time-dependent observable piece of one label to its eigenvector.

    While the label is active this is the member eigenvalue times the
    labelled eigenvector; while any other label is active the piece
    annihilates it and the zero vector comes back.
    """
    k = cset.label_index(label)
    if active_label(partition, u) != k:
        return np.zeros(cset.dimension, dtype=np.complex128)
    return cset.eigenvalues[k][member] * cset.basis_vector(k)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A closed-system setup: initial state, generator, observable sets.

    ``schedulers`` maps commuting-set ids to layout strategies; sets without
    an entry get the default contiguous layout.
    """

    state0: QuantumState
    hamiltonian: Hamiltonian
    csets: tuple[CommutingSet, ...]
    schedulers: dict[str, SchedulerSpec]
    windows: int = 1

    def __post_init__(self):
        if not self.csets:
            raise ValueError("scenario needs at least one commuting set")
        ids = [c.id for c in self.csets]
        if len(set(ids)) != len(ids):
            raise ValueError("commuting set ids must be distinct")
        dims = {c.dimension for c in self.csets} | {self.hamiltonian.dimension}
        if dims != {self.state0.dimension}:
            raise ValueError("state, hamiltonian and commuting set dimensions must agree")
        if self.windows < 1:
            raise ValueError("windows must be at least 1")

    def cset(self, cset_id: str | None = None) -> CommutingSet:
        if cset_id is None:
            if len(self.csets) != 1:
                raise ValueError("several commuting sets are defined; name one")
            return self.csets[0]
        for c in self.csets:
            if c.id == cset_id:
                return c
        raise ValueError(f"no commuting set with id {cset_id!r}")

    def scheduler_for(self, cset_id: str) -> SchedulerSpec:
        return self.schedulers.get(cset_id, SchedulerSpec())

    def build_trajectory(self, cset_id: str | None = None, windows: int | None = None) -> JumpTrajectory:
        c = self.cset(cset_id)
        return trajectory(
            self.state0,
            self.hamiltonian,
            c,
            self.scheduler_for(c.id),
            self.windows if windows is None else windows,
        )


def shift_is_sound(hamiltonian: Hamiltonian, cset: CommutingSet, window_index: int) -> bool:
    """Whether window ``window_index`` of ``cset`` may reuse window 0's layout, shifted.

    ``eps`` is the off-diagonal norm of H in the set's basis, memoized per
    Hamiltonian and set.  The set must be conserved (``eps <= CONSERVED_TOL``),
    and its weights, which drift by at most ``2 d eps`` per window
    (``|dp_k/du| <= 2 |H_off| <= 2 d eps``), must stay within ``MEASURE_TOL``
    of window 0's up to that window.  The answer depends on that window
    alone, and once false it stays false for every later window.
    """
    eps = off_diagonal_norm(hamiltonian, cset)
    return eps <= CONSERVED_TOL and 2 * cset.dimension * eps * window_index <= MEASURE_TOL


# Bounds are absolute floats, each off by up to ulp(windows) / 2; this cap
# keeps every window's measures well within MEASURE_TOL.
MAX_WINDOWS = 10_000


def trajectory(
    state0: QuantumState,
    hamiltonian: Hamiltonian,
    cset: CommutingSet,
    scheduler: SchedulerSpec,
    windows: int,
) -> JumpTrajectory:
    """Deterministic jump trajectory over windows ``0 .. windows-1``.

    Per window: freeze the eigenbasis weights of the current state, build
    the window layout, then step the state to the next integer boundary
    with ``exp(-iH)``, built once; the layouts end up back to back in the
    trajectory's arrays.  When every member observable commutes with the
    Hamiltonian the weights are constants of motion and the window-0 layout
    is reused verbatim, shifted by the window index — the layout freedom is
    resolved in favour of exact periodicity — in every window where
    :func:`shift_is_sound` holds.  So a window's layout does not depend on
    how many windows are asked for.
    """
    if windows < 1:
        raise ValueError("windows must be at least 1")
    if windows > MAX_WINDOWS:
        raise ValueError(f"windows = {windows} exceeds MAX_WINDOWS = {MAX_WINDOWS}")
    # off_diagonal_norm and born_probabilities reject mismatched dimensions.
    off_diagonal_norm(hamiltonian, cset)
    u = hamiltonian.propagator(1.0)
    psi, states, partitions, renorms = state0, [state0], [], 0
    for n in range(windows):
        if partitions and shift_is_sound(hamiltonian, cset, n):
            part = periodic_extend(partitions[0], n)
        else:
            part = build_partition(born_probabilities(psi, cset), n, scheduler)
        partitions.append(part)
        if n + 1 < windows:
            psi = step(u, psi)
            renorms += int(psi.renormalized)
            states.append(psi)
    # One pair of arrays for the whole trajectory; windows share their
    # boundary float, so each partition becomes a view into them.
    offsets = np.cumsum([0] + [part.labels.size for part in partitions])
    bounds = np.concatenate([p.bounds[:-1] for p in partitions] + [partitions[-1].bounds[-1:]])
    labels = np.concatenate([part.labels for part in partitions])
    for a in (offsets, bounds, labels):
        a.setflags(write=False)
    o = offsets.tolist()
    views = tuple(
        WindowPartition(
            part.window_index, part.lo, part.hi, part.probabilities,
            bounds[o[n]:o[n + 1] + 1], labels[o[n]:o[n + 1]],
        )
        for n, part in enumerate(partitions)
    )
    return JumpTrajectory(cset, scheduler, bounds, labels, offsets, views, tuple(states), renorms)


def dump_trajectory(traj: JumpTrajectory) -> str:
    """Render a trajectory as CSV text, one row per constant stretch.

    Columns: window, label (colon-joined multi-index), lo, hi, eigenvalues
    (colon-joined, repr floats).  Rows are in time order; floats use repr
    so a dump/parse round trip is bit-exact.  Each window is formatted as
    one string, its bounds repr'd once and the label and eigenvalue text
    taken per label; the window strings are joined at the end.
    """
    names = [":".join(str(i) for i in lab) for lab in traj.cset.labels]
    eigs = [":".join(repr(x) for x in ev) for ev in traj.cset.eigenvalues]
    b, labels, o = traj.bounds, traj.labels.tolist(), traj.offsets.tolist()
    chunks = ["window,label,lo,hi,eigenvalues\n"]
    for n in range(traj.windows_covered):
        i, j = o[n], o[n + 1]
        r = [repr(x) for x in b[i:j + 1].tolist()]
        chunks.append("".join(
            f"{n},{names[k]},{lo},{hi},{eigs[k]}\n" for k, lo, hi in zip(labels[i:j], r, r[1:])
        ))
    return "".join(chunks)
