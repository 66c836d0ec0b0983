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

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    CONSERVED_TOL,
    CommutingSet,
    Hamiltonian,
    QuantumState,
    _born_rows,
    _eigenvalue_text,
    _label_text,
    born_probabilities,
    off_diagonal_norm,
    step,
)
from .partition import (
    MEASURE_TOL,
    SchedulerSpec,
    SubInterval,
    WindowPartition,
    _draw_layouts,
    _index,
    _stretch_table,
    active_label,
    build_partition,
    build_partition_span,
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
    """A jump trajectory over whole windows ``(0, windows_covered]``, as arrays.

    The constant stretches of every window, in time order, live in two
    read-only arrays: ``bounds`` (``float64[S+1]``, from ``0.0`` to
    ``windows_covered``) and ``labels`` (``intp[S]``); stretch ``i`` is
    ``(bounds[i], bounds[i+1]]`` with label index ``labels[i]``.  Window
    ``N`` owns stretches ``offsets[N]`` to ``offsets[N+1] - 1``.
    ``probabilities[N]`` holds the weights frozen at window ``N``'s start
    that its layout realizes (a shifted window holds window 0's), and
    ``amplitudes[N]`` the window-start state; both are ``[W, d]``.
    :meth:`partition` builds one window's layout on request, as views into
    these arrays.  ``renorm_events`` counts drift corrections applied during
    the underlying evolution.
    """

    cset: CommutingSet
    bounds: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    probabilities: np.ndarray
    amplitudes: np.ndarray
    renorm_events: int

    @property
    def cset_id(self) -> str:
        return self.cset.id

    @property
    def windows_covered(self) -> int:
        return self.offsets.size - 1

    def partition(self, n: int) -> WindowPartition:
        """Window ``n``'s layout, built on each call from views into the arrays."""
        if not 0 <= (n := _index(n, "window")) < self.windows_covered:
            raise ValueError(f"window {n} outside the covered range [0, {self.windows_covered})")
        i, j = self.offsets[n], self.offsets[n + 1]
        return WindowPartition._of(
            n, float(n), n + 1.0, self.probabilities[n], self.bounds[i:j + 1], self.labels[i:j]
        )

    @property
    def events(self) -> tuple[TrajectoryEvent, ...]:
        """One :class:`TrajectoryEvent` per stretch, built anew on each access."""
        b, c = self.bounds.tolist(), self.cset
        windows = np.repeat(np.arange(self.windows_covered), np.diff(self.offsets)).tolist()
        return tuple(
            TrajectoryEvent(n, SubInterval(lo, hi), k, c.labels[k], c.eigenvalues[k])
            for n, lo, hi, k in zip(windows, b, b[1:], self.labels.tolist())
        )

    def labels_at(self, us: np.ndarray) -> np.ndarray:
        """Active label index at each time in ``us``, for sampling experiments."""
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
        time=float(u),
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
    value = cset.member_values(member)[k]
    if active_label(partition, u) != k:
        return np.zeros(cset.dimension, dtype=np.complex128)
    return value * cset.basis_vector(k)


# The layout of every set that a scenario gives no scheduler.
_DEFAULT_SCHEDULER = SchedulerSpec()


@dataclass(frozen=True, eq=False)
class Scenario:
    """A closed-system setup: initial state, generator, observable sets.

    ``schedulers`` maps commuting-set ids to layout strategies; sets without
    an entry get the default contiguous layout.  How many windows a
    trajectory covers is the caller's choice, made per
    :meth:`build_trajectory` call.
    """

    state0: QuantumState
    hamiltonian: Hamiltonian
    csets: tuple[CommutingSet, ...]
    schedulers: dict[str, SchedulerSpec]

    def __post_init__(self):
        if not self.csets:
            raise ValueError("scenario needs at least one commuting set")
        by_id = {c.id: c for c in self.csets}
        if len(by_id) != len(self.csets):
            raise ValueError("commuting set ids must be distinct")
        object.__setattr__(self, "_by_id", by_id)
        dims = {c.dimension for c in self.csets} | {self.hamiltonian.dimension}
        if dims != {self.state0.dimension}:
            raise ValueError("state, hamiltonian and commuting set dimensions must agree")
        if not isinstance(self.schedulers, dict):
            raise ValueError(f"schedulers must map set ids to SchedulerSpecs, got {self.schedulers!r}")
        for cid, spec in self.schedulers.items():
            if cid not in by_id:
                raise ValueError(f"scheduler given for {cid!r}, which names no commuting set")
            if not isinstance(spec, SchedulerSpec):
                raise ValueError(f"scheduler for {cid!r} must be a SchedulerSpec, got {spec!r}")

    def cset(self, cset_id: str | None = None) -> CommutingSet:
        if cset_id is None:
            if len(self.csets) != 1:
                raise ValueError("several commuting sets are defined; name one")
            return self.csets[0]
        try:
            return self._by_id[cset_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id names no set either
            raise ValueError(f"no commuting set with id {cset_id!r}") from None

    def scheduler_for(self, cset_id: str) -> SchedulerSpec:
        return self.schedulers.get(cset_id, _DEFAULT_SCHEDULER)

    def build_trajectory(self, cset_id: str | None, windows: int) -> JumpTrajectory:
        """The trajectory of set ``cset_id`` (``None`` for the only set) over ``windows`` windows."""
        c = self.cset(cset_id)
        return trajectory(self.state0, self.hamiltonian, c, self.scheduler_for(c.id), windows)


def shift_is_sound(hamiltonian: Hamiltonian, cset: CommutingSet, window_index: int) -> bool:
    """Whether window ``window_index`` of ``cset`` may reuse window 0's layout, shifted.

    ``eps`` is the off-diagonal norm of H in the set's basis, memoized per
    Hamiltonian and set.  The set must be conserved (``eps <= CONSERVED_TOL``),
    and its weights, which drift by at most ``2 d eps`` per window
    (``|dp_k/du| <= 2 |H_off| <= 2 d eps``), must stay within ``MEASURE_TOL``
    of window 0's up to that window.  The answer depends on that window
    alone, and once false it stays false for every later window.
    """
    n, eps = _index(window_index, "window_index"), off_diagonal_norm(hamiltonian, cset)
    return eps <= CONSERVED_TOL and 2 * cset.dimension * eps * n <= MEASURE_TOL


@dataclass(frozen=True, eq=False)
class LayoutBase:
    """A state and its window-0 layouts, one per set, each built on first use.

    A set's whole windows where :func:`shift_is_sound` holds are its layout
    here, shifted by the window index.  A trajectory starts one from its
    initial state; the measurement protocol starts one from the initial
    state and one from every collapsed state.
    """

    state: QuantumState
    layouts: dict = field(default_factory=dict, init=False, repr=False)


def span_partition(
    hamiltonian: Hamiltonian, cset: CommutingSet, scheduler: SchedulerSpec,
    state: QuantumState, lo: float, base: LayoutBase,
) -> WindowPartition:
    """The layout of ``(lo, floor(lo) + 1]``, from ``state`` frozen at ``lo``.

    The one rule behind every layout of a trajectory and of the measurement
    protocol.  A span that starts inside a window (after a collapse) is a
    remainder, laid out from ``state`` over what is left of the window.  A
    whole window ``N`` is ``base``'s window-0 layout shifted by ``N`` where
    :func:`shift_is_sound` holds (window 0 is that layout itself), and is
    otherwise built from ``state``.
    """
    n = math.floor(lo)
    if lo != n:
        return build_partition_span(born_probabilities(state, cset), lo, n + 1.0, scheduler, n)
    if shift_is_sound(hamiltonian, cset, n):
        layouts = base.layouts
        if cset.id not in layouts:
            layouts[cset.id] = build_partition(born_probabilities(base.state, cset), 0, scheduler)
        return periodic_extend(layouts[cset.id], n) if n else layouts[cset.id]
    return build_partition(born_probabilities(state, cset), n, scheduler)


# Bounds are absolute floats, each off by up to ulp(windows) / 2; this cap
# keeps every window's measures well within MEASURE_TOL.
MAX_WINDOWS = 10_000

# Windows a trajectory steps, and draws the seeded-random layouts of, at a time.
_CHUNK = 64


def trajectory(
    state0: QuantumState,
    hamiltonian: Hamiltonian,
    cset: CommutingSet,
    scheduler: SchedulerSpec,
    windows: int,
) -> JumpTrajectory:
    """Deterministic jump trajectory over windows ``0 .. windows-1``.

    Works through ``_CHUNK`` windows at a time.  It first steps the state
    to each of their starts with ``exp(-iH)``, built once, writing each
    window-start state into row ``n`` of a ``[W, d]`` array; a
    seeded-random chunk then draws the layouts of the windows it will
    build in one batch (see :func:`_draw_layouts`).  Then each window is
    laid out with :func:`span_partition` from its state and a
    :class:`LayoutBase` of ``state0``, and its weights written into row
    ``n``; the layouts end up back to back in the trajectory's ``bounds``
    and ``labels``, and no per-window object is kept.  When every
    member observable commutes with the Hamiltonian the weights are
    constants of motion, and window 0's layout is reused verbatim, shifted
    by the window index, in every window where :func:`shift_is_sound`
    holds: the layout freedom is resolved in favour of exact periodicity.
    So a window's layout does not depend on how many windows are asked for,
    and it is the layout the measurement protocol gives that window before
    any collapse.  Mismatched dimensions are rejected before any step.
    """
    if (windows := _index(windows, "windows")) < 1:
        raise ValueError("windows must be at least 1")
    if windows > MAX_WINDOWS:
        raise ValueError(f"windows = {windows} exceeds MAX_WINDOWS = {MAX_WINDOWS}")
    if not state0.dimension == hamiltonian.dimension == cset.dimension:
        raise ValueError(
            f"dimension mismatch: state {state0.dimension}, "
            f"hamiltonian {hamiltonian.dimension}, basis {cset.dimension}"
        )
    u = hamiltonian.propagator(1.0)
    psi, base, renorms = state0, LayoutBase(state0), 0
    probabilities = np.empty((windows, cset.dimension))
    amplitudes = np.empty((windows, cset.dimension), dtype=np.complex128)
    bounds, labels = [], []
    for start in range(0, windows, _CHUNK):
        chunk, states = range(start, min(start + _CHUNK, windows)), []
        for n in chunk:
            states.append(psi)
            amplitudes[n] = psi.amplitudes
            if n + 1 < windows:
                psi = step(u, psi)
                renorms += int(psi.renormalized)
        if scheduler.kind == "seeded-random":
            built = [n for n in chunk if not shift_is_sound(hamiltonian, cset, n)]
            if built:
                _draw_layouts(_born_rows(amplitudes[built], cset), built, scheduler)
        for n, state in zip(chunk, states):
            part = span_partition(hamiltonian, cset, scheduler, state, n, base)
            probabilities[n] = part.probabilities
            # Windows share their boundary float: each keeps its lower bounds.
            bounds.append(part.bounds[:-1])
            labels.append(part.labels)
    bounds.append(part.bounds[-1:])
    offsets = np.cumsum([0] + [a.size for a in labels])
    arrays = (np.concatenate(bounds), np.concatenate(labels), offsets, probabilities, amplitudes)
    for a in arrays:
        a.setflags(write=False)
    return JumpTrajectory(cset, *arrays, renorms)


def dump_trajectory(traj: JumpTrajectory) -> str:
    """Render a trajectory as CSV text, one row per constant stretch.

    Columns: window, label (colon-joined multi-index), lo, hi, eigenvalues
    (colon-joined, repr floats).  Rows are in time order; floats use repr
    so a dump/parse round trip is bit-exact.  The label and eigenvalue text
    is built once per label, and :func:`~qergo.partition._stretch_table`
    formats the rows a block at a time straight from the trajectory's
    arrays.
    """
    heads = [f",{_label_text(lab)}," for lab in traj.cset.labels]
    tails = [f",{_eigenvalue_text(ev)}\n" for ev in traj.cset.eigenvalues]
    return _stretch_table(
        "window,label,lo,hi,eigenvalues\n", traj.bounds, traj.labels, traj.offsets, 0, heads, tails
    )
