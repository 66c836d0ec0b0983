"""Measurement protocol: outcome extraction, collapse, and global re-partitioning.

A system under observation carries one evolving state plus one live window
partition per commuting set.  Measuring an observable set at time ``u``
reads off the label active at ``u`` — the outcome is deterministic once the
partitions are fixed; randomness enters only through the choice of
measurement time.  The state then collapses to the outcome eigenvector and
the remainder of the current window becomes a fresh origin: every set's
partition of it has sub-interval measures proportional to the collapsed
state's probabilities over the remaining span.  A partition is built on its
first read, so one that is never read is never built.

All operations are by value: each returns a new system snapshot, so runs
can be branched, replayed, and compared without interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hilbert import CommutingSet, Hamiltonian, QuantumState, born_probabilities, evolve
from .microstate import Scenario
from .partition import (
    SchedulerSpec,
    WindowPartition,
    active_label,
    build_partition,
    build_partition_span,
    periodic_extend,
)

__all__ = [
    "MeasurementRecord",
    "SystemUnderObservation",
    "SequenceDistribution",
    "advance",
    "measure",
    "measurement_operator_apply",
    "total_variation",
    "sequence_records",
    "sequential_experiment",
    "format_measurement_log",
    "format_sequence_distribution",
]


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One completed measurement: when, what, which outcome, state before/after."""

    time: float
    cset_id: str
    outcome_index: int
    outcome_label: tuple[int, ...]
    outcome_eigenvalues: tuple[float, ...]
    pre_state: QuantumState
    post_state: QuantumState


@dataclass(frozen=True, eq=False)
class SystemUnderObservation:
    """Immutable snapshot of a monitored system of ``scenario``.

    Every live partition of the current (possibly partial) window is a pure
    function of the span origin: ``origin_state`` frozen at time ``origin``
    (the window start, or the last collapse time) in window
    ``window_index``.  The scenario's conserved sets lay out whole windows
    as window-0 layouts of ``base_state`` (the last collapsed state, or the
    initial one) shifted in place (exact periodicity), in every window
    where :meth:`Scenario.periodic` allows it.  :meth:`partition`
    builds a set's partition on its first read and keeps it while the
    origin stays put.  ``renorm_events`` counts the drift corrections of
    every evolution step so far.
    """

    scenario: Scenario
    state: QuantumState
    current_time: float
    origin_state: QuantumState
    origin: float
    window_index: int
    base_state: QuantumState
    history: tuple[MeasurementRecord, ...] = ()
    renorm_events: int = 0
    # Partitions read so far; init=False so ``replace`` starts a new memo.
    _built: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def start(
        cls,
        state: QuantumState,
        hamiltonian: Hamiltonian,
        csets: tuple[CommutingSet, ...],
        schedulers: Mapping[str, SchedulerSpec] | None = None,
    ) -> "SystemUnderObservation":
        """Set up observation at u = 0, at the start of window 0."""
        return cls.from_scenario(Scenario(state, hamiltonian, tuple(csets), dict(schedulers or {})))

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "SystemUnderObservation":
        s = scenario.state0
        return cls(scenario, s, 0.0, origin_state=s, origin=0.0, window_index=0, base_state=s)

    def cset(self, cset_id: str) -> CommutingSet:
        return self.scenario.cset(cset_id)

    @property
    def window_end(self) -> float:
        return float(self.window_index) + 1.0

    def partition(self, cset_id: str) -> WindowPartition:
        """The live partition of one set, built from the span origin on first read."""
        part = self._built.get(cset_id)
        if part is None:
            c = self.scenario.cset(cset_id)
            spec = self.scenario.scheduler_for(cset_id)
            n = self.window_index
            if self.origin != n:  # after a mid-window collapse: the remainder only
                p = born_probabilities(self.origin_state, c)
                part = build_partition_span(p, self.origin, self.window_end, spec, n)
            elif self.scenario.periodic(cset_id, n):
                p = born_probabilities(self.base_state, c)
                part = periodic_extend(build_partition(p, 0, spec), n)
            else:
                part = build_partition(born_probabilities(self.origin_state, c), n, spec)
            self._built[cset_id] = part
        return part

    @property
    def partitions(self) -> Mapping[str, WindowPartition]:
        return {c.id: self.partition(c.id) for c in self.scenario.csets}


def advance(sys: SystemUnderObservation, u_target: float) -> SystemUnderObservation:
    """Evolve the system to ``u_target``, refreezing layouts at each crossing.

    Stepping stops at every window boundary on the way: the state is evolved
    to the boundary, which becomes the origin the next window's partitions
    are built from, and evolution continues.  Arriving exactly on a boundary
    does not open the next window (the boundary still belongs to the old
    one).
    """
    if u_target < sys.current_time:
        raise ValueError(
            f"cannot advance backward: current u = {sys.current_time}, target {u_target}"
        )
    if u_target == sys.current_time:
        return sys
    state, h = sys.state, sys.scenario.hamiltonian
    u = sys.current_time
    renorms = sys.renorm_events
    n, origin_state, origin = sys.window_index, sys.origin_state, sys.origin
    while True:
        end = float(n) + 1.0
        if u_target <= end:
            state = evolve(state, h, u_target - u)
            renorms += int(state.renormalized)
            u = u_target
            break
        state = evolve(state, h, end - u)
        renorms += int(state.renormalized)
        u = end
        n, origin_state, origin = int(end), state, end
    out = replace(
        sys,
        state=state,
        current_time=u,
        origin_state=origin_state,
        origin=origin,
        window_index=n,
        renorm_events=renorms,
    )
    if n == sys.window_index:  # same origin, so the same partitions
        object.__setattr__(out, "_built", sys._built)
    return out


def measure(
    sys: SystemUnderObservation, cset_id: str, u: float
) -> tuple[MeasurementRecord, SystemUnderObservation]:
    """Measure one observable set at time ``u``.

    Advances to ``u``, reads the label active in that set's partition (the
    outcome — deterministic given the partitions), collapses the state to
    the outcome eigenvector bitwise, makes the collapse the new origin of
    the remainder of the window, and appends the record.  Every partition
    is later built from the collapsed state, on its first read.  A
    measurement exactly on a window boundary starts the next window fresh
    instead (the remainder is empty).
    """
    here = advance(sys, u)
    c = here.cset(cset_id)  # raises for unknown ids before any state change
    idx = active_label(here.partition(cset_id), u)
    pre = here.state
    post = QuantumState(c.basis_vector(idx))
    record = MeasurementRecord(
        time=u,
        cset_id=cset_id,
        outcome_index=idx,
        outcome_label=c.labels[idx],
        outcome_eigenvalues=c.eigenvalues[idx],
        pre_state=pre,
        post_state=post,
    )
    after = replace(
        here,
        state=post,
        origin_state=post,
        origin=u,
        window_index=here.window_index + (u == here.window_end),
        # Conserved layouts are refrozen from the collapsed state too.
        base_state=post,
        history=here.history + (record,),
    )
    return record, after


def measurement_operator_apply(
    state: QuantumState, partition: WindowPartition, cset: CommutingSet, u: float
) -> np.ndarray:
    """Apply the time-dependent measurement operator to a state.

    Returns the overlap with the active eigenvector times that eigenvector
    — deliberately unnormalized; normalization happens only in the collapse
    step of :func:`measure`.
    """
    if cset.dimension != state.dimension or partition.dimension != cset.dimension:
        raise ValueError("state, partition, and commuting set dimensions must agree")
    k = active_label(partition, u)
    col = cset.basis_vector(k)
    coeff = np.vdot(col, state.amplitudes)
    return coeff * col


@dataclass(frozen=True, eq=False)
class SequenceDistribution:
    """Joint distribution of outcome-label sequences from repeated runs."""

    steps: tuple[str, ...]
    counts: dict[tuple[tuple[int, ...], ...], int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")

    @classmethod
    def from_runs(
        cls,
        steps: Iterable[tuple[str, float]],
        records_per_run: Iterable[Sequence[MeasurementRecord]],
    ) -> "SequenceDistribution":
        """Count each run's outcome labels; ``steps`` are the (set id, time) pairs."""
        counts: dict[tuple[tuple[int, ...], ...], int] = {}
        for records in records_per_run:
            key = tuple(rec.outcome_label for rec in records)
            counts[key] = counts.get(key, 0) + 1
        return cls(steps=tuple(cid for cid, _ in steps), counts=counts, total=sum(counts.values()))

    @property
    def frequencies(self) -> dict[tuple[tuple[int, ...], ...], float]:
        return {k: c / self.total for k, c in self.counts.items()}

    def frequency(self, key: tuple[tuple[int, ...], ...]) -> float:
        return self.counts.get(key, 0) / self.total


def total_variation(
    a: SequenceDistribution, b: SequenceDistribution, reorder: tuple[int, ...] | None = None
) -> float:
    """Total-variation distance between two outcome-sequence distributions.

    ``reorder`` permutes b's tuple positions before comparison, for
    experiments that ran the same observables in a different order.
    """
    fb = b.frequencies
    if reorder is not None:
        fb = {tuple(key[i] for i in reorder): v for key, v in fb.items()}
    fa = a.frequencies
    support = set(fa) | set(fb)
    return 0.5 * sum(abs(fa.get(k, 0.0) - fb.get(k, 0.0)) for k in support)


def sequence_records(
    scenario: Scenario,
    sequence: list[tuple[str, float]],
    n_runs: int,
    seed: int,
):
    """Run a measurement sequence many times, yielding each run's final system.

    Each sequence entry is (commuting-set id, nominal time); nominal times
    must be strictly increasing.  Per run, each actual measurement time is
    drawn uniformly over what is still available of the window containing
    its nominal time — the whole window normally, the remainder past the
    previous draw when two steps share a window.  Uniform reads are what
    make each outcome reproduce the current state's weights, so the draws
    must stay uniform conditioned on everything earlier; sorting
    same-window draws instead would bias the first read toward the start
    of the window.  Every run starts from the same initial system.  Yields
    one :class:`SystemUnderObservation` per run, in run order: its
    ``history`` holds the run's records, one per step, and its
    ``renorm_events`` counts the drift corrections of every evolution step
    of the run, including the steps to window boundaries.  Input validation
    happens at call time, before the first run executes.
    """
    if not sequence:
        raise ValueError("sequence must contain at least one measurement")
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    times = [u for _, u in sequence]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"sequence times must be strictly increasing, got {times}")
    if times[0] <= 0.0:
        raise ValueError("measurement times must be positive")
    windows = [math.ceil(u) - 1 for u in times]
    ids = [cid for cid, _ in sequence]
    # Whether a later step still reads from the same window: those draws
    # must leave room, so an exact-boundary draw is rejected and retried.
    shares_later = [w in windows[i + 1 :] for i, w in enumerate(windows)]
    for cid in ids:
        scenario.cset(cid)  # validate ids up front
    sys0 = SystemUnderObservation.from_scenario(scenario)
    rng = np.random.default_rng(seed)

    def runs():
        for _ in range(n_runs):
            sys = sys0
            prev = 0.0
            for i, (cid, w) in enumerate(zip(ids, windows)):
                lo_eff = max(float(w), prev)
                hi = w + 1.0
                while True:
                    u = lo_eff + (hi - lo_eff) * (1.0 - rng.random())
                    if not (shares_later[i] and u == hi):
                        break
                _, sys = measure(sys, cid, u)
                prev = u
            yield sys

    return runs()


def sequential_experiment(
    scenario: Scenario,
    sequence: list[tuple[str, float]],
    n_runs: int,
    seed: int,
) -> SequenceDistribution:
    """Tally the joint outcome distribution of a randomized sequence.

    Thin wrapper over :func:`sequence_records`: the tuple of outcome labels
    from each run is counted, nothing else is retained.
    """
    runs = sequence_records(scenario, sequence, n_runs, seed)
    return SequenceDistribution.from_runs(sequence, (sys.history for sys in runs))


def format_measurement_log(records_per_run: Sequence[Sequence[MeasurementRecord]]) -> str:
    """Render measurement records as CSV, one row per measurement.

    Columns: run_id, step, u, cset id, outcome label (colon-joined),
    eigenvalues (colon-joined, repr floats).
    """
    lines = ["run_id,step,u,csco_id,outcome_label,eigenvalues"]
    for run_id, records in enumerate(records_per_run):
        for step, rec in enumerate(records):
            lab = ":".join(str(i) for i in rec.outcome_label)
            eig = ":".join(repr(x) for x in rec.outcome_eigenvalues)
            lines.append(f"{run_id},{step},{rec.time!r},{rec.cset_id},{lab},{eig}")
    return "\n".join(lines) + "\n"


def format_sequence_distribution(dist: SequenceDistribution) -> str:
    """Render a joint outcome distribution as CSV (sequence, count, frequency).

    Sequence keys are outcome labels joined with '>', multi-indices joined
    with ':'.  Rows are sorted by key for stable output.
    """
    lines = ["sequence,count,frequency"]
    for key in sorted(dist.counts):
        name = ">".join(":".join(str(i) for i in lab) for lab in key)
        c = dist.counts[key]
        lines.append(f"{name},{c},{c / dist.total!r}")
    return "\n".join(lines) + "\n"
