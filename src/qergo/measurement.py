"""Measurement protocol: outcome extraction, collapse, and global re-partitioning.

A system under observation is a measurement span and a clock.  The span is
the stretch of the current window from its origin (the window start, or the
last collapse) to the window's end, with the state frozen at the origin;
the state at the current time is derived from it, and the only evolution
steps the protocol takes run from one span's origin to the next window
boundary.  Every set's partition of the current window is a pure function
of the span, built on its first read and kept in the span, so one that is
never read is never built.  Measuring an observable set at time ``u`` reads
off the label active at ``u`` — the outcome is deterministic once the
partitions are fixed; randomness enters only through the choice of
measurement time.  The state then collapses to the outcome eigenvector and
a new span starts at ``u``: every set's partition of it has sub-interval
measures proportional to the collapsed state's probabilities over the
remaining stretch.

All operations are by value: each returns a new system snapshot, so runs
can be branched, replayed, and compared without interference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .hilbert import CommutingSet, QuantumState, _eigenvalue_text, _label_text, evolve
from .microstate import LayoutBase, Scenario, span_partition
from .partition import _TABLE_ROWS, WindowPartition, _index, _integer, _real, active_label
# Unused here: every layout goes through span_partition.  The name stays bound
# because perfbench's tracer test expects to rebind measurement.build_partition.
from .partition import build_partition  # noqa: F401

__all__ = [
    "MeasurementRecord",
    "Span",
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
    """One completed measurement: when, what, which outcome, and the collapsed state.

    ``post_state`` is the set's eigenstate for the outcome, which the span
    after the measurement starts from.
    """

    time: float
    cset_id: str
    outcome_index: int
    outcome_label: tuple[int, ...]
    outcome_eigenvalues: tuple[float, ...]
    post_state: QuantumState


@dataclass(frozen=True, eq=False)
class Span:
    """The stretch ``(lo, hi]`` of one window that live partitions cover.

    ``state`` is the state frozen at ``lo``, which is the window start or
    the last collapse time; ``hi`` is the window's end.  Every evolution
    step of the protocol starts from a span's ``state``: the state at any
    time of the span, and the next span's state at ``hi``, are evolved from
    it in one step.  ``base`` is the :class:`~qergo.microstate.LayoutBase`
    of the last collapsed state, or of the initial one: it keeps the
    window-0 layouts that a conserved set's whole windows shift, so each is
    built once however many windows and runs shift it.  ``built`` holds the
    partitions read so far; snapshots that share a span share them.
    """

    state: QuantumState
    lo: float
    base: LayoutBase
    built: dict = field(default_factory=dict, init=False, repr=False)
    hi: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hi", math.floor(self.lo) + 1.0)


@dataclass(frozen=True, eq=False)
class SystemUnderObservation:
    """Immutable snapshot of a monitored system of ``scenario``: a span and a clock.

    The snapshot stores no state of its own.  :attr:`state`, the state at
    ``current_time``, is evolved from ``span.state`` on first read, so a
    snapshot's state and layouts depend only on its span and its time, not
    on the hops that reached it.  Every live partition of the current
    (possibly partial) window is a pure function of ``span``, laid out by
    :func:`~qergo.microstate.span_partition`, the rule a trajectory follows
    too: while ``span.base`` is the initial state's, a whole window's
    partition is bitwise that trajectory's window.  ``renorm_events`` counts
    the drift corrections of the steps to window boundaries so far, which
    are the only steps the protocol takes.
    """

    scenario: Scenario
    current_time: float
    span: Span
    history: tuple[MeasurementRecord, ...] = ()
    renorm_events: int = 0

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "SystemUnderObservation":
        """Set up observation at u = 0, at the start of window 0."""
        s = scenario.state0
        return cls(scenario, 0.0, Span(s, 0.0, LayoutBase(s)))

    @cached_property
    def state(self) -> QuantumState:
        """The state at ``current_time``, evolved from the span's state on first read.

        At the span's origin (u = 0, a window start, or right after a
        collapse) this is the span's own state object.
        """
        span = self.span
        return evolve(span.state, self.scenario.hamiltonian, self.current_time - span.lo)

    def cset(self, cset_id: str) -> CommutingSet:
        return self.scenario.cset(cset_id)

    def partition(self, cset_id: str) -> WindowPartition:
        """The live partition of one set, built from the span on first read."""
        return _read(self.scenario, self.span, cset_id)

    @property
    def partitions(self) -> Mapping[str, WindowPartition]:
        return {c.id: self.partition(c.id) for c in self.scenario.csets}


def _of(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    The protocol's constructor for fields it knows are good: they are stored
    without ``__init__``, which would set each one through its own
    ``object.__setattr__``.  Every field, ``init=False`` ones included, must
    be given; the instance stays frozen.
    """
    vars(obj := object.__new__(cls)).update(fields)
    return obj


def _read(scenario: Scenario, span: Span, cset_id: str) -> WindowPartition:
    """The partition of one set over ``span``, built on its first read and kept there."""
    if (part := span.built.get(cset_id)) is None:
        part = span.built[cset_id] = span_partition(
            scenario.hamiltonian, scenario.cset(cset_id), scenario.scheduler_for(cset_id),
            span.state, span.lo, span.base,
        )
    return part


def _cross(sys: SystemUnderObservation, u_target) -> tuple[float, Span, int]:
    """``u_target`` as a float, its span, and the drift corrections counted on the way.

    Refuses a time that is not finite and real, or lies before the clock,
    before any evolution.  Each window boundary crossed starts a new span,
    whose state is the old span's state evolved to the boundary in one
    step; a time inside the current window crosses nothing and keeps
    ``sys.span``.
    """
    if (u := _real(u_target)) is None:
        raise ValueError(f"cannot advance to a non-finite time {u_target!r}")
    if u < sys.current_time:
        raise ValueError(f"cannot advance backward: current u = {sys.current_time}, target {u_target}")
    h, span, renorms = sys.scenario.hamiltonian, sys.span, sys.renorm_events
    while u > span.hi:
        state = evolve(span.state, h, span.hi - span.lo)
        renorms += int(state.renormalized)
        # A boundary is a whole number, so the window it opens ends 1.0 later.
        span = _of(Span, state=state, lo=span.hi, base=span.base, built={}, hi=span.hi + 1.0)
    return u, span, renorms


def advance(sys: SystemUnderObservation, u_target: float) -> SystemUnderObservation:
    """Move the clock to ``u_target``, refreezing layouts at each crossing.

    Each window boundary on the way starts a new span, whose state is the
    old span's state evolved to the boundary in one step; no step is taken
    past the last boundary (the state at ``u_target`` is derived on read).
    Arriving exactly on a boundary does not open the next window (the
    boundary still belongs to the old one).  While ``u_target`` stays in
    the current window the span, and so every partition built so far,
    carries over unchanged.  A ``u_target`` that is not a finite real
    number is rejected before any evolution; the clock is kept as
    ``float(u_target)``.
    """
    u, span, renorms = _cross(sys, u_target)
    if u == sys.current_time:
        return sys
    return SystemUnderObservation(sys.scenario, u, span, sys.history, renorms)


def measure(
    sys: SystemUnderObservation, cset_id: str, u: float
) -> tuple[MeasurementRecord, SystemUnderObservation]:
    """Measure one observable set at time ``u``.

    Crosses to ``u`` as :func:`advance` would, reads the label active in
    that set's partition (the outcome — deterministic given the
    partitions), collapses to the outcome eigenvector bitwise (the set's
    one state for it, from :attr:`CommutingSet.eigenstates`), starts a new
    span at ``u`` from the collapsed state, and appends the record.  Only
    the record and the snapshot after the collapse are built.  The read
    needs no state at ``u``, so no evolution step is taken to it.  Every
    partition is later built from the collapsed state, on its first read.
    A measurement exactly on a window boundary starts the next window
    fresh instead (the remainder is empty).  A second measurement at the
    instant of the previous one is rejected: the span after a collapse is
    open at ``u``.  The record, the span and the clock keep ``float(u)``,
    so a numpy time is logged as a plain float.
    """
    if sys.history and (last := sys.history[-1]).time == u == sys.current_time:
        raise ValueError(
            f"cannot measure {cset_id!r} at u = {u!r}: {last.cset_id!r} was measured at "
            "that instant, and the span after a collapse excludes its start"
        )
    u, span, renorms = _cross(sys, u)
    c = sys.scenario.cset(cset_id)  # raises for unknown ids before any state change
    idx = active_label(_read(sys.scenario, span, cset_id), u)
    post = c.eigenstates[idx]
    record = _of(MeasurementRecord, time=u, cset_id=cset_id, outcome_index=idx,
                 outcome_label=c.labels[idx], outcome_eigenvalues=c.eigenvalues[idx], post_state=post)
    # Conserved layouts are refrozen from the collapsed state too.
    base = _of(LayoutBase, state=post, layouts={})
    span = _of(Span, state=post, lo=u, base=base, built={}, hi=math.floor(u) + 1.0)
    return record, _of(SystemUnderObservation, scenario=sys.scenario, current_time=u, span=span,
                       history=sys.history + (record,), renorm_events=renorms)


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
        counts = dict(Counter(tuple(rec.outcome_label for rec in records) for records in records_per_run))
        return cls(steps=tuple(cid for cid, _ in steps), counts=counts, total=sum(counts.values()))

    @cached_property
    def frequencies(self) -> dict[tuple[tuple[int, ...], ...], float]:
        """Frequency per outcome sequence, built on first read.

        Every read returns the same dict: do not change it.
        """
        return {k: c / self.total for k, c in self.counts.items()}

    def frequency(self, key: tuple[tuple[int, ...], ...]) -> float:
        return self.counts.get(key, 0) / self.total


def total_variation(
    a: SequenceDistribution, b: SequenceDistribution, reorder: tuple[int, ...] | None = None
) -> float:
    """Total-variation distance between two outcome-sequence distributions.

    ``reorder`` permutes b's tuple positions before comparison, for
    experiments that ran the same observables in a different order; it
    must be a permutation of ``range(len(b.steps))``.
    """
    fb = b.frequencies
    if reorder is not None:
        order, n = [_integer(i) for i in reorder] if np.iterable(reorder) else None, len(b.steps)
        if order is None or len(order) != n or set(order) != set(range(n)):
            raise ValueError(f"reorder must be a permutation of range({n}), got {reorder!r}")
        fb = {tuple(key[i] for i in order): v for key, v in fb.items()}
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
    ``renorm_events`` counts the drift corrections of the run's steps to
    window boundaries, the only evolution steps the protocol takes: each
    starts at a span's origin and ends at the window's end.  Input
    validation happens at call time, before the first run executes.
    """
    if not sequence:
        raise ValueError("sequence must contain at least one measurement")
    n = _index(n_runs, "n_runs", 1)
    times = [u for _, u in sequence]
    if None in map(_real, times):
        raise ValueError(f"measurement times must be finite real numbers, got {times}")
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
    rng = np.random.default_rng(_index(seed, "seed", 0))

    def runs():
        for _ in range(n):
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


def _row_tail(cset_id: str, label: tuple[int, ...], eigenvalues: tuple[float, ...]) -> str:
    """A log row's text after ``u``: set id, outcome label and eigenvalues, then the newline."""
    return f"{cset_id},{_label_text(label)},{_eigenvalue_text(eigenvalues)}\n"


def _log_blocks(runs: Iterable[Iterable[tuple[float, str]]]) -> Iterator[str]:
    """:func:`format_measurement_log`'s text as blocks, made as they are consumed.

    Each run is its measurements' ``(u, row tail)`` pairs in step order,
    the tail as :func:`_row_tail` writes it.  Yields the header, then the
    rows of whole runs, joined about ``_TABLE_ROWS`` rows at a time: the
    text is the join of the blocks.
    """
    yield "run_id,step,u,csco_id,outcome_label,eigenvalues\n"
    rows: list[str] = []
    for run_id, run in enumerate(runs):
        rows += [f"{run_id},{step},{u!r},{tail}" for step, (u, tail) in enumerate(run)]
        if len(rows) >= _TABLE_ROWS:
            yield "".join(rows)
            rows = []
    if rows:
        yield "".join(rows)


def format_measurement_log(records_per_run: Sequence[Sequence[MeasurementRecord]]) -> str:
    """Render measurement records as CSV, one row per measurement.

    Columns: run_id, step, u, cset id, outcome label (colon-joined),
    eigenvalues (colon-joined, repr floats).
    """
    tails: dict = {}  # built once per set and outcome

    def tail(rec: MeasurementRecord) -> str:
        key = (rec.cset_id, rec.outcome_label, rec.outcome_eigenvalues)
        if (text := tails.get(key)) is None:
            text = tails[key] = _row_tail(*key)
        return text

    return "".join(_log_blocks(((rec.time, tail(rec)) for rec in run) for run in records_per_run))


def format_sequence_distribution(dist: SequenceDistribution) -> str:
    """Render a joint outcome distribution as CSV (sequence, count, frequency).

    Sequence keys are outcome labels joined with '>', multi-indices joined
    with ':'.  Rows are sorted by key for stable output.
    """
    lines = ["sequence,count,frequency"]
    for key, c in sorted(dist.counts.items()):
        name = ">".join(map(_label_text, key))
        lines.append(f"{name},{c},{c / dist.total!r}")
    return "\n".join(lines) + "\n"
