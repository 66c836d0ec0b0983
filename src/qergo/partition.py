"""Probability-weighted partitions of time windows into labelled sub-intervals.

A window partition splits the half-open window ``(N, N+1]`` into finitely
many disjoint half-open sub-intervals, each tagged with an outcome label,
such that the total length owned by label ``k`` equals the probability
``p_k`` frozen at the window start.  Time averages over the window then
reproduce the probabilities exactly, whatever the internal arrangement.

The arrangement itself is not fixed by the probabilities; three scheduler
strategies pin it down:

* ``contiguous`` — one block per label, laid out in label order;
* ``two-outcome`` — label 0 occupies a single block starting a configurable
  offset into the window, every other label fills the complement in order
  (wrapping around the block), matching the classic three-interval layout
  for two outcomes;
* ``seeded-random`` — each label's mass is split into at most
  ``max_subintervals`` (at most ``MAX_SUBINTERVALS``) pieces and the pieces
  are shuffled, with all draws taken from numpy's PCG64 stream keyed by
  ``(seed, window_index)`` so any window can be rebuilt independently of
  the others.  ``_seeded_random_layout`` defines the layout by numpy's own
  ``Generator.integers``, ``Generator.random`` and ``Generator.permutation``
  calls; ``_random_layouts`` decodes the same layouts for many windows at
  once from the stream's raw words.

Partial windows appear after a mid-window state reduction: the remainder
``(u0, N+1]`` is re-partitioned with the same machinery, measures scaled by
the remaining span.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation

SCHEDULER_KINDS = ("contiguous", "two-outcome", "seeded-random")
MEASURE_TOL = 1e-9
PROB_SUM_TOL = 1e-6
# Pieces per label stay few enough to allocate, and every piece count is a
# 32-bit draw (see _random_layouts).
MAX_SUBINTERVALS = 2**16

__all__ = [
    "SCHEDULER_KINDS",
    "MEASURE_TOL",
    "PROB_SUM_TOL",
    "MAX_SUBINTERVALS",
    "SubInterval",
    "SchedulerSpec",
    "WindowPartition",
    "build_partition",
    "build_partition_span",
    "step_function",
    "active_label",
    "interval_measure",
    "periodic_extend",
    "check_partition",
    "dump_partition",
]


@dataclass(frozen=True)
class SubInterval:
    """Half-open interval ``(lo, hi]`` on the dimensionless time axis."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise ValueError(f"need hi > lo, got ({self.lo!r}, {self.hi!r}]")


def _integer(x) -> int | None:
    """``x`` as an int if it is an integer, numpy integers included, else None.

    The one place that decides what counts as an integer: a bool does not,
    nor does 1.5 or 2.0.  ``operator.index`` keeps the check cheap enough
    for every layout build.
    """
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


# Numbers that math.isfinite takes but that are no real number; it would read
# a numpy complex as its real part.
_NOT_REAL = (bool, complex, np.bool_, np.complexfloating)


def _real(x) -> float | None:
    """``x`` as a float if it is a finite real number, numpy reals included, else None.

    The one place that decides what counts as a real number: a bool does
    not, nor does ``'0.5'``, ``None``, ``inf``, ``nan`` or a complex number.
    """
    try:
        return float(x) if not isinstance(x, _NOT_REAL) and math.isfinite(x) else None
    except TypeError:
        return None


def _index(x, name: str) -> int:
    """``x`` as an int (see :func:`_integer`); anything else is a ValueError."""
    if (n := _integer(x)) is None:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return n


def _seed(seed) -> int:
    """``seed`` as an int if it is a non-negative integer; anything else is a ValueError.

    Every caller that draws from a seed checks it once, before its first draw.
    """
    if (n := _integer(seed)) is None or n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return n


@dataclass(frozen=True)
class SchedulerSpec:
    """Strategy and knobs for arranging one window's sub-intervals.

    ``offset`` only matters for the two-outcome layout (how far into the
    window label 0's block starts, as a fraction of the span; it is clamped
    so the block fits).  ``max_subintervals`` caps the pieces per label for
    the seeded-random layout.
    """

    kind: str = "contiguous"
    max_subintervals: int = 1
    seed: int = 0
    offset: float = 0.25

    def __post_init__(self):
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(f"unknown scheduler kind {self.kind!r}; choose from {SCHEDULER_KINDS}")
        n = self.max_subintervals
        if (k := _integer(n)) is None or not 1 <= k <= MAX_SUBINTERVALS:
            raise ValueError(
                f"max_subintervals must be an integer in [1, {MAX_SUBINTERVALS}], got {n!r}"
            )
        if (off := _real(self.offset)) is None or not 0.0 <= off <= 1.0:
            raise ValueError(f"offset must lie in [0, 1], got {self.offset!r}")
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "max_subintervals", k)
        object.__setattr__(self, "seed", _seed(self.seed))

    @cached_property
    def _layouts(self) -> dict:
        """Seeded-random layouts drawn so far, keyed by (weight bytes, window).

        Lives as long as this spec, which a config load builds once; see
        :func:`_layout`.
        """
        return {}

    @cached_property
    def _drawn(self) -> dict:
        """The last batch of seeded-random layouts not yet read, keyed as ``_layouts``.

        See :func:`_draw_layouts`.
        """
        return {}


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only array; copied only when the caller could still write it."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class WindowPartition:
    """An exhaustive labelled tiling of one (possibly partial) window.

    Two read-only arrays hold the tiling: ``bounds`` (``float64[S+1]``,
    strictly increasing, ``bounds[0] == lo`` and ``bounds[-1] == hi``) and
    ``labels`` (``intp[S]``); stretch ``i`` is ``(bounds[i], bounds[i+1]]``
    and carries label ``labels[i]``.  Neighbouring stretches share their
    boundary float, so the stretches tile ``(lo, hi]`` with no gaps or
    overlaps by construction.  ``probabilities`` is the frozen probability
    vector the measures realize: label ``k`` owns total length
    ``span * probabilities[k]``.
    """

    window_index: int
    lo: float
    hi: float
    probabilities: np.ndarray
    bounds: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probabilities", _frozen(self.probabilities, float))
        object.__setattr__(self, "bounds", _frozen(self.bounds, float))
        object.__setattr__(self, "labels", _frozen(self.labels, np.intp))

    @classmethod
    def _of(cls, window_index, lo, hi, probabilities, bounds, labels) -> WindowPartition:
        """The partition of arrays that are read-only ``float64``/``intp`` already.

        The builders' constructor: ``__init__`` would keep such arrays as they
        are, so they are stored without its conversions.
        """
        part = object.__new__(cls)
        vars(part).update(
            window_index=window_index, lo=lo, hi=hi,
            probabilities=probabilities, bounds=bounds, labels=labels,
        )
        return part

    @property
    def dimension(self) -> int:
        return self.probabilities.size

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def segments(self) -> tuple[tuple[SubInterval, int], ...]:
        """``(interval, label)`` pairs in time order, built anew on each access."""
        b = self.bounds.tolist()
        return tuple(
            (SubInterval(lo, hi), k) for lo, hi, k in zip(b, b[1:], self.labels.tolist())
        )


def _contiguous_layout(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = (p > 0.0).nonzero()[0]
    return p[labels], labels


def _two_outcome_layout(p: np.ndarray, offset: float) -> tuple[np.ndarray, np.ndarray]:
    # Label 0 gets one block starting `offset` into the window (clamped so it
    # fits); the other labels fill the complement in order, split across the
    # gap when they straddle it.  For two outcomes this is the familiar
    # three-interval picture.
    p0, *others = p.tolist()
    off = min(offset, 1.0 - p0)
    rest = [(k, w) for k, w in enumerate(others, 1) if w > 0.0]
    widths: list[tuple[float, int]] = []
    room = off
    i = 0
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


_UINT32_END = 2**32
_LOW32 = _UINT32_END - 1


def _bitgen(spec: SchedulerSpec, window_index: int) -> np.random.PCG64:
    """One window's seeded-random stream, keyed so windows can be rebuilt out of order."""
    key = [spec.seed, window_index]
    if 0 <= window_index < _UINT32_END and spec.seed < _UINT32_END:
        # SeedSequence reads a list of such ints as these uint32 words.
        key = np.array(key, dtype=np.uint32)
    return np.random.PCG64(key)


def _seeded_random_layout(
    p: np.ndarray, window_index: int, spec: SchedulerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """One window's seeded-random layout: the definition, in numpy's own ``Generator`` calls.

    Per positive label, in label order: a piece count ``n`` from
    ``integers(1, max_subintervals + 1)`` and ``n - 1`` sorted cuts
    ``mass * random(n - 1)``; each piece of positive width is kept.  Last,
    ``permutation`` shuffles the pieces.
    """
    rng = np.random.Generator(_bitgen(spec, window_index))
    widths: list[float] = []
    labels: list[int] = []
    for k, mass in enumerate(p.tolist()):
        if mass <= 0.0:
            continue
        n = int(rng.integers(1, spec.max_subintervals + 1))
        prev = 0.0
        for cut in [*sorted((mass * rng.random(n - 1)).tolist()), mass]:
            if (w := cut - prev) > 0.0:
                widths.append(w)
                labels.append(k)
            prev = cut
    order = rng.permutation(len(widths))
    return np.array(widths)[order], np.array(labels, dtype=np.intp)[order]


# A batched draw reads at most d * max_subintervals words per window; a batch
# that could read more than this many (256 KiB) is left to _seeded_random_layout.
_BATCH_WORDS = 2**15


def _random_layouts(p: np.ndarray, bitgens: list, max_subintervals: int) -> list:
    """:func:`_seeded_random_layout` of each row of ``p`` with its own fresh generator, decoded together.

    The one decoder of raw 64-bit words: a count is ``integers``' Lemire
    multiply-and-reject on a 32-bit half of a word, a cut is
    ``(word >> 11) * 2**-53`` times the mass, as ``random`` gives it.
    Every weight must be positive, so every row reads its words in the same
    roles: one count word per pair of labels (its low half for the first
    label, its upper half for the second), then each label's cut words.
    Each generator gives one block that covers the most words a row can
    read; the counts are walked a pair of labels at a time across all rows,
    and the cuts gathered, sorted and differenced as arrays.  Each
    generator is then wound back to where numpy's calls leave it, kept half
    included, and only ``permutation`` runs per row.  A row whose bounded
    draw rejects a word would read other words, and gets None.
    """
    rows, d = p.shape
    excl, at = max_subintervals, np.arange(rows)
    words = (d + 1) // 2 + d * (excl - 1) if excl > 1 else 0
    raw = np.array([g.random_raw(words) for g in bitgens])
    pieces = np.ones((rows, d), dtype=np.intp)
    read = np.zeros(rows, dtype=np.intp)  # cut words before the current pair's count word
    rejected = np.zeros(rows, dtype=bool)
    if excl > 1:
        threshold, halves = (_LOW32 - (excl - 1)) % excl, np.array([0, 32], dtype=np.uint64)
        for k in range(0, d, 2):
            last = raw[at, k // 2 + read]
            m = (last[:, None] >> halves[: d - k] & _LOW32) * excl
            rejected |= (m & _LOW32 < threshold).any(axis=1)
            more = (m >> 32).astype(np.intp)
            pieces[:, k:k + 2] += more
            read += more.sum(axis=1)
    extra, j, mass = pieces - 1, np.arange(excl - 1), p[:, :, None]
    first = np.arange(d) // 2 + 1 + extra.cumsum(axis=1) - extra  # each label's first cut word
    u = (raw[at[:, None, None], first[:, :, None] + j] >> 11) * 2.0**-53
    # Unused slots hold mass, so after the sort they difference to zero and drop out.
    cuts = np.concatenate((np.where(j < extra[:, :, None], mass * u, mass), mass), axis=2)
    cuts.sort(axis=2)
    width = np.diff(cuts, axis=2, prepend=0.0)
    keep = width > 0.0
    ends = keep.sum(axis=(1, 2)).cumsum().tolist()
    all_widths, all_labels = width[keep], keep.nonzero()[1]
    layouts = []
    for i, g in enumerate(bitgens):
        if rejected[i]:
            layouts.append(None)
            continue
        if words:
            g.advance(int((d + 1) // 2 + read[i]) - words)
            if d % 2:  # the half next_uint32 would return next
                state = g.state
                state["has_uint32"], state["uinteger"] = 1, int(last[i] >> 32)
                g.state = state
        lo = ends[i - 1] if i else 0
        order = np.random.Generator(g).permutation(ends[i] - lo)
        layouts.append((all_widths[lo:ends[i]][order], all_labels[lo:ends[i]][order]))
    return layouts


def _draw_layouts(weights: np.ndarray, windows: list, spec: SchedulerSpec):
    """Draw the seeded-random layouts of many windows in one batch, for :func:`_layout` to take.

    Row ``i`` of ``weights`` holds the weights ``build_partition`` will be
    given for window ``windows[i]``.  Left to :func:`_seeded_random_layout`:
    rows the validation would rescale or reject, rows with a zero weight,
    keys already memoized, rows whose draw rejects a word, and batches that
    could read more than ``_BATCH_WORDS`` words.  The spec keeps the rest
    until its next batch, and :func:`_layout` takes each one on first read.
    """
    drawn, memo, excl = spec._drawn, spec._layouts, spec.max_subintervals
    drawn.clear()
    # The rows _validated_probabilities passes on its fast path, divided as it divides them.
    total = np.add.reduce(weights, axis=1)
    ok = (np.minimum.reduce(weights, axis=1) > 0.0) & (abs(total - 1.0) <= PROB_SUM_TOL)
    p = weights[ok] / total[ok, None]
    keys = [(row.tobytes(), n) for row, n in zip(p, np.asarray(windows)[ok].tolist())]
    new = [i for i, key in enumerate(keys) if key not in memo]
    if not new or len(new) * p.shape[1] * excl > _BATCH_WORDS:
        return
    layouts = _random_layouts(p[new], [_bitgen(spec, keys[i][1]) for i in new], excl)
    drawn.update((keys[i], layout) for i, layout in zip(new, layouts) if layout is not None)


# Most seeded-random layouts one spec keeps for reuse.
_LAYOUT_MEMO_SIZE = 128


def _layout(
    p: np.ndarray, window_index: int, spec: SchedulerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Widths (relative to the span) and labels of the stretches, in time order.

    A seeded-random layout depends only on the exact weights and the window,
    and the same weights recur, e.g. after every collapse onto one basis
    column; the spec keeps up to ``_LAYOUT_MEMO_SIZE`` drawn layouts
    (read-only) and returns them again for the same key.  A layout not kept
    is taken from the spec's last batch (see :func:`_draw_layouts`) if it
    is there, and drawn by :func:`_seeded_random_layout`, the definition, if not.
    """
    if spec.kind == "contiguous":
        return _contiguous_layout(p)
    if spec.kind == "two-outcome":
        return _two_outcome_layout(p, spec.offset)
    memo, key = spec._layouts, (p.tobytes(), window_index)
    layout = memo.get(key)
    if layout is None:
        layout = spec._drawn.pop(key, None) or _seeded_random_layout(p, window_index, spec)
        for a in layout:
            a.setflags(write=False)
        if len(memo) < _LAYOUT_MEMO_SIZE:
            memo[key] = layout
    return layout


def _seal(bounds: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the stretches that rounding collapsed to nothing, keeping the tiling gap-free.

    A stretch is dropped when its upper bound is not above its lower one; its
    successor then starts where the last kept stretch ended.
    """
    keep = bounds[1:] > bounds[:-1]
    if np.count_nonzero(keep) < keep.size:
        bounds = np.concatenate((bounds[:1], bounds[1:][keep]))
        labels = labels[keep]
    bounds.setflags(write=False)
    labels.setflags(write=False)
    return bounds, labels


def _validated_probabilities(probabilities) -> np.ndarray:
    """The weights as a new read-only vector, renormalized to sum to 1."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probabilities must form a non-empty 1-d vector")
    # Two reductions decide the common case: every weight positive (so
    # finite, and left alone by the clip below) and the sum within
    # tolerance.  They are the ufuncs' own, which p.min() and p.sum() reach
    # through Python.  ``p / total`` is ``p`` bitwise when total is 1.0.
    if not (np.minimum.reduce(p) > 0.0 and abs((total := float(np.add.reduce(p))) - 1.0) <= PROB_SUM_TOL):
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-12):
            raise ValueError(f"probabilities must be non-negative, got min {p.min()!r}")
        p = np.clip(p, 0.0, None)
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, off 1 by more than {PROB_SUM_TOL}")
    p = p / total
    p.setflags(write=False)  # WindowPartition keeps it without a copy
    return p


def build_partition_span(
    probabilities, lo: float, hi: float, scheduler: SchedulerSpec, window_index: int
) -> WindowPartition:
    """Partition the half-open span ``(lo, hi]`` with measures ``span * p_k``.

    The general form behind :func:`build_partition`; measurement needs it
    for the remainder of a window after a mid-window reduction.  Input
    probabilities may be off 1 by at most ``PROB_SUM_TOL``; they are
    renormalized and the renormalized vector is the one stored (and the one
    the measure invariant holds against).
    """
    if not hi > lo:
        raise ValueError(f"need hi > lo, got span ({lo!r}, {hi!r}]")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"span bounds must be finite, got ({lo!r}, {hi!r}]")
    window_index = _index(window_index, "window_index")
    p = _validated_probabilities(probabilities)
    widths, labels = _layout(p, window_index, scheduler)
    # Lay out in relative coordinates, then map onto (lo, hi].  The final
    # boundary is forced to hi exactly so adjacent windows share floats.
    bounds = np.zeros(widths.size + 1)
    widths.cumsum(out=bounds[1:])
    if hi - lo != 1.0:  # scaling by 1.0 changes no bit
        bounds *= hi - lo
    bounds += lo
    bounds[-1] = hi
    # Rounding can carry an interior bound past hi when the last stretches
    # are slivers; clamped to hi, they collapse and _seal drops them.
    if bounds[-2] > hi:
        np.minimum(bounds, hi, out=bounds)
    return WindowPartition._of(window_index, lo, hi, p, *_seal(bounds, labels))


def build_partition(probabilities, window_index: int, scheduler: SchedulerSpec) -> WindowPartition:
    """Partition unit window ``(N, N+1]`` according to a probability vector."""
    if (window_index := _index(window_index, "window_index")) < 0:
        raise ValueError("window_index must be non-negative")
    lo = float(window_index)
    return build_partition_span(probabilities, lo, lo + 1.0, scheduler, window_index)


def _check_inside(partition: WindowPartition, u: float):
    if not partition.lo < u <= partition.hi:
        raise ValueError(
            f"time {u!r} outside the partitioned span ({partition.lo!r}, {partition.hi!r}]"
        )


def _check_label(partition: WindowPartition, label) -> int:
    """``label`` as an int if the partition has it; anything else is a ValueError."""
    if not 0 <= (label := _index(label, "label")) < partition.dimension:
        raise ValueError(f"label index {label} out of range for dimension {partition.dimension}")
    return label


def active_label(partition: WindowPartition, u: float) -> int:
    """Label index of the unique sub-interval containing ``u``.

    Exact float comparisons: ``u`` equal to a shared boundary belongs to
    the earlier interval, per the half-open convention.
    """
    _check_inside(partition, u)
    return int(partition.labels[partition.bounds[1:].searchsorted(u)])


def step_function(partition: WindowPartition, label: int, u: float) -> int:
    """Indicator of label ``label`` at time ``u`` (1 inside its intervals, else 0).

    Evaluated by direct membership in the label's own sub-intervals, not by
    delegation to :func:`active_label`, so completeness and idempotency are
    genuinely testable properties rather than tautologies.
    """
    _check_inside(partition, u)
    label = _check_label(partition, label)
    b, mine = partition.bounds, partition.labels == label
    return int(np.any((b[:-1][mine] < u) & (u <= b[1:][mine])))


def interval_measure(partition: WindowPartition, label: int) -> float:
    """Total length owned by a label (the realized probability mass)."""
    label = _check_label(partition, label)
    b = partition.bounds
    return float(math.fsum((b[1:] - b[:-1])[partition.labels == label]))


def periodic_extend(base: WindowPartition, window_index: int) -> WindowPartition:
    """Copy a window-0 partition onto window ``N`` by shifting every float by ``N``.

    Only meaningful when the eigenbasis weights are conserved, so the same
    layout is valid in every window; the caller is responsible for that.
    A sub-ulp piece that the shift collapses to nothing is dropped and the
    tiling re-sealed, as in :func:`build_partition_span`.
    """
    if base.window_index != 0 or base.lo != 0.0 or base.hi != 1.0:
        raise ValueError("periodic_extend needs a full window-0 partition as its base")
    if (window_index := _index(window_index, "window_index")) < 0:
        raise ValueError("window_index must be non-negative")
    if window_index == 0:
        return base
    n = float(window_index)
    return WindowPartition._of(
        window_index, n, n + 1.0, base.probabilities, *_seal(base.bounds + n, base.labels)
    )


def check_partition(partition: WindowPartition) -> float:
    """Audit coverage, ordering, label sanity, and measures; return worst measure error.

    Raises :class:`InvariantViolation` naming the first broken invariant.
    Coverage is exact: the bounds must rise strictly and their ends must hit
    ``lo``/``hi`` bitwise.
    """
    b, labels = partition.bounds.tolist(), partition.labels.tolist()
    if not labels:
        raise InvariantViolation("partition has no segments")
    if len(b) != len(labels) + 1:
        raise InvariantViolation(f"{len(b)} bounds for {len(labels)} segments")
    if b[0] != partition.lo:
        raise InvariantViolation(f"first segment starts at {b[0]!r}, expected {partition.lo!r}")
    if b[-1] != partition.hi:
        raise InvariantViolation(f"last segment ends at {b[-1]!r}, expected {partition.hi!r}")
    for a, z in zip(b, b[1:]):
        if not z > a:
            raise InvariantViolation(f"overlap: segment ({a!r}, {z!r}] is empty or reversed")
    d = partition.dimension
    for k in labels:
        if not 0 <= k < d:
            raise InvariantViolation(f"segment label {k} out of range for dimension {d}")
    total = float(partition.probabilities.sum())
    if abs(total - 1.0) > 1e-10:
        raise InvariantViolation(f"stored probabilities sum to {total!r}")
    worst = 0.0
    for k in range(d):
        target = partition.span * float(partition.probabilities[k])
        dev = abs(interval_measure(partition, k) - target)
        worst = max(worst, dev)
        if dev > MEASURE_TOL:
            raise InvariantViolation(
                f"label {k} owns measure off target by {dev:.3e} (> {MEASURE_TOL})"
            )
    return worst


# Stretch rows that _stretch_table formats at a time: its lists hold one
# block's strings, never a whole trajectory's.
_TABLE_ROWS = 512


def _stretch_table(
    header: str, bounds: np.ndarray, labels: np.ndarray, offsets: np.ndarray,
    first_window: int, heads: list[str], tails: list[str],
) -> str:
    """CSV text of one row per stretch under ``header``, in time order.

    Stretch ``i`` is ``(bounds[i], bounds[i+1]]`` with label index
    ``labels[i]``, and window ``first_window + n`` owns stretches
    ``offsets[n]`` to ``offsets[n+1] - 1``.  A stretch of label ``k`` in
    window ``N`` reads ``f"{N}{heads[k]}{lo!r},{hi!r}{tails[k]}"``.  Rows are
    formatted ``_TABLE_ROWS`` at a time: each bound is repr'd once, and each
    block's fields are slotted into one list that is joined once.
    """
    heads, tails = np.array(heads, object), np.array(tails, object)
    out = [header]
    for s in range(0, labels.size, _TABLE_ROWS):
        e = min(s + _TABLE_ROWS, labels.size)
        n = offsets.searchsorted(np.arange(s, e), "right") - 1  # each row's window
        n0 = int(n[0])
        windows = np.array([str(first_window + w) for w in range(n0, int(n[-1]) + 1)], object)
        r = list(map(repr, bounds[s:e + 1].tolist()))
        k = labels[s:e]
        rows = [","] * (6 * (e - s))
        rows[0::6] = windows[n - n0].tolist()
        rows[1::6] = heads[k].tolist()
        rows[2::6] = r[:-1]
        rows[4::6] = r[1:]
        rows[5::6] = tails[k].tolist()
        out.append("".join(rows))
    return "".join(out)


def dump_partition(partition: WindowPartition) -> str:
    """Render one partition as CSV text, rows in time order.

    Columns: window_index, label, lo, hi.  Floats use repr so a dump/parse
    round trip is bit-exact.  The rows are :func:`_stretch_table`'s, for a
    trajectory of this one window.
    """
    labels, d = partition.labels, partition.dimension
    return _stretch_table(
        "window_index,label,lo,hi\n", partition.bounds, labels, np.array([0, labels.size]),
        partition.window_index, [f",{k}," for k in range(d)], ["\n"] * d,
    )
