"""Time averages, Born-rule recovery, and sub-window correlation statistics.

Everything the model writes as a time integral is evaluated here exactly by
interval arithmetic on piecewise-constant data; Monte Carlo enters only
where an experiment genuinely reads the trajectory at random times.  The
two routes are kept strictly apart so analytic identities and statistical
estimates can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hilbert import CommutingSet
from .microstate import JumpTrajectory
from .partition import WindowPartition, _index, _real, interval_measure

__all__ = [
    "EmpiricalDistribution",
    "CorrelationEstimate",
    "window_average_step",
    "window_average_value",
    "sample_born",
    "offset_window_average",
    "same_outcome_measure",
    "sub_tau_correlation",
    "format_statistics",
]

# Random reads are drawn, sorted and counted this many at a time, so their
# memory does not grow with the read count: 512 KiB per float64 block.
_BLOCK = 1 << 16

# Each sub-tau block searches every stretch bound of the trajectory twice, so
# its blocks also hold at least this many reads per stretch, which keeps the
# searches a small share of the sort on long trajectories.  A read costs 11
# bytes of block (its double, two one-byte labels, one match flag).
_READS_PER_STRETCH = 24


def _uniform_blocks(seed: int, n: int, block: int):
    """Yield the ``n`` doubles of ``default_rng(seed).random(n)`` in blocks of ``block``.

    ``Generator.random`` takes one double per element from its stream, so the
    blocks, in order, are that one bulk draw; each is a fresh writable array,
    which the caller should release before asking for the next one.  The
    seed is checked once, before the first draw.
    """
    rng = np.random.default_rng(_index(seed, "seed", 0))
    for start in range(0, n, block):
        yield rng.random(min(block, n - start))


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Label counts from repeated sampling, with binomial standard errors."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        _index(self.total, "total", 1)
        for c in self.counts.values():
            _index(c, "count", 0)
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")

    @cached_property
    def estimates(self) -> dict[int, float]:
        """Frequency per label, built on first read.

        Every read returns the same dict: do not change it.
        """
        return {k: c / self.total for k, c in self.counts.items()}

    @cached_property
    def stderr(self) -> dict[int, float]:
        """Binomial standard error per label, built on first read.

        Every read returns the same dict: do not change it.
        """
        out = {}
        for k, c in self.counts.items():
            p = c / self.total
            out[k] = math.sqrt(p * (1.0 - p) / self.total)
        return out

    def estimate(self, label: int) -> float:
        return self.counts.get(_index(label, "label"), 0) / self.total


@dataclass(frozen=True)
class CorrelationEstimate:
    """Same-outcome fraction for time pairs separated by a fixed lag."""

    delta: float
    same_fraction: float
    stderr: float
    n_pairs: int
    # The whole windows the base times were drawn over, which the exact
    # same_outcome_measure must share.  Left out of the repr, which recorded
    # digests pin: it follows from delta and the trajectory's length.
    base_windows: int = field(repr=False)


def window_average_step(partition: WindowPartition, label: int) -> float:
    """Time average of one label's step function over its window.

    Computed exactly: the integral of an indicator is the total length of
    its intervals, and the window has unit span, so this is just the
    interval measure — which is how the construction recovers the Born
    probability with no sampling at all.
    """
    return interval_measure(partition, label) / partition.span


def window_average_value(partition: WindowPartition, cset: CommutingSet, member: int = 0) -> float:
    """Exact time average of the value function over the window.

    Equals the quantum expectation of the member observable in the
    window-start state, since each eigenvalue is weighted by its label's
    time share.
    """
    if partition.dimension != cset.dimension:
        raise ValueError("partition and commuting set dimensions differ")
    values = cset.member_values(member)
    terms = [window_average_step(partition, k) * values[k] for k in range(cset.dimension)]
    return float(math.fsum(terms))


def sample_born(
    traj: JumpTrajectory, n_samples: int, seed: int, window: int = 0
) -> EmpiricalDistribution:
    """Estimate one window's label probabilities by uniform random reads.

    Draws ``n_samples`` times uniformly in the designated window, records
    which label is active at each, and returns the empirical distribution.
    Because exactly one step function is 1 at any instant, tallying active
    labels and tallying squared overlaps with the running microstate are
    the same count — there are no cross terms.

    A tally does not depend on the order of the reads, so they are drawn,
    sorted and counted per stretch of the window in blocks of
    ``_BLOCK`` instead of being looked up one by one.  The blocks are the
    doubles of one bulk draw and per-stretch tallies add across blocks, so
    the counts are those of one sorted pass, in memory that does not grow
    with ``n_samples``.
    """
    n_samples = _index(n_samples, "n_samples", 1)
    window = _index(window, "window", 0, traj.windows_covered - 1)
    # window + 1 - U with U in [0, 1) lands in (window, window+1], honouring
    # the half-open convention at both ends.  For window >= 1 the subtraction
    # can round to window itself, so the stretches counted run from the one
    # ending at window (which holds such a read) to the last one of the window.
    b = traj.bounds
    first = int(np.searchsorted(b[1:], window, side="left"))
    stop = int(np.searchsorted(b[:-1], window + 1.0, side="left"))
    edges = b[first:stop + 1]
    tallies = np.zeros(stop - first, dtype=np.int64)
    for u in _uniform_blocks(seed, n_samples, _BLOCK):
        np.subtract(window + 1.0, u, out=u)
        u.sort()
        tallies += np.diff(u.searchsorted(edges, side="right"))
        del u  # before the next block is drawn
    counts = np.bincount(
        traj.labels[first:stop], weights=tallies, minlength=traj.cset.dimension
    )
    return EmpiricalDistribution(
        counts={k: int(c) for k, c in enumerate(counts)}, total=n_samples
    )


def offset_window_average(
    traj: JumpTrajectory, alpha: float, cset: CommutingSet, member: int = 0
) -> float:
    """Exact value-function average over the offset window ``(alpha, alpha+1]``.

    Pure interval intersection — no sampling.  For offsets that are whole
    numbers this reduces to the ordinary window average; for fractional
    offsets it mixes two consecutive layouts and is the quantity whose
    deviation from the instantaneous expectation exposes the granularity.
    ``cset`` must have the eigenbasis of the set the trajectory was built for.
    """
    if cset is not traj.cset and not np.array_equal(cset.basis, traj.cset.basis):
        raise ValueError(
            f"commuting set {cset.id!r} does not share the eigenbasis of the "
            f"trajectory's set {traj.cset.id!r}"
        )
    w = cset.member_values(member)
    if (lo := _real(alpha)) is None or not (lo >= 0.0 and lo + 1.0 <= traj.windows_covered):
        raise ValueError(
            f"offset window (alpha, alpha + 1] at alpha = {alpha!r} falls outside the "
            f"covered span (0, {traj.windows_covered}]"
        )
    hi = lo + 1.0
    b = traj.bounds
    # Stretches whose upper end exceeds lo, up to the first starting at hi.
    first = int(np.searchsorted(b[1:], lo, side="right"))
    stop = max(first, int(np.searchsorted(b[:-1], hi, side="left")))
    overlap = np.minimum(b[first + 1:stop + 1], hi) - np.maximum(b[first:stop], lo)
    values = w[traj.labels[first:stop]]
    inside = overlap > 0.0
    return float(math.fsum(overlap[inside] * values[inside]))  # offset window has unit span


def _lag_fits(delta: float, base_windows: int, windows: int) -> bool:
    """Whether base times in ``(0, base_windows]`` read ``delta`` later stay in ``windows`` windows.

    Exact: the integer ``windows - base_windows`` is compared with the float
    ``delta`` without rounding, where ``base_windows + delta`` would round.
    """
    return delta <= windows - base_windows


def same_outcome_measure(traj: JumpTrajectory, delta: float, base_windows: int) -> float:
    """Exact measure of base times whose label repeats after a lag, per unit time.

    For ``u`` ranging over ``(0, base_windows]``, returns the fraction of
    that span on which the active label at ``u`` equals the active label at
    ``u + delta`` — computed by merging the event boundaries with their
    shifted copies, no sampling.  This is the analytic side of the
    granularity signature; :func:`sub_tau_correlation` is its Monte Carlo
    counterpart.
    """
    if (delta := _real(delta)) is None or delta < 0.0:
        raise ValueError("delta must be non-negative and finite")
    base_windows = _index(base_windows, "base_windows", 1, traj.windows_covered)
    if not _lag_fits(delta, base_windows, traj.windows_covered):
        raise ValueError("base span plus delta must fit inside the covered windows")
    if delta == 0.0:
        return 1.0
    b = traj.bounds
    cuts = np.concatenate((b, b - delta))
    cuts = np.unique(cuts[(cuts > 0.0) & (cuts < base_windows)])
    edges = np.concatenate(([0.0], cuts, [float(base_windows)]))
    a, z = edges[:-1], edges[1:]
    mid = 0.5 * (a + z)  # sorted, and so is mid + delta
    before = np.repeat(traj.labels, traj.stretch_counts(mid))
    same = before == np.repeat(traj.labels, traj.stretch_counts(mid + delta))
    return float(math.fsum((z - a)[same])) / base_windows


def sub_tau_correlation(
    traj: JumpTrajectory, delta: float, n_pairs: int, seed: int
) -> CorrelationEstimate:
    """Monte Carlo same-outcome fraction for reads separated by ``delta``.

    Reads the trajectory at ``u`` and ``u + delta`` for ``n_pairs`` random
    base times — pure passive reads, no collapse anywhere.  Base times are
    drawn uniformly over a whole number of windows so the estimate targets
    the per-window overlap measure: the most whose reads ``delta`` later
    stay inside the trajectory, ``windows_covered - ceil(delta)``.
    ``delta = 0`` returns exactly 1: the trajectory is piecewise constant
    and both reads coincide.

    ``traj`` is the trajectory already built, as for :func:`sample_born`.
    The estimate is the count of matching pairs over ``n_pairs``, one
    correctly rounded division, so neither the order of the pairs nor their
    grouping enters.  The base times are drawn in blocks of ``_BLOCK``, or
    of ``_READS_PER_STRETCH`` reads per stretch if that is more (the same
    doubles as one bulk draw); each block is sorted, the shifted times
    ``u + delta`` stay sorted because rounding is monotone, and both are
    read per stretch.  Memory does not grow with ``n_pairs``.
    """
    if (delta := _real(delta)) is None or delta < 0.0:
        raise ValueError("delta must be non-negative and finite")
    n_pairs = _index(n_pairs, "n_pairs", 1)
    base_windows = traj.windows_covered - math.ceil(delta)  # the most that _lag_fits allows
    if base_windows < 1:
        raise ValueError(
            f"delta = {delta} leaves no whole base window inside {traj.windows_covered} windows"
        )
    # Only equality is read, so the labels repeated per read are narrowed
    # once: one byte per read for d <= 256 instead of eight.
    labels = traj.labels.astype(np.min_scalar_type(traj.cset.dimension - 1))
    block = max(_BLOCK, _READS_PER_STRETCH * labels.size)
    n_same = 0
    for u in _uniform_blocks(seed, n_pairs, block):
        np.subtract(1.0, u, out=u)
        u *= base_windows
        u.sort()
        before = np.repeat(labels, traj.stretch_counts(u))
        u += delta
        after = np.repeat(labels, traj.stretch_counts(u))
        n_same += int(np.count_nonzero(before == after))
        del u, before, after  # before the next block is drawn
    frac = n_same / n_pairs
    stderr = math.sqrt(frac * (1.0 - frac) / n_pairs)
    return CorrelationEstimate(
        delta=delta, same_fraction=frac, stderr=stderr, n_pairs=n_pairs, base_windows=base_windows
    )


def format_statistics(rows: list[tuple[str, str, float, float, float]]) -> str:
    """Render statistics records as CSV text.

    Each input row is (experiment id, label, estimate, stderr, exact value);
    the deviation column is derived.  Numbers are written as the repr of
    their float, numpy scalars included, for bit-stable dumps.
    """
    lines = ["experiment,label,estimate,stderr,exact,deviation"]
    for exp_id, label, *numbers in rows:
        est, se, exact = map(float, numbers)
        lines.append(f"{exp_id},{label},{est!r},{se!r},{exact!r},{abs(est - exact)!r}")
    return "\n".join(lines) + "\n"
