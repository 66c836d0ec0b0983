import math
import re
import tracemalloc

import numpy as np
import pytest

from qergo.ergodic import (
    _BLOCK,
    _READS_PER_STRETCH,
    EmpiricalDistribution,
    format_statistics,
    offset_window_average,
    same_outcome_measure,
    sample_born,
    sub_tau_correlation,
    window_average_step,
    window_average_value,
)
from qergo.hilbert import CommutingSet, Hamiltonian, evolve, expectation, make_state
from qergo.microstate import Scenario, dump_trajectory, trajectory
from qergo.partition import SchedulerSpec, build_partition, interval_measure
from qergo.testing import random_cset, random_hamiltonian, random_state, sigma_x_set, sigma_z_set

TWO_OUTCOME = SchedulerSpec(kind="two-outcome", offset=0.3)


def test_window_average_step_examples():
    p = build_partition([0.4, 0.6], 0, TWO_OUTCOME)
    assert window_average_step(p, 0) == pytest.approx(0.4, abs=1e-12)
    p3 = build_partition([0.5, 0.0, 0.5], 0, SchedulerSpec())
    assert window_average_step(p3, 1) == 0.0
    total = sum(window_average_step(p3, k) for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_window_average_value_examples():
    sz = sigma_z_set()
    half = build_partition([0.5, 0.5], 0, SchedulerSpec())
    assert window_average_value(half, sz) == pytest.approx(0.0, abs=1e-15)
    skew = build_partition([0.36, 0.64], 0, SchedulerSpec())
    assert window_average_value(skew, sz) == pytest.approx(-0.28, abs=1e-12)


def test_window_average_value_equals_expectation():
    # the model's core identity: exact time average = quantum expectation
    rng = np.random.default_rng(101)
    kinds = ["contiguous", "two-outcome", "seeded-random"]
    for trial in range(200):
        d = int(rng.integers(2, 17))
        s = random_state(rng, d)
        cs = random_cset(rng, d)
        spec = SchedulerSpec(kind=kinds[trial % 3], max_subintervals=3, seed=trial)
        from qergo.hilbert import born_probabilities

        p = build_partition(born_probabilities(s, cs), int(rng.integers(0, 20)), spec)
        assert abs(window_average_value(p, cs) - expectation(s, cs)) <= 1e-9


def test_sample_born_certain_outcome():
    traj = trajectory(
        make_state([1.0, 0.0]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 1
    )
    dist = sample_born(traj, 500, seed=4)
    assert dist.estimates[0] == 1.0
    assert dist.estimate(1) == 0.0


def test_sample_born_within_binomial_error():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 1
    )
    n = 100_000
    dist = sample_born(traj, n, seed=2024)
    for k, true_p in [(0, 0.36), (1, 0.64)]:
        se = math.sqrt(true_p * (1 - true_p) / n)
        assert abs(dist.estimate(k) - true_p) <= 4 * se
        assert dist.stderr[k] == pytest.approx(se, rel=0.05)


def test_sample_born_squared_amplitude_equals_linear():
    # with exactly one label active, tallying S_k and tallying |<O_k|M>|^2
    # are the same count at every sample — no cross terms anywhere
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 1
    )
    rng = np.random.default_rng(9)
    us = 1.0 - rng.random(500)
    labels = traj.labels_at(us)
    sz = sigma_z_set()
    for u, lab in zip(us, labels):
        from qergo.microstate import microstate_at

        snap = microstate_at(traj.partition(0), sz, float(u))
        overlaps_sq = np.abs(sz.basis.conj().T @ snap.basis_vector) ** 2
        linear = np.zeros(2)
        linear[lab] = 1.0
        np.testing.assert_allclose(overlaps_sq, linear, atol=1e-15)


def test_sample_born_window_selection_and_errors():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 3
    )
    d1 = sample_born(traj, 1000, seed=1, window=2)
    assert d1.total == 1000
    with pytest.raises(ValueError, match="window"):
        sample_born(traj, 10, seed=1, window=3)
    with pytest.raises(ValueError, match="n_samples"):
        sample_born(traj, 0, seed=1)


def test_empirical_distribution_contract():
    d = EmpiricalDistribution(counts={0: 25, 1: 75}, total=100)
    assert d.estimates == {0: 0.25, 1: 0.75}
    assert abs(sum(d.estimates.values()) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="sum"):
        EmpiricalDistribution(counts={0: 10}, total=11)


def test_empirical_distribution_computes_estimates_and_stderr_once():
    counts, total = {0: 3, 1: 7, 2: 1}, 11
    d = EmpiricalDistribution(counts=counts, total=total)
    assert d.estimates is d.estimates and d.stderr is d.stderr
    # The per-read formulas the cached values must keep, bit for bit.
    assert d.estimates == {k: c / total for k, c in counts.items()}
    assert d.stderr == {
        k: math.sqrt(c / total * (1.0 - c / total) / total) for k, c in counts.items()
    }


def test_offset_average_integer_alpha_matches_window_average():
    rng = np.random.default_rng(55)
    s = random_state(rng, 3)
    H = random_hamiltonian(rng, 3)
    cs = random_cset(rng, 3)
    traj = trajectory(s, H, cs, SchedulerSpec(), 4)
    for n in range(3):
        off = offset_window_average(traj, float(n), cs)
        win = window_average_value(traj.partition(n), cs)
        assert abs(off - win) <= 1e-12


def test_offset_average_alpha_independent_when_conserved():
    rng = np.random.default_rng(56)
    cs = random_cset(rng, 3)
    H = Hamiltonian((cs.basis * np.array([1.0, -0.5, 0.25])) @ cs.basis.conj().T)
    traj = trajectory(random_state(rng, 3), H, cs, SchedulerSpec(), 5)
    base = window_average_value(traj.partition(0), cs)
    for alpha in [0.25, 0.5, 1.7, 3.0]:
        assert abs(offset_window_average(traj, alpha, cs) - base) <= 1e-9


def test_offset_average_deviation_against_dumped_trajectory():
    # independent oracle: integrate the piecewise value from the CSV dump
    H = Hamiltonian(np.array([[0.0, 0.25], [0.25, 0.0]]))
    s = make_state(np.array([1.0, -1.0j]) / np.sqrt(2.0))
    sz = sigma_z_set()
    traj = trajectory(s, H, sz, SchedulerSpec(), 3)
    alpha = 0.5
    got = offset_window_average(traj, alpha, sz)
    acc = 0.0
    for line in dump_trajectory(traj).strip().splitlines()[1:]:
        w, lab, lo, hi, eig = line.split(",")
        lo, hi = float(lo), float(hi)
        a, b = max(lo, alpha), min(hi, alpha + 1.0)
        if b > a:
            acc += (b - a) * float(eig)
    assert got == pytest.approx(acc, abs=1e-12)
    inst = expectation(evolve(s, H, alpha), sz)
    assert got != pytest.approx(inst, abs=1e-6)  # drifting probabilities leave a gap
    with pytest.raises(ValueError, match="outside"):
        offset_window_average(traj, 2.5, sz)


def stationary_half_trajectory(windows=8):
    return Scenario(
        state0=make_state([1.0, 1.0]),
        hamiltonian=Hamiltonian(np.zeros((2, 2))),
        csets=(sigma_z_set(),),
        schedulers={},
    ).build_trajectory(None, windows)


def test_sub_tau_delta_zero_is_exactly_one():
    est = sub_tau_correlation(stationary_half_trajectory(), 0.0, 500, seed=3)
    assert est.same_fraction == 1.0
    assert est.stderr == 0.0


def test_sub_tau_conserved_full_window_lag():
    est = sub_tau_correlation(stationary_half_trajectory(), 1.0, 4000, seed=5)
    assert est.same_fraction == 1.0


def test_sub_tau_stationary_overlap_value():
    # p = (1/2, 1/2) contiguous, lag 0.1: each label matches on 0.4 of its
    # half, so the same-outcome fraction is 0.8
    est = sub_tau_correlation(stationary_half_trajectory(), 0.1, 30_000, seed=11)
    se = math.sqrt(0.8 * 0.2 / 30_000)
    assert abs(est.same_fraction - 0.8) <= 4 * se


def test_sub_tau_guards():
    traj = stationary_half_trajectory(windows=2)
    with pytest.raises(ValueError, match="delta"):
        sub_tau_correlation(traj, -0.5, 100, seed=0)
    with pytest.raises(ValueError, match="whole base window"):
        sub_tau_correlation(traj, 1.7, 100, seed=0)


def test_same_outcome_measure_matches_analytic():
    traj = stationary_half_trajectory()
    for delta in [0.05, 0.1, 0.25]:
        exact = same_outcome_measure(traj, delta, 6)
        assert exact == pytest.approx(1.0 - 2.0 * delta, abs=1e-12)
    assert same_outcome_measure(traj, 0.0, 6) == 1.0


def test_same_outcome_measure_matches_sampler():
    # dual route: the exact merge walk against the Monte Carlo estimate
    sc = Scenario(
        state0=make_state([0.5, np.sqrt(0.75)]),
        hamiltonian=Hamiltonian(np.zeros((2, 2))),
        csets=(sigma_z_set(),),
        schedulers={"sz": SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=8)},
    )
    traj = sc.build_trajectory(None, 6)
    delta = 0.23
    exact = same_outcome_measure(traj, delta, 5)
    est = sub_tau_correlation(traj, delta, 40_000, seed=21)
    assert abs(est.same_fraction - exact) <= 4 * max(est.stderr, 1e-4)


def test_format_statistics():
    text = format_statistics([("born:sz", "0", 0.361, 0.0015, 0.36)])
    lines = text.strip().splitlines()
    assert lines[0] == "experiment,label,estimate,stderr,exact,deviation"
    row = lines[1].split(",")
    assert row[0] == "born:sz" and row[1] == "0"
    assert float(row[5]) == pytest.approx(0.001, abs=1e-12)


def test_format_statistics_writes_numpy_scalars_as_floats():
    # These used to be written as np.float64(0.5) and np.float64(0.3).
    got = format_statistics([("e", "0", np.float64(0.5), np.float32(0.25), np.float64(0.2))])
    want = format_statistics([("e", "0", 0.5, 0.25, 0.2)])
    assert got == want
    assert got.splitlines()[1] == f"e,0,0.5,0.25,0.2,{abs(0.5 - 0.2)!r}"


# Scalar reference loops for the exact averages: one walk over the events and
# one label lookup per merged edge.  The package computes the same sums with
# array operations; the differential test below demands equal floats.
def scalar_offset_window_average(traj, alpha, cset, member=0):
    lo, hi = alpha, alpha + 1.0
    events = traj.events
    uppers = np.array([ev.interval.hi for ev in events])
    pieces = []
    for ev in events[int(np.searchsorted(uppers, lo, side="right")):]:
        if ev.interval.lo >= hi:
            break
        overlap = min(ev.interval.hi, hi) - max(ev.interval.lo, lo)
        if overlap > 0.0:
            pieces.append(overlap * cset.eigenvalues[ev.label_index][member])
    return float(math.fsum(pieces))


def scalar_same_outcome_measure(traj, delta, base_windows):
    if delta == 0.0:
        return 1.0
    events = traj.events
    bounds = [ev.interval.lo for ev in events] + [events[-1].interval.hi]
    shifted = [b - delta for b in bounds]
    cuts = sorted(set(b for b in bounds + shifted if 0.0 < b < base_windows))
    edges = [0.0] + cuts + [float(base_windows)]
    matched = []
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        before, after = traj.labels_at(np.array([mid, mid + delta]))
        if before == after:
            matched.append(b - a)
    return float(math.fsum(matched)) / base_windows


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
def test_exact_averages_equal_scalar_reference(kind):
    rng = np.random.default_rng(["contiguous", "two-outcome", "seeded-random"].index(kind))
    for trial in range(6):
        d = int(rng.integers(2, 7))
        windows = int(rng.integers(3, 12))
        cs = random_cset(rng, d, n_members=2)
        if trial % 3 == 2:  # conserved: every window repeats window 0
            H = Hamiltonian((cs.basis * rng.standard_normal(d)) @ cs.basis.conj().T)
        else:
            H = random_hamiltonian(rng, d)
        spec = SchedulerSpec(kind=kind, max_subintervals=4, seed=trial, offset=float(rng.random()))
        traj = trajectory(random_state(rng, d), H, cs, spec, windows)
        edges = [ev.interval.lo for ev in traj.events] + [float(windows)]
        picks = [float(x) for x in rng.choice(edges, size=8)]
        alphas = [a for a in picks if a + 1.0 <= windows]
        alphas += [float(x) for x in rng.uniform(0.0, windows - 1.0, size=4)] + [0.0, 1.0]
        for alpha in alphas:
            for member in range(2):
                got = offset_window_average(traj, alpha, cs, member)
                assert got == scalar_offset_window_average(traj, alpha, cs, member), (trial, alpha)
        # lags equal to a boundary, or to the distance between two boundaries,
        # shift boundaries exactly onto other boundaries
        deltas = [abs(b - a) for a, b in zip(picks, picks[1:])] + picks
        deltas += [float(x) for x in rng.uniform(0.0, windows - 1.0, size=4)] + [0.0, 1.0]
        for delta in deltas:
            base = int(windows - delta)
            if base < 1 or base + delta > windows:
                continue
            got = same_outcome_measure(traj, delta, base)
            assert got == scalar_same_outcome_measure(traj, delta, base), (trial, delta)


# The random reads as they were looked up before stretch counting: one binary
# search per read, in draw order.  The package now sorts the draws and counts
# them per stretch; the differential test below demands equal results.
def scattered_sample_born(traj, n_samples, seed, window=0):
    us = window + 1.0 - np.random.default_rng(seed).random(n_samples)
    labels = traj.labels[traj.bounds[1:].searchsorted(us)]
    counts = np.bincount(labels, minlength=traj.cset.dimension)
    return {k: int(c) for k, c in enumerate(counts)}


def scattered_sub_tau(traj, delta, n_pairs, seed):
    base_windows = int(math.floor(traj.windows_covered - delta))
    us = base_windows * (1.0 - np.random.default_rng(seed).random(n_pairs))
    same = traj.labels_at(us) == traj.labels_at(us + delta)
    frac = float(np.mean(same))
    return frac, math.sqrt(frac * (1.0 - frac) / n_pairs)


def reads_trajectory(rng, kind, conserved, d, windows, seed):
    cs = random_cset(rng, d)
    if conserved:
        H = Hamiltonian((cs.basis * rng.standard_normal(d)) @ cs.basis.conj().T)
    else:
        H = random_hamiltonian(rng, d)
    return Scenario(
        state0=random_state(rng, d),
        hamiltonian=H,
        csets=(cs,),
        schedulers={cs.id: SchedulerSpec(kind=kind, max_subintervals=4, seed=seed)},
    ).build_trajectory(None, windows)


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
@pytest.mark.parametrize("conserved", [False, True])
def test_random_reads_equal_scattered_reference(kind, conserved):
    rng = np.random.default_rng(["contiguous", "two-outcome", "seeded-random"].index(kind) + 10 * conserved)
    for trial in range(3):
        d = int(rng.integers(2, 7))
        windows = int(rng.integers(2, 9))
        traj = reads_trajectory(rng, kind, conserved, d, windows, seed=trial)
        for n in (1, 2, 10**5):
            seed = int(rng.integers(1 << 30))
            for window in (0, windows - 1):
                got = sample_born(traj, n, seed, window=window).counts
                assert got == scattered_sample_born(traj, n, seed, window), (trial, n, window)
            for delta in (0.0, 0.1, float(rng.random()), 1.0, windows - 1.0):
                want = scattered_sub_tau(traj, delta, n, seed)
                est = sub_tau_correlation(traj, delta, n, seed)
                assert (est.same_fraction, est.stderr) == want, (trial, n, delta)
                assert est.n_pairs == n


# Sub-tau compares labels narrowed to the smallest unsigned type that holds
# d - 1: one byte up to d = 256, two from d = 257.  Contiguous layouts put
# label d - 1 last in a window and label 0 first in the next, so the lag of
# 0.002 (about half a stretch) pairs them across every window boundary, which
# a label wrapped into one byte would count as the same outcome.
@pytest.mark.parametrize("d", [256, 257])
def test_sub_tau_reads_at_the_label_dtype_boundary_equal_scattered_reference(d):
    rng = np.random.default_rng(d)
    traj = reads_trajectory(rng, "contiguous", False, d, windows=3, seed=0)
    for delta in (0.002, 0.1, float(rng.random())):
        seed = int(rng.integers(1 << 30))
        est = sub_tau_correlation(traj, delta, 5000, seed)
        assert (est.same_fraction, est.stderr) == scattered_sub_tau(traj, delta, 5000, seed), delta


# The reads are drawn and counted in blocks of _BLOCK; counts on either side
# of a block edge, and several blocks with a ragged last one, must give the
# one-shot results bit for bit.
@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
@pytest.mark.parametrize("conserved", [False, True])
def test_random_reads_at_block_edges_equal_one_shot_reads(kind, conserved):
    rng = np.random.default_rng(["contiguous", "two-outcome", "seeded-random"].index(kind) + 10 * conserved + 100)
    traj = reads_trajectory(rng, kind, conserved, d=int(rng.integers(2, 7)), windows=5, seed=7)
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        seed = int(rng.integers(1 << 30))
        for window in (0, 4):
            got = sample_born(traj, n, seed, window=window).counts
            assert got == scattered_sample_born(traj, n, seed, window), (n, window)
        for delta in (0.0, 0.1, float(rng.random()), 4.0):
            est = sub_tau_correlation(traj, delta, n, seed)
            assert (est.same_fraction, est.stderr) == scattered_sub_tau(traj, delta, n, seed), (n, delta)


# A long trajectory's sub-tau blocks hold _READS_PER_STRETCH reads per
# stretch, more than _BLOCK; the results stay those of the one-shot reads.
@pytest.mark.parametrize("conserved", [False, True])
def test_sub_tau_blocks_of_a_long_trajectory_equal_one_shot_reads(conserved):
    rng = np.random.default_rng(200 + conserved)
    traj = reads_trajectory(rng, "seeded-random", conserved, d=16, windows=150, seed=9)
    block = _READS_PER_STRETCH * traj.labels.size
    assert block > _BLOCK
    for n in (block - 1, block, block + 1, 2 * block + 7):
        seed = int(rng.integers(1 << 30))
        for delta in (0.1, float(rng.random()), 149.0):
            est = sub_tau_correlation(traj, delta, n, seed)
            assert (est.same_fraction, est.stderr) == scattered_sub_tau(traj, delta, n, seed), (n, delta)


# Four million reads held at once take 32 MB per float array; in blocks the
# traced peak stays near a few blocks whatever the read count.
def test_random_reads_memory_does_not_grow_with_the_read_count():
    rng = np.random.default_rng(13)
    traj = reads_trajectory(rng, "seeded-random", True, d=16, windows=126, seed=3)
    n = 4_000_000
    for read in (
        lambda: sample_born(traj, n, seed=5, window=60),
        lambda: sub_tau_correlation(traj, 0.1, n, seed=6),
    ):
        tracemalloc.start()
        try:
            read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


# Each block is released before the next is drawn, so the traced peak is
# one block of doubles plus what is read from it, not two blocks.
def test_random_reads_hold_one_block_at_a_time():
    rng = np.random.default_rng(14)
    traj = reads_trajectory(rng, "seeded-random", False, d=4, windows=20, seed=4)
    assert _READS_PER_STRETCH * traj.labels.size < _BLOCK
    n, block_bytes = 4 * _BLOCK, 8 * _BLOCK
    for read in (
        lambda: sample_born(traj, n, seed=5, window=10),
        lambda: sub_tau_correlation(traj, 0.1, n, seed=6),
    ):
        tracemalloc.start()
        try:
            read()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block_bytes < peak < 1.5 * block_bytes, peak


def test_sub_tau_reports_the_base_span_it_sampled():
    traj = stationary_half_trajectory(windows=4)
    for delta, base_windows in [(0.0, 4), (0.5, 3), (1.0, 3), (2.9, 1)]:
        assert sub_tau_correlation(traj, delta, 10, seed=0).base_windows == base_windows


def test_offset_window_average_rejects_another_sets_eigenbasis():
    rabi = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    traj = trajectory(make_state([1.0, 0.0]), rabi, sigma_z_set(), SchedulerSpec(), 3)
    with pytest.raises(ValueError, match="'sx'.*'sz'"):
        offset_window_average(traj, 0.5, sigma_x_set())
    # Another set on the same eigenbasis weights the same stretches with its own values.
    own = offset_window_average(traj, 0.5, traj.cset)
    assert offset_window_average(traj, 0.5, sigma_z_set("z-copy")) == own
    doubled = CommutingSet("z2", np.eye(2), ((0,), (1,)), ((2.0,), (-2.0,)))
    assert offset_window_average(traj, 0.5, doubled) == pytest.approx(2.0 * own, abs=1e-15)


# NaN compares false with everything, so each range check is written to fail
# on it; an infinite lag or offset fails the upper bound.
def test_offset_window_average_rejects_a_nan_offset():
    traj = stationary_half_trajectory(windows=3)
    with pytest.raises(ValueError, match="falls outside the covered span"):
        offset_window_average(traj, math.nan, traj.cset)


def test_same_outcome_measure_rejects_a_non_finite_lag_or_base_span():
    traj = stationary_half_trajectory(windows=3)
    with pytest.raises(ValueError, match="delta must be non-negative"):
        same_outcome_measure(traj, math.nan, 2)
    with pytest.raises(ValueError, match="must fit inside the covered windows"):
        same_outcome_measure(traj, math.inf, 2)
    with pytest.raises(ValueError, match="base_windows must be an integer, got nan"):
        same_outcome_measure(traj, 0.5, math.nan)


@pytest.mark.parametrize("delta", [math.nan, math.inf], ids=repr)
def test_sub_tau_correlation_rejects_a_non_finite_lag(delta):
    traj = stationary_half_trajectory(windows=3)
    message = "delta must be non-negative" if math.isnan(delta) else "whole base window"
    with pytest.raises(ValueError, match=message):
        sub_tau_correlation(traj, delta, 10, 0)


@pytest.mark.parametrize("bad", [1.5, 2.0, float("nan"), np.float64(1.0), "1", True], ids=repr)
def test_counts_and_window_must_be_integers(bad):
    # sample_born used to read a "window 1.5" on (1.5, 2.5]; a fractional
    # n_samples or n_pairs failed with a TypeError inside numpy.  True was
    # taken for 1: window 1, or a distribution with total=True.
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    traj = trajectory(make_state([1.0, 0.0]), H, sigma_z_set(), SchedulerSpec(), 4)
    def message(name):
        return rf"^{name} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message("window")):
        sample_born(traj, 100, 3, window=bad)
    with pytest.raises(ValueError, match=message("n_samples")):
        sample_born(traj, bad, 3)
    with pytest.raises(ValueError, match=message("n_pairs")):
        sub_tau_correlation(traj, 0.25, bad, 3)


def test_numpy_integer_counts_and_window_are_accepted():
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    traj = trajectory(make_state([1.0, 0.0]), H, sigma_z_set(), SchedulerSpec(), 4)
    assert sample_born(traj, np.int64(100), 3, window=np.int32(2)).counts == sample_born(traj, 100, 3, window=2).counts
    assert sub_tau_correlation(traj, 0.25, np.int64(50), 3) == sub_tau_correlation(traj, 0.25, 50, 3)


def test_every_seeded_draw_refuses_a_seed_that_is_not_a_non_negative_integer(monkeypatch):
    # sample_born and sub_tau_correlation handed the seed to numpy, which
    # said "SeedSequence expects int ..." for 1.5, "expected non-negative
    # integer" for -1, and drew seed 1's reads for True; sequence_records too.
    import qergo.ergodic as ergodic
    from qergo.measurement import sequence_records

    traj = stationary_half_trajectory(windows=3)
    scenario = Scenario(make_state([1.0, 1.0]), Hamiltonian(np.zeros((2, 2))), (sigma_z_set(),), {})
    for seed in (1.5, -1, True):
        message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            sample_born(traj, 10, seed)
        with pytest.raises(ValueError, match=message):
            sub_tau_correlation(traj, 0.25, 10, seed)
        with pytest.raises(ValueError, match=message):
            sequence_records(scenario, [("sz", 0.5)], 2, seed)
    # A numpy integer is a seed, drawing what the Python int draws.
    assert sample_born(traj, 50, np.int64(7)).counts == sample_born(traj, 50, 7).counts
    # The seed is checked once per call, not once per block of reads.
    checks = []
    monkeypatch.setattr(ergodic, "_BLOCK", 4)
    monkeypatch.setattr(ergodic, "_seed", lambda s: checks.append(s) or s)
    sample_born(traj, 10, 3)
    assert checks == [3]
    sub_tau_correlation(traj, 0.25, 300, 4)  # 4 blocks of at most 16 reads per stretch
    assert checks == [3, 4]


def test_same_outcome_measure_refuses_a_fractional_base_span():
    # base_windows = 1.5 was accepted, and the measure over (0, 1.5] returned.
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]])),
        sigma_z_set(), SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=2), 3,
    )
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match=rf"^base_windows must be an integer, got {bad!r}$"):
            same_outcome_measure(traj, 0.1, bad)
    assert same_outcome_measure(traj, 0.1, np.int64(2)) == same_outcome_measure(traj, 0.1, 2)
