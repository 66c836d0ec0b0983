"""Acceptance gate: the package's headline guarantees, one test per claim.

Each test prints a ``[PASS]``/``[FAIL]`` line with its runtime (visible
with ``pytest -s``), enforces the stated numeric tolerance, and fails if
it blows its runtime budget.  Statistical tiers use fixed seeds, so every
number here is reproducible bit for bit.
"""

import functools
import hashlib
import math
import time

import numpy as np
import pytest

from qergo import (
    Scenario,
    SchedulerSpec,
    born_probabilities,
    build_partition,
    check_partition,
    evolve,
    expectation,
    interval_measure,
    make_state,
    offset_window_average,
    sample_born,
    same_outcome_measure,
    sequential_experiment,
    step_function,
    sub_tau_correlation,
    total_variation,
    trajectory,
    window_average_step,
    window_average_value,
)
from qergo.hilbert import CommutingSet, Hamiltonian, QuantumState
from qergo.measurement import SystemUnderObservation, measure
from qergo.partition import periodic_extend
from qergo.qgrid import (
    GridWavefunction,
    cell_probabilities,
    position_partition,
    window_renormalize,
)
from qergo.runner import run_scenario
from qergo.testing import (
    haar_unitary,
    random_cset,
    random_hamiltonian,
    random_probabilities,
    random_state,
    sigma_x_set,
    sigma_z_set,
)

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ALL_SCHEDULERS = (
    SchedulerSpec(),
    SchedulerSpec(kind="two-outcome", offset=0.25),
    SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=5),
)


def criterion(n: int, budget_s: float):
    """Wrap a test so it reports one line and enforces its runtime budget."""

    def deco(fn):
        title = fn.__doc__.strip().splitlines()[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                assert dt < budget_s, f"took {dt:.1f}s, budget {budget_s:.0f}s"
            except BaseException:
                print(f"[FAIL] criterion {n:2d}: {title}")
                raise
            print(f"[PASS] criterion {n:2d} ({dt:5.2f}s): {title}")

        return wrapper

    return deco


@criterion(1, 5.0)
def test_criterion_01_partition_validity_sweep():
    """1000 random weight vectors tile their windows under every scheduler."""
    rng = np.random.default_rng(1)
    for i in range(1000):
        d = 2 + i % 15
        p = random_probabilities(rng, d)
        for spec in ALL_SCHEDULERS:
            part = build_partition(p, window_index=i % 7, scheduler=spec)
            worst = check_partition(part)  # coverage, boundaries, measures
            assert worst <= 1e-9
            for (a, _), (b, _) in zip(part.segments, part.segments[1:]):
                assert a.hi == b.lo  # disjointness with zero gap, exactly
            for k in range(d):
                assert abs(interval_measure(part, k) - float(p[k])) <= 1e-9


@criterion(2, 5.0)
def test_criterion_02_step_function_algebra():
    """At 10^4 random times per partition, completeness and idempotency hold exactly."""
    rng = np.random.default_rng(2)
    for d, spec in [(2, ALL_SCHEDULERS[0]), (2, ALL_SCHEDULERS[1]), (5, ALL_SCHEDULERS[2])]:
        p = random_probabilities(rng, d)
        part = build_partition(p, 0, spec)
        us = 1.0 - rng.random(10_000)
        for u in us:
            s = np.array([step_function(part, k, float(u)) for k in range(d)])
            assert s.sum() == 1  # exactly one active label
            assert np.array_equal(np.outer(s, s), np.diag(s))  # S_j S_k = delta_jk S_j


@criterion(3, 10.0)
def test_criterion_03_window_averages_exact():
    """Window averages of step and value functions equal the quantum statistics to 1e-9."""
    rng = np.random.default_rng(3)
    for i in range(1000):
        d = 2 + i % 7
        psi = random_state(rng, d)
        h = random_hamiltonian(rng, d)
        cs = random_cset(rng, d, n_members=1 + i % 2)
        traj = trajectory(psi, h, cs, ALL_SCHEDULERS[i % 3], windows=2)
        part = traj.partition(1)
        state1 = QuantumState(traj.amplitudes[1])
        p = born_probabilities(state1, cs)
        for k in range(d):
            assert abs(window_average_step(part, k) - float(p[k])) <= 1e-9
        for m in range(cs.n_members):
            want = expectation(state1, cs, m)
            assert abs(window_average_value(part, cs, m) - want) <= 1e-9


@criterion(4, 30.0)
def test_criterion_04_random_time_sampling():
    """10^6 uniform reads per seed land within 4 binomial errors of the measures."""
    n = 1_000_000
    for seed in range(50):
        d = 2 + seed % 5
        rng = np.random.default_rng(seed)
        traj = trajectory(
            random_state(rng, d),
            random_hamiltonian(rng, d),
            random_cset(rng, d),
            ALL_SCHEDULERS[seed % 3],
            windows=1,
        )
        dist = sample_born(traj, n, seed)
        for k in range(d):
            m = interval_measure(traj.partition(0), k)
            se = math.sqrt(m * (1.0 - m) / n)
            if se == 0.0:
                assert dist.estimate(k) == m
            else:
                assert abs(dist.estimate(k) - m) <= 4.0 * se, (seed, k)


@criterion(5, 5.0)
def test_criterion_05_conserved_periodicity():
    """With the Hamiltonian diagonal in the readout basis, every window repeats window 0 exactly."""
    rng = np.random.default_rng(5)
    d = 3
    b = haar_unitary(rng, d)
    w = rng.standard_normal(d)
    h = Hamiltonian(b @ np.diag(w) @ b.conj().T)
    cs = CommutingSet(
        id="diag",
        basis=b,
        labels=tuple((k,) for k in range(d)),
        eigenvalues=tuple((float(x),) for x in w),
    )
    psi = random_state(rng, d)
    traj = trajectory(psi, h, cs, ALL_SCHEDULERS[2], windows=1000)
    base = traj.partition(0)
    for n in range(1000):
        ref = periodic_extend(base, n)
        part = traj.partition(n)
        assert len(part.segments) == len(ref.segments)
        for (seg, k), (rseg, rk) in zip(part.segments, ref.segments):
            assert k == rk and seg.lo == rseg.lo and seg.hi == rseg.hi  # bitwise


@criterion(6, 5.0)
def test_criterion_06_rabi_audit():
    """Per-window ground-label duration follows cos^2(N/2) to 1e-9 for N < 100."""
    h = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    traj = trajectory(
        make_state([1.0, 0.0]), h, sigma_z_set(), SchedulerSpec(kind="two-outcome"), windows=100
    )
    for n in range(100):
        want = math.cos(n / 2.0) ** 2
        assert abs(interval_measure(traj.partition(n), 0) - want) <= 1e-9, n


@criterion(7, 10.0)
def test_criterion_07_deviation_scaling():
    """Halving the drive rate shrinks the offset-window deviation by roughly half."""
    psi0 = make_state([1.0, -1.0j])
    cs = sigma_z_set()
    alpha = 0.5

    def deviation(omega: float) -> float:
        h = Hamiltonian((omega / 2.0) * np.array([[0.0, 1.0], [1.0, 0.0]]))
        traj = trajectory(psi0, h, cs, SchedulerSpec(kind="two-outcome"), windows=2)
        est = offset_window_average(traj, alpha, cs, 0)
        exact = expectation(evolve(psi0, h, alpha), cs, 0)
        return abs(est - exact)

    ratio = deviation(0.5) / deviation(0.25)
    assert 1.6 <= ratio <= 2.4, ratio


@criterion(8, 10.0)
def test_criterion_08_short_lag_agreement():
    """Same-outcome fraction: exactly 1 at zero lag, 0.8 at lag 0.1 for even weights."""
    scenario = Scenario(
        state0=make_state([1.0, 1.0]),
        hamiltonian=Hamiltonian(np.zeros((2, 2))),
        csets=(sigma_z_set(),),
        schedulers={"sz": SchedulerSpec()},
    )
    traj = scenario.build_trajectory(None, 8)
    zero = sub_tau_correlation(traj, 0.0, 1000, seed=8)
    assert zero.same_fraction == 1.0  # piecewise-constant: both reads coincide

    corr = sub_tau_correlation(traj, 0.1, 100_000, seed=88)
    analytic = same_outcome_measure(traj, 0.1, 7)
    assert abs(analytic - 0.8) <= 1e-12
    assert abs(corr.same_fraction - analytic) <= 3.0 * corr.stderr


def _exact_joint(psi0, first: CommutingSet, second: CommutingSet):
    """Enumerate outcome pairs with collapse between the two readouts."""
    joint = {}
    p1 = born_probabilities(psi0, first)
    for k1 in range(first.dimension):
        if p1[k1] == 0.0:
            continue
        collapsed = make_state(first.basis_vector(k1))
        p2 = born_probabilities(collapsed, second)
        for k2 in range(second.dimension):
            if p2[k2] == 0.0:
                continue
            key = (first.labels[k1], second.labels[k2])
            joint[key] = joint.get(key, 0.0) + float(p1[k1]) * float(p2[k2])
    return joint


@criterion(9, 30.0)
def test_criterion_09_measurement_protocol():
    """Repeat readouts stick, single readouts match the measures, order matters by the enumerated amount."""
    # (a) collapse idempotency, frozen Hamiltonian: exact.
    scenario = Scenario(
        state0=make_state([0.6, 0.8]),
        hamiltonian=Hamiltonian(np.zeros((2, 2))),
        csets=(sigma_z_set(), sigma_x_set()),
        schedulers={"sz": SchedulerSpec(), "sx": SchedulerSpec()},
    )
    sys0 = SystemUnderObservation.from_scenario(scenario)
    rec1, sys1 = measure(sys0, "sz", 0.4)
    rec2, _ = measure(sys1, "sz", 0.7)
    assert rec2.outcome_label == rec1.outcome_label
    assert np.array_equal(rec2.post_state.amplitudes, rec1.post_state.amplitudes)

    # (b) single-readout frequencies against the interval measures, 4 errors.
    n = 10_000
    dist = sequential_experiment(scenario, [("sz", 0.5)], n, seed=9)
    part0 = sys0.partitions["sz"]
    for k, label in enumerate(scenario.cset("sz").labels):
        m = interval_measure(part0, k)
        se = math.sqrt(m * (1.0 - m) / n)
        assert abs(dist.frequency((label,)) - m) <= 4.0 * se

    # (c) order dependence against the enumeration oracle, 3 errors.
    ordered = Scenario(
        state0=make_state([1.0, 0.0]),
        hamiltonian=Hamiltonian(np.zeros((2, 2))),
        csets=(sigma_z_set(), sigma_x_set()),
        schedulers={"sz": SchedulerSpec(), "sx": SchedulerSpec()},
    )
    sz, sx = ordered.cset("sz"), ordered.cset("sx")
    joint_zx = _exact_joint(ordered.state0, sz, sx)
    joint_xz = _exact_joint(ordered.state0, sx, sz)
    support = set(joint_zx) | set((b, a) for a, b in joint_xz)
    tv_exact = 0.5 * sum(
        abs(joint_zx.get(key, 0.0) - joint_xz.get((key[1], key[0]), 0.0)) for key in support
    )
    assert tv_exact > 0.0

    n = 10_000
    zx = sequential_experiment(ordered, [("sz", 0.3), ("sx", 0.7)], n, seed=91)
    xz = sequential_experiment(ordered, [("sx", 0.3), ("sz", 0.7)], n, seed=92)
    tv = total_variation(zx, xz, reorder=(1, 0))
    # Error bars via the delta method on the two frequency vectors.
    var = sum(p * (1.0 - p) / n for p in joint_zx.values())
    var += sum(p * (1.0 - p) / n for p in joint_xz.values())
    assert abs(tv - tv_exact) <= 3.0 * math.sqrt(var / 4.0)


@criterion(10, 10.0)
def test_criterion_10_position_pipeline():
    """Cell probabilities normalize, survive refinement, and drive valid partitions."""

    def gaussian(spacing: float) -> GridWavefunction:
        xs = np.arange(0.0, 21.0 + spacing / 2, spacing)
        vals = np.exp(-((xs - 10.5) ** 2) / (4.0 * 1.7**2)).astype(np.complex128)
        return GridWavefunction(
            samples=vals, origin=0.0, spacing=spacing, planck_step=1.0, compton_wavelength=9.0
        )

    coarse = window_renormalize(gaussian(1.0 / 32.0), 10)
    pr = cell_probabilities(coarse, 10)
    assert abs(float(np.sum(pr)) - 1.0) <= 1e-8

    fine = window_renormalize(gaussian(1.0 / 64.0), 10)
    pr_fine = cell_probabilities(fine, 10)
    assert float(np.max(np.abs(pr - pr_fine))) <= 1e-8

    for spec in ALL_SCHEDULERS:
        part = position_partition(coarse, 10, 0, spec)
        assert check_partition(part) <= 1e-9


@criterion(11, 10.0)
def test_criterion_11_reproducibility(tmp_path):
    """Every bundled config, run twice, produces byte-identical artifacts."""
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(configs) >= 5
    for cfg in configs:
        a = tmp_path / f"{cfg.stem}-a"
        b = tmp_path / f"{cfg.stem}-b"
        run_scenario(cfg, out_dir=a)
        run_scenario(cfg, out_dir=b)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a, cfg.name
        for name in files_a:
            ha = hashlib.sha256((a / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((b / name).read_bytes()).hexdigest()
            assert ha == hb, (cfg.name, name)
