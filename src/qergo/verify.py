"""Self-contained invariant batteries behind the ``verify`` subcommand.

Each battery exercises one structural invariant on seeded random inputs
and reports its worst observed deviation.  Everything here is deterministic
(fixed seeds), so a reported failure is immediately reproducible from the
echoed inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ergodic import offset_window_average, window_average_step
from .hilbert import (
    CommutingSet,
    Hamiltonian,
    born_probabilities,
    evolve,
    expectation,
    make_state,
)
from .measurement import SystemUnderObservation, measure
from .microstate import Scenario, trajectory
from .partition import (
    SchedulerSpec,
    build_partition,
    check_partition,
    interval_measure,
    periodic_extend,
    step_function,
)
from .qgrid import (
    GridWavefunction,
    cell_probabilities,
    position_partition,
    window_renormalize,
)
from .testing import (
    random_cset,
    random_hamiltonian,
    random_probabilities,
    random_state,
    sigma_x_set,
    sigma_z_set,
)

__all__ = ["CheckResult", "verify_suite", "run_checks"]

_SCHEDULERS = (
    SchedulerSpec(),
    SchedulerSpec(kind="two-outcome", offset=0.3),
    SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=11),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str | None = None

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        base = f"{status} {self.name:<34} worst={self.worst:.3e} tol={self.tolerance:.1e}"
        if self.detail:
            base += f"\n     {self.detail}"
        return base


def _check_state_normalization():
    worst, detail = 0.0, None
    for seed in range(40):
        d = 2 + seed % 7
        psi = random_state(np.random.default_rng(seed), d)
        dev = abs(float(np.linalg.norm(psi.amplitudes)) - 1.0)
        if dev > worst:
            worst, detail = dev, f"random_state(default_rng({seed}), d={d})"
    return worst, 1e-12, detail


def _check_propagator_unitarity():
    worst, detail = 0.0, None
    for seed in range(25):
        d = 2 + seed % 5
        h = random_hamiltonian(np.random.default_rng(seed), d)
        du = 0.1 + (seed % 9) / 3.0
        u = h.propagator(du)
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
        if dev > worst:
            worst, detail = dev, f"random_hamiltonian(default_rng({seed}), d={d}), du={du}"
    return worst, 1e-12, detail


def _check_born_completeness():
    worst, detail = 0.0, None
    for seed in range(40):
        d = 2 + seed % 6
        psi = random_state(np.random.default_rng(seed), d)
        cs = random_cset(np.random.default_rng(seed + 1000), d)
        dev = abs(float(np.sum(born_probabilities(psi, cs))) - 1.0)
        if dev > worst:
            worst, detail = dev, f"d={d}, state seed={seed}, cset seed={seed + 1000}"
    return worst, 1e-12, detail


def _check_expectation_consistency():
    worst, detail = 0.0, None
    for seed in range(30):
        d = 2 + seed % 5
        psi = random_state(np.random.default_rng(seed), d)
        cs = random_cset(np.random.default_rng(seed + 2000), d, n_members=2)
        p = born_probabilities(psi, cs)
        for m in range(cs.n_members):
            w = np.array([ev[m] for ev in cs.eigenvalues])
            dev = abs(expectation(psi, cs, m) - float(p @ w))
            if dev > worst:
                worst, detail = dev, f"d={d}, seed={seed}, member={m}"
    return worst, 1e-10, detail


def _check_partition_coverage():
    worst, detail = 0.0, None
    for seed in range(30):
        d = 2 + seed % 8
        p = random_probabilities(np.random.default_rng(seed), d)
        for spec in _SCHEDULERS:
            part = build_partition(p, window_index=seed % 5, scheduler=spec)
            dev = check_partition(part)
            if dev > worst:
                worst, detail = dev, f"probabilities={p.tolist()!r}, scheduler={spec.kind}"
    return worst, 1e-9, detail


def _check_step_function_completeness():
    worst, detail = 0.0, None
    rng = np.random.default_rng(7)
    for seed in range(20):
        d = 2 + seed % 6
        p = random_probabilities(np.random.default_rng(seed + 50), d)
        part = build_partition(p, 0, _SCHEDULERS[seed % 3])
        for u in 1.0 - rng.random(40):
            total = sum(step_function(part, k, u) for k in range(d))
            dev = abs(total - 1)
            if dev > worst:
                worst, detail = dev, f"u={u!r}, probabilities={p.tolist()!r}"
    return worst, 0.0, detail


def _check_window_average_exactness():
    worst, detail = 0.0, None
    for seed in range(15):
        d = 2 + seed % 4
        psi = random_state(np.random.default_rng(seed), d)
        h = random_hamiltonian(np.random.default_rng(seed + 300), d)
        cs = random_cset(np.random.default_rng(seed + 600), d)
        traj = trajectory(psi, h, cs, _SCHEDULERS[seed % 3], windows=4)
        for n, part in enumerate(traj.partitions):
            pn = born_probabilities(traj.states[n], cs)
            for k in range(d):
                dev = abs(window_average_step(part, k) - float(pn[k]))
                if dev > worst:
                    worst, detail = dev, f"seed={seed}, window={n}, label={k}"
    return worst, 1e-9, detail


def _check_trajectory_tiling():
    worst, detail = 0.0, None
    for seed in range(15):
        d = 2 + seed % 4
        traj = trajectory(
            random_state(np.random.default_rng(seed), d),
            random_hamiltonian(np.random.default_rng(seed + 300), d),
            random_cset(np.random.default_rng(seed + 600), d),
            _SCHEDULERS[seed % 3],
            windows=5,
        )
        b = traj.bounds
        if b[0] != 0.0 or b[-1] != 5.0 or not np.all(b[1:] > b[:-1]):
            return 1.0, 0.0, f"seed={seed}: stretches do not tile (0, 5] in order"
        for n, part in enumerate(traj.partitions):
            dev = max(abs(float(part.bounds[0]) - n), abs(float(part.bounds[-1]) - (n + 1)))
            if dev > worst:
                worst, detail = dev, f"seed={seed}, window={n}"
    return worst, 0.0, detail


def _check_long_horizon():
    """Each window's measures against the Born weights of its own window-start state.

    Generic couplings, and couplings so weak that the set passes
    ``is_conserved`` while its weights still drift by far more than 1e-9
    over 2000 windows.
    """
    worst, detail = 0.0, None
    sx = Hamiltonian(np.array([[0.0, 9e-11], [9e-11, 0.0]]))
    cases = [("sigma_y state, H = 9e-11 sigma_x", make_state([1.0, 1.0j]), sx, sigma_z_set())]
    for seed in range(3):
        d = 2 + seed
        cs = random_cset(np.random.default_rng(seed + 700), d)
        h = random_hamiltonian(np.random.default_rng(seed + 800), d)
        weak = Hamiltonian(4e-11 * h.matrix)
        psi = random_state(np.random.default_rng(seed + 900), d)
        cases += [(f"d={d}, seed={seed}, generic H", psi, h, cs)]
        cases += [(f"d={d}, seed={seed}, H scaled by 4e-11", psi, weak, cs)]
    for i, (name, psi, h, cs) in enumerate(cases):
        traj = trajectory(psi, h, cs, _SCHEDULERS[i % 3], windows=2000)
        for n, part in enumerate(traj.partitions):
            pn = born_probabilities(traj.states[n], cs)
            for k in range(cs.dimension):
                dev = abs(interval_measure(part, k) - float(pn[k]))
                if dev > worst:
                    worst, detail = dev, f"{name}, window={n}, label={k}"
    return worst, 1e-9, detail


def _check_sorted_reads():
    worst, detail = 0.0, None
    for seed in range(15):
        d = 2 + seed % 4
        cs = random_cset(np.random.default_rng(seed + 600), d)
        if seed % 5 == 4:  # diagonal in the set's basis: conserved, windows repeat
            w = np.random.default_rng(seed + 300).standard_normal(d)
            h = Hamiltonian((cs.basis * w) @ cs.basis.conj().T)
        else:
            h = random_hamiltonian(np.random.default_rng(seed + 300), d)
        traj = trajectory(
            random_state(np.random.default_rng(seed), d), h, cs, _SCHEDULERS[seed % 3], windows=6
        )
        # Random times, every bound, and the double just above every interior bound.
        b = traj.bounds[1:]
        draws = 6.0 * (1.0 - np.random.default_rng(seed + 900).random(2000))
        us = np.concatenate((draws, b, np.nextafter(b[:-1], 7.0)))
        us.sort()
        got = np.repeat(traj.labels, traj.stretch_counts(us))
        if got.size != us.size:
            return math.inf, 0.0, f"seed={seed}: stretch counts sum to {got.size}, not {us.size}"
        mismatches = float(np.count_nonzero(got != traj.labels_at(us)))
        if mismatches > worst:
            worst, detail = mismatches, f"seed={seed}: {mismatches:.0f} reads disagree with labels_at"
    return worst, 0.0, detail


def _check_conserved_periodicity():
    worst, detail = 0.0, None
    psi = make_state([3.0, 4.0])
    h = random_hamiltonian(np.random.default_rng(5), 2)
    # Measure in the energy eigenbasis: conserved by construction.
    w, v = np.linalg.eigh(h.matrix)
    cs = CommutingSet(
        id="energy",
        basis=v,
        labels=((0,), (1,)),
        eigenvalues=((float(w[0]),), (float(w[1]),)),
    )
    traj = trajectory(psi, h, cs, SchedulerSpec(kind="seeded-random", max_subintervals=2, seed=3), windows=30)
    base = traj.partitions[0]
    for n, part in enumerate(traj.partitions):
        ref = periodic_extend(base, n)
        if part.labels.size != ref.labels.size:
            dev = 1.0
        else:
            dev = max(
                float(np.max(np.abs(part.bounds - ref.bounds))),
                float(np.any(part.labels != ref.labels)),
            )
        if dev > worst:
            worst, detail = dev, f"window={n}"
        alpha = n + 0.4
        if alpha + 1.0 <= traj.windows_covered:
            a0 = offset_window_average(traj, float(n), cs, 0)
            a1 = offset_window_average(traj, alpha, cs, 0)
            dev = abs(a1 - a0)
            if dev > worst:
                worst, detail = dev, f"offset alpha={alpha}"
    return worst, 1e-9, detail


def _check_measurement_collapse():
    worst, detail = 0.0, None
    scenario = Scenario(
        state0=make_state([1.0, 1.0j]),
        hamiltonian=random_hamiltonian(np.random.default_rng(9), 2),
        csets=(sigma_z_set(), sigma_x_set()),
        schedulers={"sz": SchedulerSpec(), "sx": SchedulerSpec(kind="two-outcome")},
    )
    sys0 = SystemUnderObservation.from_scenario(scenario)
    for i, u in enumerate([0.33, 0.5, 0.71, 0.9]):
        rec, sys1 = measure(sys0, "sz" if i % 2 else "sx", u)
        dev = abs(float(np.linalg.norm(sys1.state.amplitudes)) - 1.0)
        if dev > worst:
            worst, detail = dev, f"collapse norm at u={u}"
        rec2, _ = measure(sys1, rec.cset_id, u + 0.05)
        if rec2.outcome_label != rec.outcome_label:
            return 1.0, 0.0, f"repeat at u={u + 0.05} changed outcome {rec.outcome_label} -> {rec2.outcome_label}"
    return worst, 1e-12, detail


def _check_measurement_repartition():
    worst, detail = 0.0, None
    scenario = Scenario(
        state0=make_state([3.0, 4.0]),
        hamiltonian=random_hamiltonian(np.random.default_rng(12), 2),
        csets=(sigma_z_set(), sigma_x_set()),
        schedulers={"sz": SchedulerSpec(), "sx": SchedulerSpec()},
    )
    sys0 = SystemUnderObservation.from_scenario(scenario)
    for u in [0.2, 0.45, 0.8]:
        rec, sys1 = measure(sys0, "sz", u)
        remainder = sys1.window_end - u
        for cid in ("sz", "sx"):
            part = sys1.partitions[cid]
            p = born_probabilities(sys1.state, sys1.cset(cid))
            for k in range(2):
                got = interval_measure(part, k)
                dev = abs(got - remainder * float(p[k]))
                if dev > worst:
                    worst, detail = dev, f"u={u}, cset={cid}, label={k}"
    return worst, 1e-9, detail


def _gaussian_grid() -> GridWavefunction:
    h = 1.0 / 32.0
    xs = np.arange(0.0, 21.0 + h / 2, h)
    sigma, mu = 1.7, 10.5
    vals = np.exp(-((xs - mu) ** 2) / (4 * sigma**2)).astype(np.complex128)
    return GridWavefunction(
        samples=vals, origin=0.0, spacing=h, planck_step=1.0, compton_wavelength=9.0
    )


def _check_qgrid_probability_sum():
    wf = window_renormalize(_gaussian_grid(), 10)
    total = float(np.sum(cell_probabilities(wf, 10)))
    return abs(total - 1.0), 1e-8, None


def _check_qgrid_partition_closure():
    wf = _gaussian_grid()
    worst, detail = 0.0, None
    for spec in _SCHEDULERS:
        part = position_partition(wf, 10, 0, spec)
        dev = check_partition(part)
        if dev > worst:
            worst, detail = dev, f"scheduler={spec.kind}"
    return worst, 1e-9, detail


def _check_evolution_determinism():
    worst, detail = 0.0, None
    for seed in range(10):
        d = 2 + seed % 4
        rng = np.random.default_rng(seed)
        psi = random_state(rng, d)
        h = random_hamiltonian(np.random.default_rng(seed + 40), d)
        a = evolve(psi, h, 1.7)
        b = evolve(evolve(psi, h, 0.9), h, 0.8)
        dev = float(np.max(np.abs(a.amplitudes - b.amplitudes)))
        if dev > worst:
            worst, detail = dev, f"seed={seed}: one-step vs split evolution"
    return worst, 1e-9, detail


_CHECKS = [
    ("state-normalization", _check_state_normalization),
    ("propagator-unitarity", _check_propagator_unitarity),
    ("born-completeness", _check_born_completeness),
    ("expectation-consistency", _check_expectation_consistency),
    ("evolution-composition", _check_evolution_determinism),
    ("partition-coverage", _check_partition_coverage),
    ("step-function-completeness", _check_step_function_completeness),
    ("window-average-exactness", _check_window_average_exactness),
    ("trajectory-tiling", _check_trajectory_tiling),
    ("conserved-periodicity", _check_conserved_periodicity),
    ("sorted-reads", _check_sorted_reads),
    ("long-horizon", _check_long_horizon),
    ("measurement-collapse", _check_measurement_collapse),
    ("measurement-repartition", _check_measurement_repartition),
    ("qgrid-probability-sum", _check_qgrid_probability_sum),
    ("qgrid-partition-closure", _check_qgrid_partition_closure),
]


def run_checks() -> list[CheckResult]:
    """Run every battery and collect structured results."""
    results = []
    for name, fn in _CHECKS:
        try:
            worst, tol, detail = fn()
        except Exception as exc:  # battery crashed: report, keep going
            results.append(
                CheckResult(
                    name=name,
                    passed=False,
                    worst=math.inf,
                    tolerance=0.0,
                    detail=f"raised {type(exc).__name__}: {exc}",
                )
            )
            continue
        passed = worst <= tol
        results.append(
            CheckResult(
                name=name,
                passed=passed,
                worst=worst,
                tolerance=tol,
                detail=detail if not passed else None,
            )
        )
    return results


def verify_suite(stream=None) -> bool:
    """Print one line per invariant battery; True iff everything passed."""
    stream = stream if stream is not None else sys.stdout
    results = run_checks()
    for r in results:
        print(r.line(), file=stream)
    n_fail = sum(not r.passed for r in results)
    print(
        f"{len(results) - n_fail}/{len(results)} invariant batteries passed",
        file=stream,
    )
    return n_fail == 0
