"""Execute scenario configs and write deterministic artifact files.

Every experiment is computed in memory first; files only touch disk once
the whole scenario has succeeded.  Any failure, in the computation or in
the writes, leaves a ``FAILED`` marker naming it and removes an earlier
run's manifest; files written before a failed write can still sit beside
the marker.  Nothing written here contains a timestamp — two runs of the
same config are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    BornSamplingExperiment,
    Experiment,
    OffsetAverageExperiment,
    QGridExperiment,
    ScenarioConfig,
    SequentialExperiment,
    SubTauExperiment,
    TrajectoryExperiment,
    load_config,
)
from .errors import InvariantViolation
from .ergodic import (
    format_statistics,
    offset_window_average,
    same_outcome_measure,
    sample_born,
    sub_tau_correlation,
)
from .hilbert import _label_text, evolve, expectation
from .measurement import (
    format_measurement_log,
    format_sequence_distribution,
    sequence_records,
    SequenceDistribution,
)
from .microstate import dump_trajectory
from .partition import _index, dump_partition
from .qgrid import (
    format_cell_probabilities,
    load_grid,
    position_partition,
    window_renormalize,
)

__all__ = ["run_scenario", "run_experiment", "FAILURE_MARKER"]

FAILURE_MARKER = "FAILED"
MANIFEST = "manifest.txt"

# (filename, text) pairs — computed fully before anything is written.
Artifacts = list[tuple[str, str]]


def _run_trajectory(config: ScenarioConfig, exp: TrajectoryExperiment, prefix: str):
    traj = config.trajectory_for(exp)
    return [(f"{prefix}.csv", dump_trajectory(traj))], traj.renorm_events


def _run_born_sampling(config: ScenarioConfig, exp: BornSamplingExperiment, prefix: str):
    traj = config.trajectory_for(exp)
    dist = sample_born(traj, exp.samples, exp.seed, window=exp.window)
    exact = traj.probabilities[exp.window]
    rows = [
        (exp.name, _label_text(traj.cset.labels[k]), dist.estimate(k), dist.stderr[k], float(exact[k]))
        for k in range(traj.cset.dimension)
    ]
    return [(f"{prefix}.csv", format_statistics(rows))], traj.renorm_events


def _run_offset_average(config: ScenarioConfig, exp: OffsetAverageExperiment, prefix: str):
    scenario = config.scenario
    traj = config.trajectory_for(exp)
    est = offset_window_average(traj, exp.alpha, traj.cset, exp.member)
    at_alpha = evolve(scenario.state0, scenario.hamiltonian, exp.alpha)
    exact = expectation(at_alpha, traj.cset, exp.member)
    rows = [(exp.name, f"member-{exp.member}", est, 0.0, exact)]
    return [(f"{prefix}.csv", format_statistics(rows))], traj.renorm_events


def _run_sub_tau(config: ScenarioConfig, exp: SubTauExperiment, prefix: str):
    traj = config.trajectory_for(exp)
    corr = sub_tau_correlation(traj, exp.delta, exp.pairs, exp.seed)
    exact = same_outcome_measure(traj, exp.delta, corr.base_windows)
    rows = [(exp.name, f"lag-{exp.delta!r}", corr.same_fraction, corr.stderr, exact)]
    return [(f"{prefix}.csv", format_statistics(rows))], traj.renorm_events


def _run_sequential(config: ScenarioConfig, exp: SequentialExperiment, prefix: str):
    histories, renorms = [], 0
    for sys in sequence_records(config.scenario, list(exp.steps), exp.runs, exp.seed):
        histories.append(sys.history)
        renorms += sys.renorm_events
    dist = SequenceDistribution.from_runs(exp.steps, histories)
    files = [
        (f"{prefix}-log.csv", format_measurement_log(histories)),
        (f"{prefix}-summary.csv", format_sequence_distribution(dist)),
    ]
    return files, renorms


def _run_qgrid(config: ScenarioConfig, exp: QGridExperiment, prefix: str):
    grid_path = config.base_dir / exp.grid_file
    wf = load_grid(grid_path, exp.planck_step, exp.compton_wavelength)
    wf = window_renormalize(wf, exp.center_cell)
    part = position_partition(wf, exp.center_cell, exp.window_index, exp.scheduler)
    files = [
        (f"{prefix}-cells.csv", format_cell_probabilities(wf, exp.center_cell)),
        (f"{prefix}-partition.csv", dump_partition(part)),
    ]
    return files, 0


_RUNNERS = {
    TrajectoryExperiment: _run_trajectory,
    BornSamplingExperiment: _run_born_sampling,
    OffsetAverageExperiment: _run_offset_average,
    SubTauExperiment: _run_sub_tau,
    SequentialExperiment: _run_sequential,
    QGridExperiment: _run_qgrid,
}


def run_experiment(config: ScenarioConfig, exp: Experiment, ordinal: int):
    """Compute one experiment's artifacts in memory.

    Returns ``(artifacts, renorm_events)`` where artifacts is a list of
    (filename, text) pairs.  Nothing is written to disk here.
    """
    return _RUNNERS[type(exp)](config, exp, f"{_index(ordinal, 'ordinal'):02d}-{exp.name}")


def _experiment_seed(exp: Experiment) -> str:
    seed = getattr(exp, "seed", None)
    return "-" if seed is None else str(seed)


def _manifest(
    config: ScenarioConfig,
    config_path: Path,
    per_experiment_files: list[Artifacts],
) -> str:
    # Only config identity, seeds, versions, and outputs: bytes must not
    # depend on run parameters like the output directory.
    lines = [
        "format = qergo-run-manifest-1",
        f"package = qergo {__version__}",
        f"numpy = {np.__version__}",
        f"config = {config_path.name}",
        f"config_sha256 = {config.sha256}",
    ]
    for exp, files in zip(config.experiments, per_experiment_files):
        names = ";".join(name for name, _ in files)
        lines.append(
            f"experiment = {exp.name} kind={exp.kind} seed={_experiment_seed(exp)} files={names}"
        )
    lines.append("status = ok")
    return "\n".join(lines) + "\n"


def _write_failure_marker(out_dir: Path, message: str):
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # An earlier run's manifest ends "status = ok"; it must not outlive this failure.
        (out_dir / MANIFEST).unlink(missing_ok=True)
        (out_dir / FAILURE_MARKER).write_text(message + "\n", encoding="utf-8")
    except OSError:
        pass  # the original error matters more than the marker


def run_scenario(
    config_path,
    out_dir=None,
    strict_float: bool = False,
) -> list[Path]:
    """Run every experiment block of a config and write its artifacts.

    All experiments are computed before any file is written.  On any
    failure, computing or writing, a ``FAILED`` marker naming the error is
    left in the output directory, an earlier run's manifest is removed and
    the error is raised again; a failed write can leave the files written
    before it beside the marker.  Returns the written paths, the manifest
    last.
    """
    config_path = Path(config_path)
    config = load_config(config_path)
    if out_dir is None:
        out = config.base_dir / config.output_dir
    else:
        out = Path(out_dir)

    try:
        results = [
            run_experiment(config, exp, i) for i, exp in enumerate(config.experiments)
        ]
        if strict_float:
            for exp, (_, renorms) in zip(config.experiments, results):
                if renorms:
                    raise InvariantViolation(
                        f"strict-float: {renorms} renormalization event(s) while "
                        f"running experiment {exp.name!r}"
                    )
        per_experiment_files = [files for files, _ in results]
        out.mkdir(parents=True, exist_ok=True)
        (out / FAILURE_MARKER).unlink(missing_ok=True)
        written: list[Path] = []
        for files in per_experiment_files:
            for name, text in files:
                path = out / name
                path.write_text(text, encoding="utf-8")
                written.append(path)
        manifest_path = out / MANIFEST
        manifest_path.write_text(
            _manifest(config, config_path, per_experiment_files),
            encoding="utf-8",
        )
        written.append(manifest_path)
    except Exception as exc:
        _write_failure_marker(out, f"{type(exc).__name__}: {exc}")
        raise
    return written
