"""Execute scenario configs and write deterministic artifact files.

Each experiment computes its artifacts as ``(filename, blocks)``: an
iterable of strings that the file holds in order, consumed once.  The
runner writes them as soon as the experiment is computed, block by block,
under hidden temporary names in the output directory, so a run holds one
block of a trajectory CSV or measurement log, never a whole file or a
finished experiment's text.  The files are published, renamed to their
artifact names with the manifest last, only once every experiment has
succeeded.  Any failure, in the computation, the writes or the renames,
removes the temporary files, leaves a ``FAILED`` marker naming it and
removes an earlier run's manifest.  Nothing written here contains a
timestamp — two runs of the same config are byte-identical.
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
    _log_blocks,
    _row_tail,
    format_sequence_distribution,
    sequence_records,
    SequenceDistribution,
)
from .microstate import _trajectory_blocks
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


def _run_trajectory(config: ScenarioConfig, exp: TrajectoryExperiment, prefix: str):
    traj = config.trajectory_for(exp)
    return [(f"{prefix}.csv", _trajectory_blocks(traj))], traj.renorm_events


def _run_born_sampling(config: ScenarioConfig, exp: BornSamplingExperiment, prefix: str):
    traj = config.trajectory_for(exp)
    dist = sample_born(traj, exp.samples, exp.seed, window=exp.window)
    exact = traj.probabilities[exp.window]
    rows = [
        (exp.name, _label_text(traj.cset.labels[k]), dist.estimate(k), dist.stderr[k], float(exact[k]))
        for k in range(traj.cset.dimension)
    ]
    return [(f"{prefix}.csv", [format_statistics(rows)])], traj.renorm_events


def _run_offset_average(config: ScenarioConfig, exp: OffsetAverageExperiment, prefix: str):
    scenario = config.scenario
    traj = config.trajectory_for(exp)
    est = offset_window_average(traj, exp.alpha, traj.cset, exp.member)
    at_alpha = evolve(scenario.state0, scenario.hamiltonian, exp.alpha)
    exact = expectation(at_alpha, traj.cset, exp.member)
    rows = [(exp.name, f"member-{exp.member}", est, 0.0, exact)]
    return [(f"{prefix}.csv", [format_statistics(rows)])], traj.renorm_events


def _run_sub_tau(config: ScenarioConfig, exp: SubTauExperiment, prefix: str):
    traj = config.trajectory_for(exp)
    corr = sub_tau_correlation(traj, exp.delta, exp.pairs, exp.seed)
    exact = same_outcome_measure(traj, exp.delta, corr.base_windows)
    rows = [(exp.name, f"lag-{exp.delta!r}", corr.same_fraction, corr.stderr, exact)]
    return [(f"{prefix}.csv", [format_statistics(rows)])], traj.renorm_events


def _run_sequential(config: ScenarioConfig, exp: SequentialExperiment, prefix: str):
    steps = list(exp.steps)
    runs = sequence_records(config.scenario, steps, exp.runs, exp.seed)
    csets = [config.scenario.cset(cid) for cid, _ in steps]
    # One pass: the counter reads each run's labels, and the log keeps only
    # its measurement times and outcome indices.
    times = np.empty((exp.runs, len(steps)))
    outcomes = np.empty((exp.runs, len(steps)), np.min_scalar_type(max(c.dimension for c in csets) - 1))
    renorms = 0

    def histories():
        nonlocal renorms
        for r, sys in enumerate(runs):
            times[r] = [rec.time for rec in sys.history]
            outcomes[r] = [rec.outcome_index for rec in sys.history]
            renorms += sys.renorm_events
            yield sys.history

    dist = SequenceDistribution.from_runs(steps, histories())
    tails = [[_row_tail(c.id, *outcome) for outcome in zip(c.labels, c.eigenvalues)] for c in csets]
    log = _log_blocks(
        zip(t.tolist(), [tails[step][i] for step, i in enumerate(k.tolist())])
        for t, k in zip(times, outcomes)
    )
    files = [
        (f"{prefix}-log.csv", log),
        (f"{prefix}-summary.csv", [format_sequence_distribution(dist)]),
    ]
    return files, renorms


def _run_qgrid(config: ScenarioConfig, exp: QGridExperiment, prefix: str):
    grid_path = config.base_dir / exp.grid_file
    wf = load_grid(grid_path, exp.planck_step, exp.compton_wavelength)
    wf = window_renormalize(wf, exp.center_cell)
    part = position_partition(wf, exp.center_cell, exp.window_index, exp.scheduler)
    files = [
        (f"{prefix}-cells.csv", [format_cell_probabilities(wf, exp.center_cell)]),
        (f"{prefix}-partition.csv", [dump_partition(part)]),
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
    """Compute one experiment's artifacts, ready to be written.

    Returns ``(artifacts, renorm_events)`` where artifacts is a list of
    ``(filename, blocks)`` pairs: ``blocks`` is an iterable of strings,
    to be consumed once, and the file's text is their join.  Everything
    but the text is computed here, the renormalization count included; a
    trajectory CSV or a measurement log is formatted a block at a time as
    its blocks are consumed, holding its trajectory's arrays or its runs'
    times and outcomes until then.  Nothing is written to disk here.
    """
    return _RUNNERS[type(exp)](config, exp, f"{_index(ordinal, 'ordinal', 0):02d}-{exp.name}")


def _experiment_seed(exp: Experiment) -> str:
    seed = getattr(exp, "seed", None)
    return "-" if seed is None else str(seed)


def _manifest(config: ScenarioConfig, config_path: Path, names: list[list[str]]) -> str:
    # Only config identity, seeds, versions, and outputs: bytes must not
    # depend on run parameters like the output directory.
    lines = [
        "format = qergo-run-manifest-1",
        f"package = qergo {__version__}",
        f"numpy = {np.__version__}",
        f"config = {config_path.name}",
        f"config_sha256 = {config.sha256}",
    ]
    for exp, files in zip(config.experiments, names):
        lines.append(
            f"experiment = {exp.name} kind={exp.kind} seed={_experiment_seed(exp)} files={';'.join(files)}"
        )
    lines.append("status = ok")
    return "\n".join(lines) + "\n"


def _temporary(path: Path) -> Path:
    """Where ``path`` is written before it is published: a hidden sibling."""
    return path.with_name(f".{path.name}.tmp")


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

    Each experiment's files are written as soon as it is computed, block by
    block, under hidden temporary names in the output directory, so a run
    holds one block of a trajectory CSV or measurement log at a time.  Only
    once every experiment has succeeded are the files published: each is
    renamed to its artifact name, and the manifest is written last.  On
    any failure, computing, writing or publishing, the temporary files are
    removed, a ``FAILED`` marker naming the error is left in the output
    directory, an earlier run's manifest is removed and the error is raised
    again.  Returns the published paths, the manifest last.
    """
    config_path = Path(config_path)
    config = load_config(config_path)
    if out_dir is None:
        out = config.base_dir / config.output_dir
    else:
        out = Path(out_dir)

    written: list[Path] = []
    names: list[list[str]] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for i, exp in enumerate(config.experiments):
            files, renorms = run_experiment(config, exp, i)
            if strict_float and renorms:
                raise InvariantViolation(
                    f"strict-float: {renorms} renormalization event(s) while "
                    f"running experiment {exp.name!r}"
                )
            names.append([])
            for name, blocks in files:
                written.append(out / name)
                names[-1].append(name)
                with _temporary(out / name).open("w", encoding="utf-8") as fh:
                    fh.writelines(blocks)
        written.append(out / MANIFEST)
        _temporary(out / MANIFEST).write_text(_manifest(config, config_path, names), encoding="utf-8")
        # From here the tree changes: no marker or manifest may describe a mix.
        (out / FAILURE_MARKER).unlink(missing_ok=True)
        (out / MANIFEST).unlink(missing_ok=True)
        for path in written:
            _temporary(path).replace(path)
    except Exception as exc:
        for path in written:
            try:
                _temporary(path).unlink(missing_ok=True)
            except OSError:
                pass  # as with the marker, the original error comes first
        _write_failure_marker(out, f"{type(exc).__name__}: {exc}")
        raise
    return written
