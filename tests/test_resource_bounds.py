"""Deterministic memory bounds at scale: ``tracemalloc`` peaks over what a call keeps or writes.

Each case runs one call at a size that takes about a second under
``tracemalloc`` and asserts its traced peak as a multiple of what the call
keeps or writes.  A peak is deterministic on one Python and numpy, so a
bound needs no repeated runs and does not drift with the host.  Each bound
is the ratio measured when it was set plus a stated margin; a change that
improves a ratio tightens its bound, and no bound is loosened to let a
change pass.  The configs are d = 4 or smaller.
"""

import tracemalloc
from pathlib import Path

# numpy imports numpy.random on its first use, about 0.7 MiB that stays:
# import it here, so that no traced peak counts the import.
import numpy.random  # noqa: F401

import qergo.microstate as microstate
from qergo import load_config, parse_config_text
from qergo.runner import run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _kept(traj) -> int:
    return sum(a.nbytes for a in (traj.bounds, traj.labels, traj.offsets, traj.probabilities, traj.amplitudes))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A driven 4-level system: H does not commute with the set, so every window
# draws its own seeded-random layout.
DRIVEN_WALK = """
system {
  dimension = 4
  state = 0.5, 0.5, 0.5, 0.5
  hamiltonian {
    row = 0.3, 0.7, 0.1, 0.0
    row = 0.7, -0.2, 0.4, 0.2
    row = 0.1, 0.4, 0.5, -0.6
    row = 0.0, 0.2, -0.6, -0.1
  }
}
csco {
  id = h
  basis {
    row = 1, 0, 0, 0
    row = 0, 1, 0, 0
    row = 0, 0, 1, 0
    row = 0, 0, 0, 1
  }
  labels = (0), (1), (2), (3)
  eigenvalues = (1.5), (-0.25), (3.125), (-2)
  scheduler {
    kind = seeded-random
    max_subintervals = 4
    seed = 11
  }
}
experiment {
  kind = trajectory
  id = walk
  windows = 1500
}
"""


def test_the_runner_holds_a_trajectory_csv_once(tmp_path, monkeypatch):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text(DRIVEN_WALK)
    run_scenario(cfg, out_dir=tmp_path / "first")  # what a first run allocates for good
    whole = _traced_peak(lambda: run_scenario(cfg, out_dir=tmp_path / "whole"))
    kept = []
    original = microstate.trajectory

    def built(*args, **kwargs):
        traj = original(*args, **kwargs)
        kept.append(_kept(traj))
        tracemalloc.reset_peak()  # from here on, what the runner holds to write it
        return traj

    monkeypatch.setattr(microstate, "trajectory", built)
    after_build = _traced_peak(lambda: run_scenario(cfg, out_dir=tmp_path / "out"))
    [arrays] = kept
    csv = (tmp_path / "out" / "00-walk.csv").stat().st_size
    assert csv > arrays
    # While the CSV is written, the runner holds the trajectory's arrays and
    # one block of rows with its formatting lists: 0.12 times the CSV, where
    # holding every block until the whole scenario was computed read 1.27.
    assert after_build - arrays < 0.15 * csv, f"{(after_build - arrays) / csv:.3f} times the CSV"
    # The whole run now peaks in the trajectory's build, at 1.25 times the
    # CSV over the arrays; ROADMAP item 16's build tightens this.
    assert whole - arrays < 1.35 * csv, f"{(whole - arrays) / csv:.3f} times the CSV"


def test_a_trajectory_build_peaks_at_a_bounded_multiple_of_what_it_keeps(tmp_path):
    scenario = parse_config_text(DRIVEN_WALK).scenario
    kept = []
    peak = _traced_peak(lambda: kept.append(_kept(scenario.build_trajectory("h", 1500))))
    # 3.15 today: every window's bounds and labels sit in lists until one
    # np.concatenate.  ROADMAP item 16's first step, a build that writes
    # into the arrays it returns, tightens this bound.
    assert peak < 3.4 * kept[0], f"{peak / kept[0]:.3f} times the kept arrays"


def test_a_sequential_run_holds_no_run_after_its_rows_are_formatted(tmp_path):
    # order-dependence.cfg's sets under a driven H, one experiment of 10^4
    # runs: every step's read builds a layout and crosses no boundary twice.
    text = (CONFIG_DIR / "order-dependence.cfg").read_text()
    driven = "row = 0.3, 0.7\n    row = 0.7, -0.2"
    assert text.count("runs = 2000") == 2 and "row = 0, 0\n    row = 0, 0" in text
    text = text.replace("row = 0, 0\n    row = 0, 0", driven).replace("runs = 2000", "runs = 10000", 1)
    text = text[: text.rindex("experiment {")]
    cfg = tmp_path / "driven-order.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    peak = _traced_peak(lambda: run_scenario(cfg, out_dir=out))
    artifacts = sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.txt")
    assert artifacts > 10_000 * 2 * 30  # two log rows per run
    # 0.57 times today: the runs' times and outcome indices, the counter and
    # one block of log rows.  Holding every run's history until the whole log
    # was joined read 15.7 times.
    assert peak < 1.5 * artifacts, f"{peak / artifacts:.3f} times the artifacts"
