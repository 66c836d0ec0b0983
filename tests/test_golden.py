"""Golden test: the bundled configs write the artifacts recorded for them.

The SHA-256 of every experiment artifact of ``configs/*.cfg`` is frozen
here, and so is the SHA-256 of two seeded trajectory dumps, of the exact
averages read from them, of two long contiguous and two-outcome trajectory
dumps, of Monte Carlo reads of two more trajectories, and of a sequential
run whose steps cross windows, and of the ``qergo verify`` report.
``manifest.txt`` is left out because it names the numpy version; the
digests themselves are only checked on the numpy version they were
recorded with.
"""

import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from qergo.ergodic import (
    offset_window_average,
    same_outcome_measure,
    sample_born,
    sub_tau_correlation,
)
from qergo.hilbert import CommutingSet, Hamiltonian, make_state
from qergo.microstate import Scenario, dump_trajectory, trajectory
from qergo.partition import SchedulerSpec
from qergo.runner import run_scenario
from qergo.testing import random_cset, random_hamiltonian, random_state
from qergo.verify import verify_suite

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RECORDED_NUMPY = "2.4.6"
DIGESTS = {
    "minimal.cfg": {
        "00-single-window.csv":
            "9854716e739f7ca6b524a8fa553b3204358cec305d433448b52766a4d61c494d",
    },
    "order-dependence.cfg": {
        "00-z-then-x-log.csv":
            "2d7212edf1f77bca608ff9feabe1db159c10d119027a2912b460c973836303ef",
        "00-z-then-x-summary.csv":
            "a221887af08e6490e58a26b49d0e580103b222f9534616b40cf4575cf3b7f7db",
        "01-x-then-z-log.csv":
            "082c85fb65fce876aed3fcb4f228f2cdf68c58ccd99a9f065f1bba01d19c12b3",
        "01-x-then-z-summary.csv":
            "a9b082081b54f0dcd20f967d2ceaa97254c95ca1ceaeb8ece0fd7b50cd983318",
    },
    "qgrid-gaussian.cfg": {
        "00-gaussian-window-cells.csv":
            "ff55c28ecf52fcd718cc7353aef0dc5baa54b62481ef694181bfb5ef39197a42",
        "00-gaussian-window-partition.csv":
            "af17cb25d05c0be1a97b7cc54866d582c0d41655f44cdf27eb548ae8a13e922a",
    },
    "rabi-born.cfg": {
        "00-rabi-windows.csv":
            "65c8ebf3eec6cf1737531624734f859d3260866726b1d4c6f5f182028d30b9b8",
        "01-rabi-sampling.csv":
            "6dea8fe934d5c199d59ca50706e573a64f4991ef36f067adeaafde14514979f7",
        "02-rabi-offset.csv":
            "25efa07f9e628584be496e4f7d58ed2f6410c2ac560d36bff228df0d92bc94ba",
    },
    "subtau.cfg": {
        "00-lag-tenth.csv":
            "aa60acb1cbb72f8886efc864237276b7fcb7821ba3819bd29a3d17942ca2fcec",
        "01-stationary-offset.csv":
            "483a3fb7708da3ed381346dff7c565954fb0105607a368e0001c80c50640890b",
    },
}


def test_every_bundled_config_is_recorded():
    assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == sorted(DIGESTS)


@pytest.mark.parametrize("config", sorted(DIGESTS))
def test_bundled_config_artifacts_match_recorded_digests(config, tmp_path):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
    written = run_scenario(CONFIGS / config, tmp_path)
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in written
        if p.name != "manifest.txt"
    }
    assert got == DIGESTS[config]


def _trajectory_case() -> dict[str, str]:
    """Texts of two seeded trajectories and of the exact averages read from them.

    ``long`` is a non-conserved d=16 seeded-random trajectory of 2000 windows
    (about 80k events).  ``sliver`` is conserved, and its window-0 layout
    starts with a ``(0, 1e-32]`` piece that every shifted window drops.
    """
    rng = np.random.default_rng(2026)
    d = 16
    long = trajectory(
        random_state(rng, d),
        random_hamiltonian(rng, d),
        random_cset(rng, d, n_members=2),
        SchedulerSpec(kind="seeded-random", max_subintervals=4, seed=11),
        2000,
    )
    tri = CommutingSet(
        id="tri",
        basis=np.eye(3),
        labels=((0, 0), (0, 1), (1, 0)),
        eigenvalues=((0.5, -1.25), (2.0, 0.1), (-0.3, 3.0)),
    )
    sliver = trajectory(
        make_state([1e-16, 0.6, 0.8]),
        Hamiltonian(np.diag([0.4, -1.1, 0.7])),
        tri,
        SchedulerSpec(),
        40,
    )
    out = {}
    for name, traj, deltas, alphas in [
        ("long", long, [(0.1, 400), (1.37, 200)], [0.25, 1234.5678, 1998.9]),
        ("sliver", sliver, [(0.36, 39), (2.5, 30)], [0.0, 1e-32, 0.36, 17.64]),
    ]:
        reads = [repr(same_outcome_measure(traj, delta, base)) for delta, base in deltas]
        reads += [
            repr(offset_window_average(traj, alpha, traj.cset, member))
            for alpha in alphas
            for member in range(2)
        ]
        out[f"{name}-dump"] = dump_trajectory(traj)
        out[f"{name}-reads"] = "\n".join(reads) + "\n"
    return out


TRAJECTORY_DIGESTS = {
    "long-dump": "172f2fb0d964bebcb479cec294b55049060950ab965063fa036de61753864dca",
    "long-reads": "628b6ae058c86adf7d544681ee363ea5cfd543d77998118805efff6ed3e990f6",
    "sliver-dump": "429edab2aa9731a2b1892dea9e0f0d21f75277ce46bee28cd82df0a7026f3466",
    "sliver-reads": "57665ff1737db60c5513f413fc6dcf25ee0f5edd5081e150f53993517d9f2739",
}


def test_seeded_trajectories_match_recorded_digests():
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
    got = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in _trajectory_case().items()
    }
    assert got == TRAJECTORY_DIGESTS


def _long_dumps_case() -> dict[str, str]:
    """Dumps of two driven trajectories of 3000 windows with nonzero H.

    ``contiguous`` is d=3 with the contiguous layout, ``two-outcome`` is d=2
    with the two-outcome layout at offset 0.3.
    """
    rng = np.random.default_rng(3001)
    out = {}
    for name, d, spec in [
        ("contiguous", 3, SchedulerSpec()),
        ("two-outcome", 2, SchedulerSpec(kind="two-outcome", offset=0.3)),
    ]:
        traj = trajectory(
            random_state(rng, d), random_hamiltonian(rng, d), random_cset(rng, d), spec, 3000
        )
        out[name] = dump_trajectory(traj)
    return out


LONG_DUMP_DIGESTS = {
    "contiguous": "73dd0848635271daecc1fb8651827245c0f474c6a752893e0d901fb4067a329d",
    "two-outcome": "22c0ec0384c31bde451b8600b4982ca3a5adfbbc95666d88d44bd8970ef753f8",
}


def test_long_driven_trajectory_dumps_match_recorded_digests():
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
    got = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in _long_dumps_case().items()
    }
    assert got == LONG_DUMP_DIGESTS


def _random_reads_case() -> str:
    """``repr`` of Born counts and sub-window correlations from 500k random reads.

    Two d=16 seeded-random scenarios of 126 windows: ``drifting`` has a
    generic Hamiltonian, ``conserved`` measures in the Hamiltonian's
    eigenbasis, so its window-0 layout repeats.  Born counts are read in the
    first and the last window, correlations at four lags.
    """
    rng = np.random.default_rng(4104)
    d, windows, n = 16, 126, 500_000
    h = random_hamiltonian(rng, d)
    _, eigvecs = np.linalg.eigh(h.matrix)
    energy = CommutingSet(
        id="energy",
        basis=eigvecs,
        labels=tuple((k,) for k in range(d)),
        eigenvalues=tuple((float(x),) for x in rng.standard_normal(d)),
    )
    lines = []
    for name, cset in [("drifting", random_cset(rng, d)), ("conserved", energy)]:
        scenario = Scenario(
            state0=random_state(rng, d),
            hamiltonian=h,
            csets=(cset,),
            schedulers={cset.id: SchedulerSpec(kind="seeded-random", max_subintervals=4, seed=5)},
        )
        traj = scenario.build_trajectory(None, windows)
        for window in (0, windows - 1):
            dist = sample_born(traj, n, seed=window + 1, window=window)
            lines.append(f"{name} born window={window} {dist.counts!r}")
        for delta in (0.1, 0.5, 1.0, 2.3):
            corr = sub_tau_correlation(traj, delta, n, seed=17)
            lines.append(f"{name} sub-tau {corr!r}")
    return "\n".join(lines) + "\n"


RANDOM_READS_DIGEST = "addeac3169447a70213edde03e66217084a4fcefbcdf080f4378b315b5c51edd"


def test_random_reads_match_recorded_digest():
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
    text = _random_reads_case()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RANDOM_READS_DIGEST


# A sequential run whose steps cross windows 0 to 2: d=4 with a coupling
# between the first two levels, a seeded-random set (a Hadamard basis), a
# two-outcome set (the computational basis, not conserved) and H's
# eigenbasis (conserved).  Steps 2 and 3 share window 1; step 4 reads the
# conserved set in window 2, after a collapse and a crossing.
SEQUENTIAL_CFG = """\
system {
  dimension = 4
  state = 0.5, 0.5i, 0.5, -0.5
  hamiltonian {
    row = 0.3, 0.5, 0, 0
    row = 0.5, 0.3, 0, 0
    row = 0, 0, 1.1, 0
    row = 0, 0, 0, -0.7
  }
}

csco {
  id = hb
  basis {
    row = 0.5, 0.5, 0.5, 0.5
    row = 0.5, -0.5, 0.5, -0.5
    row = 0.5, 0.5, -0.5, -0.5
    row = 0.5, -0.5, -0.5, 0.5
  }
  labels = (0), (1), (2), (3)
  eigenvalues = (1.5), (-0.5), (0.25), (2)
  scheduler {
    kind = seeded-random
    max_subintervals = 3
    seed = 7
  }
}

csco {
  id = sz
  basis {
    row = 1, 0, 0, 0
    row = 0, 1, 0, 0
    row = 0, 0, 1, 0
    row = 0, 0, 0, 1
  }
  labels = (0,0), (0,1), (1,0), (1,1)
  eigenvalues = (1,1), (1,-1), (-1,1), (-1,-1)
  scheduler {
    kind = two-outcome
    offset = 0.3
  }
}

csco {
  id = en
  basis {
    row = 0.7071067811865476, 0.7071067811865476, 0, 0
    row = 0.7071067811865476, -0.7071067811865476, 0, 0
    row = 0, 0, 1, 0
    row = 0, 0, 0, 1
  }
  labels = (0), (1), (2), (3)
  eigenvalues = (0.8), (-0.2), (1.1), (-0.7)
}

experiment {
  kind = sequential-measurement
  id = crossing
  runs = 400
  seed = 5
  step = sz, 0.4
  step = hb, 1.2
  step = sz, 1.8
  step = en, 2.5
}
"""

SEQUENTIAL_DIGESTS = {
    "00-crossing-log.csv":
        "17438b2edd6ec0ac70cae59130d88714666fdfe576c9f7853c145c9139145ad4",
    "00-crossing-summary.csv":
        "a861a1593f4589f1b5ceb3e4639c2ca140f6682d052d190071ff1753a1580579",
}


def test_sequential_run_across_windows_matches_recorded_digests(tmp_path):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
    cfg = tmp_path / "crossing.cfg"
    cfg.write_text(SEQUENTIAL_CFG, encoding="utf-8")
    written = run_scenario(cfg, tmp_path / "out")
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in written
        if p.name != "manifest.txt"
    }
    assert got == SEQUENTIAL_DIGESTS


def test_seeded_random_layouts_are_drawn_once_per_config_load(tmp_path, monkeypatch):
    """A seeded-random layout is drawn once per (exact weights, window) and config load.

    Reading ``hb`` right after a collapse onto an ``sz`` column gives one of
    four weight vectors in window 0, so one run of the config draws far
    fewer layouts than it builds.  A second run loads the config again and
    draws every layout again, and both write the same bytes as a run that
    keeps no layout at all.
    """
    from qergo import partition

    cfg = tmp_path / "c.cfg"
    cfg.write_text(SEQUENTIAL_CFG.replace("step = hb, 1.2", "step = hb, 0.7"), encoding="utf-8")
    draws, builds = [], []
    draw, layout = partition._seeded_random_layout, partition._layout

    def counting_draw(p, window_index, spec):
        draws.append(window_index)
        return draw(p, window_index, spec)

    def counting_layout(p, window_index, spec):
        if spec.kind == "seeded-random":
            builds.append(window_index)
        return layout(p, window_index, spec)

    monkeypatch.setattr(partition, "_seeded_random_layout", counting_draw)
    monkeypatch.setattr(partition, "_layout", counting_layout)

    def run(name):
        draws.clear()
        builds.clear()
        written = run_scenario(cfg, tmp_path / name)
        return len(draws), len(builds), {p.name: p.read_bytes() for p in written}

    first_draws, first_builds, first = run("first")
    assert first_builds >= 400  # hb is read in every one of the 400 runs
    assert first_draws < first_builds
    second_draws, second_builds, second = run("second")
    assert (second_draws, second_builds) == (first_draws, first_builds)

    monkeypatch.setattr(partition, "_LAYOUT_MEMO_SIZE", 0)
    unkept_draws, unkept_builds, unkept = run("unkept")
    assert unkept_draws == unkept_builds == first_builds
    assert first == second == unkept


VERIFY_DIGEST = "ebfd955114cf32c31842cd8c0cb80f4bdaff4a4a0780ddc1a991464bd2b9605d"


def test_verify_report_matches_recorded_digest():
    """Every battery line, worst deviation included, and the summary line."""
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"digests recorded on numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
    out = io.StringIO()
    assert verify_suite(out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == VERIFY_DIGEST
