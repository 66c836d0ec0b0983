"""Runner artifacts, reproducibility, exit codes, dump-partition."""

import math
import weakref
from pathlib import Path

import pytest

from qergo import load_config, parse_config_text
from qergo.cli import main
from qergo.errors import InvariantViolation
from qergo.hilbert import QuantumState
from qergo.measurement import sequence_records
from qergo.partition import dump_partition
from qergo.runner import FAILURE_MARKER, run_experiment, run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_minimal_run_single_event(tmp_path):
    out = tmp_path / "o"
    written = run_scenario(CONFIG_DIR / "minimal.cfg", out_dir=out)
    assert [p.name for p in written] == ["00-single-window.csv", "manifest.txt"]
    text = (out / "00-single-window.csv").read_text()
    assert text == "window,label,lo,hi,eigenvalues\n0,0,0.0,1.0,1.0\n"


def test_rabi_trajectory_matches_closed_form(tmp_path):
    run_scenario(CONFIG_DIR / "rabi-born.cfg", out_dir=tmp_path)
    rows = (tmp_path / "00-rabi-windows.csv").read_text().splitlines()[1:]
    per_window = {}
    for row in rows:
        w, label, lo, hi, _ = row.split(",")
        key = (int(w), int(label))
        per_window[key] = per_window.get(key, 0.0) + (float(hi) - float(lo))
    for n in range(8):
        expected = math.cos(n / 2.0) ** 2
        assert per_window.get((n, 0), 0.0) == pytest.approx(expected, abs=1e-9)
        assert per_window.get((n, 1), 0.0) == pytest.approx(1 - expected, abs=1e-9)


def test_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(CONFIG_DIR / "subtau.cfg", out_dir=a)
    run_scenario(CONFIG_DIR / "subtau.cfg", out_dir=b)
    assert read_tree(a) == read_tree(b)


def test_manifest_records_hash_and_seeds(tmp_path):
    import hashlib

    run_scenario(CONFIG_DIR / "rabi-born.cfg", out_dir=tmp_path)
    manifest = (tmp_path / "manifest.txt").read_text()
    digest = hashlib.sha256((CONFIG_DIR / "rabi-born.cfg").read_bytes()).hexdigest()
    assert f"config_sha256 = {digest}" in manifest
    assert "seed=17" in manifest
    assert manifest.rstrip().endswith("status = ok")


def test_default_out_dir_is_relative_to_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        (CONFIG_DIR / "minimal.cfg").read_text().replace(
            "output_dir = out-minimal", "output_dir = results"
        )
    )
    written = run_scenario(cfg)
    assert written[0].parent == tmp_path / "results"


BROKEN_RUN = """
system {
  dimension = 2
  state = 1, 0
  hamiltonian {
    row = 0, 0
    row = 0, 0
  }
}
csco {
  id = sz
  basis {
    row = 1, 0
    row = 0, 1
  }
  labels = (0), (1)
  eigenvalues = (1), (-1)
}
experiment {
  kind = born-sampling
  windows = 1
  window = 5
  samples = 10
  seed = 1
}
"""


def test_each_experiment_builds_its_trajectory_once(tmp_path, monkeypatch):
    import qergo.microstate as microstate

    built = []
    original = microstate.trajectory

    def counting(*args, **kwargs):
        built.append(args[4])  # windows
        return original(*args, **kwargs)

    monkeypatch.setattr(microstate, "trajectory", counting)
    run_scenario(CONFIG_DIR / "subtau.cfg", out_dir=tmp_path)
    # one sub-tau block over 8 windows, one offset-average block over 4
    assert built == [8, 4]


def _record_builds(monkeypatch) -> list:
    """(windows, weak reference) of every trajectory built from now on, in order."""
    import qergo.microstate as microstate

    built = []
    original = microstate.trajectory

    def recording(*args, **kwargs):
        traj = original(*args, **kwargs)
        built.append((args[4], weakref.ref(traj)))
        return traj

    monkeypatch.setattr(microstate, "trajectory", recording)
    return built


def test_experiments_reading_the_same_trajectory_share_one_build(tmp_path, monkeypatch):
    built = _record_builds(monkeypatch)
    run_scenario(CONFIG_DIR / "rabi-born.cfg", out_dir=tmp_path)
    # The trajectory block reads 8 windows of sz; the born-sampling and
    # offset-average blocks both read 3, and share one build.  The bytes are
    # pinned by test_golden.
    assert [windows for windows, _ in built] == [8, 3]


def test_a_shared_trajectory_is_held_until_its_last_reader_only(monkeypatch):
    built = _record_builds(monkeypatch)
    config = load_config(CONFIG_DIR / "rabi-born.cfg")
    whole, born, offset = config.experiments
    run_experiment(config, whole, 0)
    assert built[0][1]() is None  # read once: never held
    first = run_experiment(config, born, 1)
    assert len(built) == 2 and built[1][1]() is not None  # held for the offset block
    last = run_experiment(config, offset, 2)
    assert len(built) == 2 and built[1][1]() is None  # released after its last reader
    # Reads out of turn build again and give the same artifacts.
    assert run_experiment(config, offset, 2) == last
    assert run_experiment(config, born, 1) == first
    assert len(built) == 4 and built[2][1]() is None and built[3][1]() is not None


INTERLEAVED_SYSTEM = """
system {
  dimension = 2
  state = 0.6, 0.8
  hamiltonian {
    row = 0.3, 0.7
    row = 0.7, -0.2
  }
}
csco {
  id = sz
  basis {
    row = 1, 0
    row = 0, 1
  }
  labels = (0), (1)
  eigenvalues = (1), (-1)
}
csco {
  id = sx
  basis {
    row = 0.7071067811865476, 0.7071067811865476
    row = 0.7071067811865476, -0.7071067811865476
  }
  labels = (0), (1)
  eigenvalues = (1), (-1)
  scheduler {
    kind = seeded-random
    max_subintervals = 3
  }
}
"""

# Two keys read in the order A, B, A, B: (sz, 3 windows) and (sx, 4 windows).
INTERLEAVED_EXPERIMENTS = [
    "kind = born-sampling\n  id = a1\n  csco = sz\n  windows = 3\n  window = 1\n  samples = 500\n  seed = 3",
    "kind = sub-tau\n  id = b1\n  csco = sx\n  windows = 4\n  delta = 0.2\n  pairs = 500\n  seed = 5",
    "kind = offset-average\n  id = a2\n  csco = sz\n  windows = 3\n  alpha = 1.25",
    "kind = trajectory\n  id = b2\n  csco = sx\n  windows = 4",
]


def _interleaved_config(experiments):
    blocks = "".join(f"experiment {{\n  {e}\n}}\n" for e in experiments)
    return parse_config_text(INTERLEAVED_SYSTEM + blocks)


def test_interleaved_readers_share_one_build_per_key_held_until_its_own_last_reader(monkeypatch):
    config = _interleaved_config(INTERLEAVED_EXPERIMENTS)
    built = _record_builds(monkeypatch)
    alive = []
    results = []
    for i, exp in enumerate(config.experiments):
        results.append(run_experiment(config, exp, i))
        alive.append([ref() is not None for _, ref in built])
    assert [windows for windows, _ in built] == [3, 4]  # one build per key
    # A is held after a1 and b1, and dropped after a2, its last reader; B is
    # held after b1 and a2, and dropped after b2.
    assert alive == [[True], [True, True], [False, True], [False, False]]
    # Each experiment gives the artifacts it gives when it runs alone.
    for i, (exp, result) in enumerate(zip(INTERLEAVED_EXPERIMENTS, results)):
        alone = _interleaved_config([exp])
        assert run_experiment(alone, alone.experiments[0], i) == result


def test_config_scenario_is_built_once(tmp_path, monkeypatch):
    import qergo.microstate as microstate

    measured = []
    original = microstate.off_diagonal_norm

    def counting(hamiltonian, cset):
        measured.append(cset.id)
        return original(hamiltonian, cset)

    monkeypatch.setattr(microstate, "off_diagonal_norm", counting)
    run_scenario(CONFIG_DIR / "order-dependence.cfg", out_dir=tmp_path)
    # two sequential blocks share one Scenario, which measures each set once
    assert sorted(measured) == ["sx", "sz"]


def test_failure_leaves_marker_and_no_artifacts(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(BROKEN_RUN)
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        run_scenario(cfg, out_dir=out)
    assert (out / FAILURE_MARKER).exists()
    assert "window 5" in (out / FAILURE_MARKER).read_text()
    assert [p.name for p in out.iterdir()] == [FAILURE_MARKER]


def test_success_clears_stale_marker(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / FAILURE_MARKER).write_text("old failure\n")
    run_scenario(CONFIG_DIR / "minimal.cfg", out_dir=out)
    assert not (out / FAILURE_MARKER).exists()


def test_write_failure_leaves_marker(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / FAILURE_MARKER).write_text("old failure\n")
    (out / "01-rabi-sampling.csv").mkdir()  # blocks the second artifact
    with pytest.raises(OSError):
        run_scenario(CONFIG_DIR / "rabi-born.cfg", out_dir=out)
    marker = (out / FAILURE_MARKER).read_text()
    assert "01-rabi-sampling.csv" in marker and "old failure" not in marker
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("failure", ["write", "compute"])
def test_failed_rerun_removes_the_earlier_manifest(tmp_path, failure):
    out = tmp_path / "out"
    run_scenario(CONFIG_DIR / "rabi-born.cfg", out_dir=out)
    assert (out / "manifest.txt").read_text().endswith("status = ok\n")
    cfg = CONFIG_DIR / "rabi-born.cfg"
    if failure == "write":
        (out / "01-rabi-sampling.csv").unlink()
        (out / "01-rabi-sampling.csv").mkdir()  # blocks the second artifact
        expected = OSError
    else:
        cfg = tmp_path / "rabi-born.cfg"
        text = (CONFIG_DIR / "rabi-born.cfg").read_text()
        assert "  window = 2\n" in text and "  windows = 3\n" in text
        cfg.write_text(text.replace("  window = 2\n", "  window = 3\n"))
        expected = ValueError
    with pytest.raises(expected):
        run_scenario(cfg, out_dir=out)
    assert (out / FAILURE_MARKER).exists()
    assert not (out / "manifest.txt").exists()


def test_strict_float_passes_on_clean_scenario(tmp_path):
    written = run_scenario(
        CONFIG_DIR / "minimal.cfg", out_dir=tmp_path / "o", strict_float=True
    )
    assert written



def _two_step_sequence(tmp_path) -> Path:
    """order-dependence.cfg's system and sets, measuring sz at 0.25 and 1.5.

    Each run evolves one step: from its first read u1 to the window
    boundary u = 1.  The reads themselves take none.
    """
    text = (CONFIG_DIR / "order-dependence.cfg").read_text()
    text = text[: text.index("experiment {")] + (
        "experiment {\n  kind = sequential-measurement\n  id = cross\n  runs = 5\n"
        "  seed = 3\n  step = sz, 0.25\n  step = sz, 1.5\n}\n"
    )
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(text)
    return cfg


def _flag_renormalized(monkeypatch, flag) -> list[float]:
    """Patch the measurement protocol's evolve to mark steps as renormalized.

    ``flag(i)`` decides for the i-th call (from 0); returns the list of step
    lengths, one per call.
    """
    import qergo.measurement as measurement

    steps = []
    original = measurement.evolve

    def flagged(state, hamiltonian, du):
        out = original(state, hamiltonian, du)
        steps.append(du)
        return QuantumState(out.amplitudes, renormalized=flag(len(steps) - 1))

    monkeypatch.setattr(measurement, "evolve", flagged)
    return steps


def test_sequential_drift_count_covers_every_evolution_step(tmp_path, monkeypatch):
    config = load_config(_two_step_sequence(tmp_path))
    steps = _flag_renormalized(monkeypatch, lambda i: True)
    _, renorms = run_experiment(config, config.experiments[0], 0)
    assert len(steps) == 1 * 5
    assert renorms == len(steps)


def test_strict_float_sees_drift_on_the_step_to_a_window_boundary(tmp_path, monkeypatch):
    cfg = _two_step_sequence(tmp_path)
    steps = _flag_renormalized(monkeypatch, lambda i: True)
    with pytest.raises(InvariantViolation, match="strict-float: 5 renormalization"):
        run_scenario(cfg, out_dir=tmp_path / "o", strict_float=True)
    # Each run's one step runs from its first read to the boundary u = 1.
    monkeypatch.undo()
    config = load_config(cfg)
    exp = config.experiments[0]
    runs = sequence_records(config.scenario, list(exp.steps), exp.runs, exp.seed)
    assert steps == [1.0 - sys.history[0].time for sys in runs]


# --- CLI surface ---


def test_cli_run_exit_zero(tmp_path, capsys):
    rc = main(["run", str(CONFIG_DIR / "minimal.cfg"), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "manifest.txt" in capsys.readouterr().out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("system {\n  notakey = 1\n}\n")
    rc = main(["run", str(bad)])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_cli_invariant_error_exit_3(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(BROKEN_RUN)
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert (tmp_path / "o" / FAILURE_MARKER).exists()


def test_cli_experiment_without_csco_among_several_exit_2(tmp_path, capsys):
    text = (CONFIG_DIR / "order-dependence.cfg").read_text()
    text = text[: text.index("experiment {")] + "experiment {\n  kind = trajectory\n  windows = 2\n}\n"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    line = text.splitlines().index("experiment {") + 1
    assert f"line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, entry, bad",
    [
        ("order-dependence.cfg", "step = sx, 0.7", "step = sx, inf"),
        ("order-dependence.cfg", "step = sx, 0.7", "step = sx, nan"),
        ("subtau.cfg", "delta = 0.1", "delta = inf"),
        ("subtau.cfg", "delta = 0.1", "delta = nan"),
        ("rabi-born.cfg", "alpha = 1.5", "alpha = nan"),
        ("rabi-born.cfg", "alpha = 1.5", "alpha = -inf"),
        ("rabi-born.cfg", "eigenvalues = (1), (-1)", "eigenvalues = (nan), (-1)"),
        ("rabi-born.cfg", "eigenvalues = (1), (-1)", "eigenvalues = (1), (-inf)"),
    ],
)
def test_cli_non_finite_number_exit_2(tmp_path, capsys, config, entry, bad):
    text = (CONFIG_DIR / config).read_text()
    assert entry in text
    text = text.replace(entry, bad, 1)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    rc = main(["run", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    line = text.splitlines().index("  " + bad) + 1
    assert f"line {line}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("windows", [1, 3])
def test_cli_non_finite_matrix_row_exit_2(tmp_path, capsys, windows):
    # With one window such a Hamiltonian used to run to status = ok.
    text = (CONFIG_DIR / "minimal.cfg").read_text()
    text = text.replace("    row = 0, 0\n", "    row = 1e999, 0\n", 1)
    text = text.replace("windows = 1", f"windows = {windows}")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    rc = main(["run", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    line = text.splitlines().index("    row = 1e999, 0") + 1
    assert f"line {line}: 'row' must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_cli_overflowing_grid_ratio_exit_3(tmp_path, capsys):
    # compton_wavelength / planck_step = 1e310 overflows to inf, which used
    # to escape from round() as an OverflowError traceback with exit 1.
    spacing = 1e-10 / 16
    (tmp_path / "grid.txt").write_text("".join(f"{i * spacing!r} 1.0 0.0\n" for i in range(65)))
    text = (CONFIG_DIR / "qgrid-gaussian.cfg").read_text()
    for old, new in [
        ("gaussian-grid.txt", "grid.txt"),
        ("planck_step = 1.0", "planck_step = 1e-10"),
        ("compton_wavelength = 9.0", "compton_wavelength = 1e300"),
    ]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    rc = main(["run", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert "compton_wavelength/planck_step must be an odd positive integer, got inf" in (
        capsys.readouterr().err
    )
    assert (tmp_path / "o" / FAILURE_MARKER).exists()


def test_cli_missing_file_exit_4(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.cfg")])
    assert rc == 4
    assert "i/o" in capsys.readouterr().err


def test_cli_dump_partition_matches_library(capsys):
    rc = main(
        ["dump-partition", str(CONFIG_DIR / "rabi-born.cfg"), "--window", "2", "--csco", "sz"]
    )
    assert rc == 0
    got = capsys.readouterr().out
    cfg = load_config(CONFIG_DIR / "rabi-born.cfg")
    part = cfg.scenario.build_trajectory("sz", 3).partition(2)
    assert got == dump_partition(part)


WEAKLY_COUPLED = """
system {
  dimension = 2
  state = 0.6, 0.8
  hamiltonian {
    row = 0, 1e-11
    row = 1e-11, 0
  }
}
csco {
  id = sz
  basis {
    row = 1, 0
    row = 0, 1
  }
  labels = (0), (1)
  eigenvalues = (1), (-1)
  scheduler {
    kind = seeded-random
    max_subintervals = 3
    seed = 4
  }
}
experiment {
  kind = trajectory
  id = weak
  windows = 40
}
"""


def test_cli_dump_partition_agrees_with_a_longer_trajectory_run(tmp_path, capsys):
    # The coupling passes is_conserved, and the shift stays sound up to
    # window 25: window 5 is window 0's layout shifted whether a run asks for
    # 6 windows (dump-partition) or 40 (the trajectory artifact).
    cfg = tmp_path / "weak.cfg"
    cfg.write_text(WEAKLY_COUPLED)
    assert main(["dump-partition", str(cfg), "--window", "5", "--csco", "sz"]) == 0
    dumped = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    run_scenario(cfg, out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "00-weak.csv").read_text().splitlines()[1:]
    window5 = [row.split(",")[:4] for row in rows if row.startswith("5,")]
    assert len(dumped) > 1
    assert dumped == window5


def test_cli_dump_partition_unknown_csco_exit_2(capsys):
    rc = main(
        ["dump-partition", str(CONFIG_DIR / "minimal.cfg"), "--window", "0", "--csco", "qq"]
    )
    assert rc == 2
    assert "unknown csco" in capsys.readouterr().err


def test_cli_dump_partition_negative_window_exit_3(capsys):
    rc = main(
        ["dump-partition", str(CONFIG_DIR / "minimal.cfg"), "--window", "-1", "--csco", "sz"]
    )
    assert rc == 3


def test_cli_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out and "FAIL" not in out
    assert "worst=" in out
