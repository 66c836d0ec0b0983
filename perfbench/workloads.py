"""Seeded inputs for the benchmark workloads.

Each workload is a scenario config (plus, for ``reads-conserved``, a sampled
wavefunction file) written from ``--seed`` alone: the same seed gives the
same bytes, another seed gives another Hamiltonian, other bases and another
initial state at the same sizes.  The program under test only ever sees
these files.  Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

NAMES = ("measure-seq", "traj-driven", "reads-conserved")

# Unit of work behind ``work_per_s`` for each workload.
WORK_UNITS = {
    "measure-seq": "measurements",
    "traj-driven": "trajectory events written",
    "reads-conserved": "random reads (samples + 2 x pairs)",
}

FULL = {
    "measure-seq": {"dimension": 4, "runs": 80},
    "traj-driven": {"dimension": 16, "windows": 400, "offset_windows": 64},
    "reads-conserved": {
        "dimension": 16,
        "windows": 100,
        "samples": 500_000,
        "subtau_windows": 126,
        "pairs": 500_000,
        "grid_cells": 121,
        "grid_nodes": 64,
        "grid_window_cells": 101,
    },
}

SMOKE = {
    "measure-seq": {"dimension": 4, "runs": 10},
    "traj-driven": {"dimension": 16, "windows": 40, "offset_windows": 8},
    "reads-conserved": {
        "dimension": 16,
        "windows": 40,
        "samples": 100_000,
        "subtau_windows": 21,
        "pairs": 100_000,
        "grid_cells": 21,
        "grid_nodes": 16,
        "grid_window_cells": 9,
    },
}

# Statistics-producing experiment kinds and whether their rows are exact.
STATISTICS_KINDS = {"born-sampling": False, "sub-tau": False, "offset-average": True}


def _f(x: float) -> str:
    return repr(float(x))


def _c(z: complex) -> str:
    im = repr(float(z.imag))
    return f"{_f(z.real)}{im if im.startswith('-') else '+' + im}i"


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def _hermitian(m: np.ndarray) -> np.ndarray:
    """Exactly Hermitian: entry (j, i) is the bitwise conjugate of (i, j)."""
    return (m + m.conj().T) / 2.0


def _state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _matrix_block(name: str, m: np.ndarray, indent: str) -> list[str]:
    rows = [f"{indent}  row = " + ", ".join(_c(z) for z in row) for row in m]
    return [f"{indent}{name} {{", *rows, f"{indent}}}"]


def _system(state: np.ndarray, h: np.ndarray) -> list[str]:
    return [
        "system {",
        f"  dimension = {state.size}",
        "  state = " + ", ".join(_c(z) for z in state),
        *_matrix_block("hamiltonian", h, "  "),
        "}",
    ]


def _csco(cid: str, basis: np.ndarray, eigenvalues, scheduler: dict) -> list[str]:
    d = basis.shape[0]
    lines = [
        "csco {",
        f"  id = {cid}",
        "  labels = " + ", ".join(f"({k})" for k in range(d)),
        "  eigenvalues = " + ", ".join(f"({_f(e)})" for e in eigenvalues),
        *_matrix_block("basis", basis, "  "),
        "  scheduler {",
    ]
    lines += [f"    {k} = {v}" for k, v in scheduler.items()]
    return lines + ["  }", "}"]


def _experiment(**entries) -> list[str]:
    lines = ["experiment {"]
    for key, value in entries.items():
        values = value if isinstance(value, list) else [value]
        lines += [f"  {key} = {v}" for v in values]
    return lines + ["}"]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _measure_seq(rng, sizes):
    d = sizes["dimension"]
    h = _hermitian(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    energies, eigvecs = np.linalg.eigh(h)
    state = _state(rng, d)
    lines = _system(state, h)
    # Every run rebuilds cc's layouts of windows 0-2, so their piece counts
    # recur in every measurement: fix their total at the mean (2 per label
    # and window for <= 3 pieces) so the seed does not change the work.
    cc_seed = _seed(rng)
    while _layout_pieces(d, 3, cc_seed, windows=3) != 2 * d * 3:
        cc_seed = _seed(rng)
    schedulers = {
        "ca": {"kind": "contiguous"},
        "cb": {"kind": "two-outcome", "offset": "0.3"},
        "cc": {"kind": "seeded-random", "max_subintervals": 3, "seed": cc_seed},
    }
    for cid, sched in schedulers.items():
        lines += _csco(cid, _haar(rng, d), rng.standard_normal(d), sched)
    # H's own eigenbasis: conserved, so it rides along via periodic_extend.
    # It is never measured (see the known-defect probe).
    lines += _csco("ce", eigvecs, energies, {"kind": "contiguous"})
    # Four steps over windows 0-2, two of them sharing a window.
    sequences = {
        "seq-a": ["ca, 0.4", "cb, 1.3", "cc, 1.8", "ca, 2.6"],
        "seq-b": ["cb, 0.3", "cc, 0.7", "ca, 1.5", "cb, 2.2"],
    }
    blocks = []
    for name, steps in sequences.items():
        lines += _experiment(
            kind="sequential-measurement", id=name, runs=sizes["runs"], seed=_seed(rng), step=steps
        )
        blocks.append({"name": name, "kind": "sequential-measurement"})
    work = sizes["runs"] * sum(len(s) for s in sequences.values())
    return lines, blocks, work, {}


def _traj_driven(rng, sizes):
    d = sizes["dimension"]
    h = _hermitian(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lines = _system(_state(rng, d), h)
    sched = {"kind": "seeded-random", "max_subintervals": 4, "seed": _seed(rng)}
    lines += _csco("h", _haar(rng, d), rng.standard_normal(d), sched)
    lines += _experiment(kind="trajectory", id="walk", csco="h", windows=sizes["windows"])
    # A whole-number offset lands on one window, whose average equals the
    # expectation exactly; a fractional one mixes two layouts of a
    # non-conserved set and deviates by design.
    alpha = int(rng.integers(1, sizes["offset_windows"]))
    lines += _experiment(
        kind="offset-average", id="offset", csco="h",
        windows=sizes["offset_windows"], alpha=_f(alpha), member=0,
    )
    blocks = [
        {"name": "walk", "kind": "trajectory"},
        {"name": "offset", "kind": "offset-average"},
    ]
    # Work is counted from the trajectory file once it exists.
    return lines, blocks, None, {}


def _layout_pieces(d: int, max_pieces: int, scheduler_seed: int, windows: int = 1) -> int:
    """Pieces in the seeded-random layouts of windows 0 .. windows-1.

    The count depends only on the seed and the window, as long as every
    label has weight.
    """
    from qergo.partition import SchedulerSpec, build_partition

    spec = SchedulerSpec(kind="seeded-random", max_subintervals=max_pieces, seed=scheduler_seed)
    weights = np.full(d, 1.0 / d)
    return sum(len(build_partition(weights, w, spec).segments) for w in range(windows))


def _grid_text(rng, sizes) -> str:
    nodes = sizes["grid_nodes"]
    x = np.arange(sizes["grid_cells"] * nodes + 1) / nodes
    mid = 0.5 * sizes["grid_cells"]
    center = mid + rng.uniform(-2.0, 2.0)
    width = sizes["grid_window_cells"] * rng.uniform(0.08, 0.15)
    k0 = rng.uniform(-1.0, 1.0)
    psi = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * k0 * x)
    rows = [f"{_f(xi)} {_f(z.real)} {_f(z.imag)}" for xi, z in zip(x, psi)]
    return "# x re im\n" + "\n".join(rows) + "\n"


def _reads_conserved(rng, sizes):
    d = sizes["dimension"]
    basis = _haar(rng, d)
    # Diagonal in the set's basis, so the periodic fast path is taken.
    h = _hermitian((basis * rng.standard_normal(d)) @ basis.conj().T)
    state = _state(rng, d)
    lines = _system(state, h)
    # The number of pieces in the one window-0 layout sets the cost of every
    # window; fix it at the scheduler's mean (2.5 per label for <= 4 pieces)
    # so that the seed changes the inputs but not the amount of work.
    sched_seed = _seed(rng)
    while _layout_pieces(d, 4, sched_seed) != (5 * d) // 2:
        sched_seed = _seed(rng)
    sched = {"kind": "seeded-random", "max_subintervals": 4, "seed": sched_seed}
    lines += _csco("h", basis, rng.standard_normal(d), sched)
    windows = sizes["windows"]
    lines += _experiment(
        kind="born-sampling", id="born", csco="h", windows=windows,
        window=int(rng.integers(windows)), samples=sizes["samples"], seed=_seed(rng),
    )
    lines += _experiment(
        kind="sub-tau", id="lag", csco="h", windows=sizes["subtau_windows"],
        delta="0.1", pairs=sizes["pairs"], seed=_seed(rng),
    )
    lines += _experiment(
        kind="offset-average", id="offset", csco="h", windows=windows,
        alpha=_f(rng.uniform(0.0, windows - 1.0)), member=0,
    )
    center = sizes["grid_cells"] // 2
    lines += _experiment(
        kind="qgrid", id="grid", grid_file="grid.txt", planck_step="1.0",
        compton_wavelength=_f(sizes["grid_window_cells"]), center_cell=center,
        window_index=int(rng.integers(100)),
    )
    blocks = [
        {"name": "born", "kind": "born-sampling", "reads": sizes["samples"]},
        {"name": "lag", "kind": "sub-tau", "reads": sizes["pairs"]},
        {"name": "offset", "kind": "offset-average"},
        {"name": "grid", "kind": "qgrid"},
    ]
    work = sizes["samples"] + 2 * sizes["pairs"]
    return lines, blocks, work, {"grid.txt": _grid_text(rng, sizes)}


_BUILDERS = {
    "measure-seq": _measure_seq,
    "traj-driven": _traj_driven,
    "reads-conserved": _reads_conserved,
}


def generate(name: str, seed: int, out_dir: Path, smoke: bool = False) -> dict:
    """Write workload ``name`` for ``seed`` into ``out_dir``; describe it.

    Returns the config path, the experiment blocks in declaration order
    (with their artifact prefix), the sizes, the work unit and the amount
    of work per pass (None when it is read off the artifacts).
    """
    sizes = (SMOKE if smoke else FULL)[name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    lines, blocks, work, extra_files = _BUILDERS[name](rng, sizes)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / f"{name}.cfg"
    config.write_text("\n".join([f"# perfbench {name}, seed {seed}", *lines]) + "\n")
    for fname, text in extra_files.items():
        (out_dir / fname).write_text(text)
    for i, block in enumerate(blocks):
        block["prefix"] = f"{i:02d}-{block['name']}"
    return {
        "config": config,
        "blocks": blocks,
        "sizes": sizes,
        "work_unit": WORK_UNITS[name],
        "work": work,
    }
