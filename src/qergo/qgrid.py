"""Discrete position spectrum on a Planck-spaced grid.

Position is discretized into cells of width ``planck_step``; probabilities
come from the wavefunction renormalized over one window of width
``compton_wavelength`` centered on a chosen cell.  Each cell's probability
mass then drives the ordinary time-partition machinery, exactly as
eigenbasis weights do for any other observable.

Quadrature is composite trapezoid on the fine sample grid with one
Richardson extrapolation step; all integration ranges are aligned with
cell edges so per-cell masses sum bitwise-consistently to the window mass.
Only static wavefunctions are handled — no grid dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .partition import SchedulerSpec, WindowPartition, _index, _readonly, _real, build_partition

MIN_WINDOW_MASS = 1e-300
MIN_NODES_PER_CELL = 16

__all__ = [
    "GridWavefunction",
    "window_renormalize",
    "planck_cell_probability",
    "window_cells",
    "cell_probabilities",
    "position_partition",
    "parse_grid_text",
    "load_grid",
    "format_cell_probabilities",
]


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex samples on a uniform fine grid, with the two physical lengths.

    ``origin`` is the position of sample 0 and also the left edge of cell 0:
    cell ``k`` spans ``[origin + k*planck_step, origin + (k+1)*planck_step]``.
    Structural requirements, all checked at construction:

    * ``planck_step / spacing`` is an even integer ≥ 16, so every cell edge
      and every cell midpoint lies on a sample node and per-cell Richardson
      extrapolation is well defined;
    * ``compton_wavelength / planck_step`` is an odd positive integer, so a
      window centered on any cell is tiled exactly by whole cells (an even
      ratio would leave two half cells sticking out).

    ``renorm_center`` records which cell's window the samples are currently
    normalized over (None for raw input).  The construction also stores
    the two ratios as the ints ``nodes_per_cell`` and ``cells_per_window``,
    each rounded once, and ``n_cells``, the number of whole cells the
    samples cover.
    """

    samples: np.ndarray
    origin: float
    spacing: float
    planck_step: float
    compton_wavelength: float
    renorm_center: int | None = None

    def __post_init__(self):
        s = np.array(self.samples, dtype=np.complex128)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("samples must form a 1-d array with at least two nodes")
        if not np.all(np.isfinite(s.view(np.float64))):
            raise ValueError("samples must be finite")
        if (origin := _real(self.origin)) is None:
            raise ValueError(f"origin must be finite, got {self.origin!r}")
        lengths = [_real(x) for x in (self.spacing, self.planck_step, self.compton_wavelength)]
        if None in lengths or min(lengths) <= 0.0:
            raise ValueError("spacing, planck_step, and compton_wavelength must be positive and finite")
        spacing, planck_step, compton = lengths
        ratio = planck_step / spacing
        nodes = _whole(ratio)
        if nodes is None or nodes % 2 != 0 or nodes < MIN_NODES_PER_CELL:
            raise ValueError(
                f"planck_step/spacing must be an even integer >= {MIN_NODES_PER_CELL}, got {ratio!r}"
            )
        ratio = compton / planck_step
        cells = _whole(ratio)
        if cells is None or cells % 2 == 0:
            raise ValueError(
                f"compton_wavelength/planck_step must be an odd positive integer, got {ratio!r}"
            )
        vars(self).update(samples=_readonly(s), origin=origin, spacing=spacing, planck_step=planck_step,
                          compton_wavelength=compton, nodes_per_cell=nodes, cells_per_window=cells,
                          n_cells=(s.size - 1) // nodes)

    def cell_edges(self, k: int) -> tuple[float, float]:
        lo = self.origin + _index(k, "cell", 0, self.n_cells - 1) * self.planck_step
        return lo, lo + self.planck_step


def _whole(ratio: float) -> int | None:
    """The integer within 1e-9 of a grid ratio, or None (also for inf and nan)."""
    n = round(ratio) if math.isfinite(ratio) else None
    return n if n is not None and abs(ratio - n) <= 1e-9 else None


def _integrate(values: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid with one Richardson step along the last axis.

    Needs an even panel count.  A stack of rows gives one float per row,
    each the one that row gives on its own.
    """
    n = values.shape[-1] - 1
    if n < 2 or n % 2 != 0:
        raise ValueError("integration range must contain an even number of panels")
    t_h = np.trapezoid(values, dx=h, axis=-1)
    t_2h = np.trapezoid(values[..., ::2], dx=2.0 * h, axis=-1)
    return (4.0 * t_h - t_2h) / 3.0


def _density(wf: GridWavefunction, cells: list[int]) -> np.ndarray:
    """``|psi|^2`` on the sample nodes of consecutive cells, edge nodes included."""
    n = wf.nodes_per_cell
    return np.abs(wf.samples[cells[0] * n : (cells[-1] + 1) * n + 1]) ** 2


def window_renormalize(wf: GridWavefunction, k: int) -> GridWavefunction:
    """Rescale so the window centered on cell ``k`` carries unit probability.

    The window spans half a Compton wavelength either side of the cell's
    center point; its mass is computed by the module quadrature and divided
    out.  A window mass below ``MIN_WINDOW_MASS`` is rejected rather than
    amplified into nonsense.
    """
    cells = window_cells(wf, k)
    k = cells[len(cells) // 2]  # the centre, a plain int for any integer k
    mass = float(_integrate(_density(wf, cells), wf.spacing))
    if mass < MIN_WINDOW_MASS:
        raise ValueError(
            f"window mass {mass!r} around cell {k} is below {MIN_WINDOW_MASS}; "
            "cannot renormalize"
        )
    scaled = wf.samples * (1.0 / math.sqrt(mass))
    return replace(wf, samples=scaled, renorm_center=k)


def planck_cell_probability(wf: GridWavefunction, k: int) -> float:
    """Probability mass of cell ``k`` under the window-renormalized samples.

    Requires a prior :func:`window_renormalize`; the cell must lie inside
    the renormalization window.
    """
    if wf.renorm_center is None:
        raise ValueError("wavefunction is not window-renormalized; call window_renormalize first")
    cells = window_cells(wf, wf.renorm_center)
    k = _index(k, "cell", cells[0], cells[-1])
    return float(_integrate(_density(wf, [k]), wf.spacing))


def window_cells(wf: GridWavefunction, k_center: int) -> list[int]:
    """Cell indices tiling the window centered on ``k_center``, left to right.

    The one place a window's cells are decided and checked against the
    sampled range: ``k_center`` is an integer whose window's cells all lie
    in ``[0, n_cells - 1]``, and a grid narrower than one window has none.
    """
    half_cells = (wf.cells_per_window - 1) // 2
    k_center = _index(k_center, "k_center", half_cells, wf.n_cells - 1 - half_cells)
    return list(range(k_center - half_cells, k_center + half_cells + 1))


def cell_probabilities(wf: GridWavefunction, k_center: int) -> np.ndarray:
    """Probability vector over the window's cells, in cell order.

    Renormalizes over the window centered on ``k_center`` if needed.  All
    cells are integrated in one quadrature pass, one row of ``n + 1`` nodes
    per cell (neighbouring rows share their edge node); each mass is the
    float :func:`planck_cell_probability` gives for that cell.
    """
    if wf.renorm_center != k_center:
        wf = window_renormalize(wf, k_center)
    n = wf.nodes_per_cell
    rows = sliding_window_view(_density(wf, window_cells(wf, k_center)), n + 1)[::n]
    return _integrate(rows, wf.spacing)


def position_partition(
    wf: GridWavefunction,
    k_center: int,
    window_index: int,
    scheduler: SchedulerSpec,
) -> WindowPartition:
    """Drive the time-partition machinery with Planck-cell probabilities.

    Renormalizes over the window centered on ``k_center`` if needed, then
    hands the cell-probability vector to :func:`~qergo.partition.build_partition`.
    Partition label ``j`` stands for the j-th cell of the window, that is
    cell ``window_cells(wf, k_center)[j]``.
    """
    return build_partition(cell_probabilities(wf, k_center), window_index, scheduler)


def parse_grid_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse three-column samples (position, real part, imaginary part).

    Whitespace-separated columns, '#' comments, blank lines ignored.
    Returns (positions, complex samples); spacing uniformity is checked by
    the caller via :func:`load_grid`.
    """
    # np.loadtxt over the same lines splits, skips comments and parses
    # numbers as the loop below does, in one C pass; whatever it cannot
    # read (underscores in numbers, non-ASCII digits, bad rows) goes to the
    # loop, which returns the same arrays or raises the line-numbered error.
    lines = text.splitlines()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on text without rows
        try:
            rows = np.loadtxt(lines, comments="#", ndmin=2)
        except ValueError:
            rows = None
    if rows is not None and rows.shape[0] >= 2 and rows.shape[1] == 3:
        vals = np.empty(rows.shape[0], dtype=np.complex128)
        vals.real = rows[:, 1]
        vals.imag = rows[:, 2]
        return np.ascontiguousarray(rows[:, 0]), vals
    xs: list[float] = []
    vals: list[complex] = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"grid line {ln}: expected 3 columns, got {len(parts)}")
        try:
            x, re_v, im_v = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"grid line {ln}: non-numeric value in {line!r}") from None
        xs.append(x)
        vals.append(complex(re_v, im_v))
    if len(xs) < 2:
        raise ValueError("grid needs at least two sample rows")
    return np.array(xs), np.array(vals, dtype=np.complex128)


def load_grid(
    path, planck_step: float, compton_wavelength: float
) -> GridWavefunction:
    """Load a sampled wavefunction from a text file and attach the two lengths.

    Verifies the sample positions are uniformly spaced (relative tolerance
    1e-9) and increasing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        xs, vals = parse_grid_text(fh.read())
    steps = np.diff(xs)
    h = float(steps[0])
    if h <= 0.0 or np.any(np.abs(steps - h) > 1e-9 * max(abs(h), 1.0)):
        raise ValueError(f"grid positions in {path} are not uniformly increasing")
    return GridWavefunction(
        samples=vals,
        origin=float(xs[0]),
        spacing=h,
        planck_step=planck_step,
        compton_wavelength=compton_wavelength,
    )


def format_cell_probabilities(wf: GridWavefunction, k_center: int) -> str:
    """Render the window's cell probabilities as CSV.

    Columns: cell_index, q_lo, q_hi, probability (repr floats).
    """
    lines = ["cell_index,q_lo,q_hi,probability"]
    probabilities = cell_probabilities(wf, k_center).tolist()
    for k, pr in zip(window_cells(wf, k_center), probabilities):
        lo, hi = wf.cell_edges(k)
        lines.append(f"{k},{lo!r},{hi!r},{pr!r}")
    return "\n".join(lines) + "\n"
