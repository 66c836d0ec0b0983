import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qergo.partition import SchedulerSpec, check_partition, interval_measure
from qergo.qgrid import (
    GridWavefunction,
    cell_probabilities,
    format_cell_probabilities,
    load_grid,
    parse_grid_text,
    planck_cell_probability,
    position_partition,
    window_cells,
    window_renormalize,
)

LP = 1.0
LAMBDA = 9.0  # nine cells per window
H = LP / 32.0


def make_grid(fn, x_lo=0.0, x_hi=21.0, h=H):
    n = int(round((x_hi - x_lo) / h)) + 1
    xs = x_lo + h * np.arange(n)
    return GridWavefunction(
        samples=fn(xs), origin=x_lo, spacing=h, planck_step=LP, compton_wavelength=LAMBDA
    )


def gaussian_amplitude(mu, sigma):
    def fn(xs):
        return np.exp(-((xs - mu) ** 2) / (4.0 * sigma**2)).astype(complex)

    return fn


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_uniform_density_scale_and_cell_probability():
    c = 0.37  # |psi|^2 = c everywhere
    wf = make_grid(lambda xs: np.full(xs.size, math.sqrt(c), dtype=complex))
    wf_n = window_renormalize(wf, 10)
    # constant integrand: the window mass is c * lambda exactly
    scale = wf_n.samples[0] / wf.samples[0]
    assert abs(scale - 1.0 / math.sqrt(c * LAMBDA)) <= 1e-12
    m = wf.cells_per_window
    for k in window_cells(wf_n, 10):
        assert planck_cell_probability(wf_n, k) == pytest.approx(1.0 / m, abs=1e-12)


def test_already_normalized_window_unchanged():
    c = 1.0 / LAMBDA
    wf = make_grid(lambda xs: np.full(xs.size, math.sqrt(c), dtype=complex))
    wf_n = window_renormalize(wf, 10)
    assert np.max(np.abs(wf_n.samples - wf.samples)) <= 1e-12


def test_gaussian_symmetric_about_center():
    wf = make_grid(gaussian_amplitude(mu=10.5, sigma=2.0))
    wf_n = window_renormalize(wf, 10)
    cells = window_cells(wf_n, 10)
    pr = [planck_cell_probability(wf_n, k) for k in cells]
    for left, right in zip(pr, pr[::-1]):
        assert abs(left - right) <= 1e-10


def test_gaussian_center_cell_against_erf_oracle():
    sigma = LAMBDA / 4.0
    mu = 10.5  # center of cell 10
    wf = make_grid(gaussian_amplitude(mu, sigma))
    wf_n = window_renormalize(wf, 10)
    # independent route: |psi|^2 is a normal density with std sigma, so cell
    # and window masses are error-function differences
    def mass(a, b):
        return normal_cdf((b - mu) / sigma) - normal_cdf((a - mu) / sigma)

    window_mass = mass(mu - LAMBDA / 2.0, mu + LAMBDA / 2.0)
    lo, hi = wf.cell_edges(10)
    oracle = mass(lo, hi) / window_mass
    assert abs(planck_cell_probability(wf_n, 10) - oracle) <= 1e-8


def test_window_renormalize_scale_matches_quadrature_oracle():
    sigma = LAMBDA / 4.0
    mu = 10.5
    wf = make_grid(gaussian_amplitude(mu, sigma))
    wf_n = window_renormalize(wf, 10)
    sigma_mass = normal_cdf(0.5 * LAMBDA / sigma) - normal_cdf(-0.5 * LAMBDA / sigma)
    # |psi|^2 here integrates to sigma*sqrt(2 pi) * (window fraction)
    window_mass = sigma * math.sqrt(2.0 * math.pi) * sigma_mass
    scale = float(np.real(wf_n.samples[0] / wf.samples[0]))
    assert abs(scale - 1.0 / math.sqrt(window_mass)) <= 1e-8


def test_cell_probabilities_sum_to_one():
    wf = make_grid(gaussian_amplitude(mu=9.8, sigma=1.3))
    pr = cell_probabilities(wf, 10)
    assert np.all(pr >= 0.0)
    assert abs(float(pr.sum()) - 1.0) <= 1e-8


def test_refinement_stability():
    sigma = 2.1
    mu = 10.2
    coarse = make_grid(gaussian_amplitude(mu, sigma), h=LP / 32.0)
    fine = make_grid(gaussian_amplitude(mu, sigma), h=LP / 64.0)
    pr_c = cell_probabilities(coarse, 10)
    pr_f = cell_probabilities(fine, 10)
    assert np.max(np.abs(pr_c - pr_f)) <= 1e-8


def test_position_partition_closure():
    wf = make_grid(gaussian_amplitude(mu=10.5, sigma=LAMBDA / 4.0))
    part = position_partition(wf, 10, 0, SchedulerSpec())
    assert check_partition(part) <= 1e-9
    pr = cell_probabilities(wf, 10)
    for j in range(pr.size):
        assert abs(interval_measure(part, j) - float(pr[j])) <= 1e-9
    # Label j is the j-th cell of the window.
    assert window_cells(wf, 10) == list(range(6, 6 + pr.size))


def test_position_partition_single_cell_window():
    # lambda = planck_step: the window is exactly one cell with Pr = 1
    wf = GridWavefunction(
        samples=np.full(65, 1.0 + 0.0j),
        origin=0.0,
        spacing=1.0 / 32.0,
        planck_step=1.0,
        compton_wavelength=1.0,
    )
    part = position_partition(wf, 1, 4, SchedulerSpec())
    assert len(part.segments) == 1
    assert part.segments[0][0].lo == 4.0 and part.segments[0][0].hi == 5.0


def test_uniform_cells_give_equal_intervals():
    wf = make_grid(lambda xs: np.full(xs.size, 1.0, dtype=complex))
    part = position_partition(wf, 10, 0, SchedulerSpec())
    lengths = [seg.hi - seg.lo for seg, _ in part.segments]
    assert len(lengths) == 9
    assert np.allclose(lengths, 1.0 / 9.0, atol=1e-12)


def test_window_bounds_checked():
    wf = make_grid(gaussian_amplitude(10.0, 2.0))
    # 21 cells, 9 to a window: a centre's window must fit in cells [0, 20].
    with pytest.raises(ValueError, match=r"^k_center must be an integer in \[4, 16\], got 2$"):
        window_renormalize(wf, 2)  # window would start at cell -2
    with pytest.raises(ValueError, match=r"^k_center must be an integer in \[4, 16\], got 17$"):
        window_cells(wf, 17)  # window would end at cell 21
    wf_n = window_renormalize(wf, 10)
    with pytest.raises(ValueError, match=r"^cell must be an integer in \[6, 14\], got 15$"):
        planck_cell_probability(wf_n, 15)
    assert window_cells(wf, 4) == list(range(9)) and window_cells(wf, 16) == list(range(12, 21))
    with pytest.raises(ValueError, match="renormalize"):
        planck_cell_probability(wf, 10)


K_CENTER_READERS = {
    "window_cells": window_cells,
    "cell_probabilities": cell_probabilities,
    "position_partition": lambda wf, k: position_partition(wf, k, 0, SchedulerSpec()),
    "format_cell_probabilities": format_cell_probabilities,
}


@pytest.mark.parametrize("k_center", [1.5, True])
@pytest.mark.parametrize("reader", sorted(K_CENTER_READERS))
def test_k_center_must_be_an_integer(reader, k_center):
    # Three one-cell windows: k_center = 1 is a valid center, so a bool that
    # stood in for it would go unnoticed.
    wf = GridWavefunction(
        samples=np.ones(97, dtype=complex),
        origin=0.0,
        spacing=1.0 / 32.0,
        planck_step=1.0,
        compton_wavelength=1.0,
    )
    with pytest.raises(ValueError, match=re.escape(f"k_center must be an integer, got {k_center!r}")):
        K_CENTER_READERS[reader](wf, k_center)


def test_vanishing_window_mass_rejected():
    wf = make_grid(lambda xs: np.zeros(xs.size, dtype=complex))
    with pytest.raises(ValueError, match="mass"):
        window_renormalize(wf, 10)


def test_grid_structure_validation():
    good = np.full(65, 1.0 + 0.0j)
    with pytest.raises(ValueError, match="even integer"):
        GridWavefunction(samples=good, origin=0.0, spacing=1.0 / 31.0,
                         planck_step=1.0, compton_wavelength=3.0)
    with pytest.raises(ValueError, match="odd positive integer"):
        GridWavefunction(samples=good, origin=0.0, spacing=1.0 / 32.0,
                         planck_step=1.0, compton_wavelength=4.0)
    with pytest.raises(ValueError, match="odd positive integer"):
        GridWavefunction(samples=good, origin=0.0, spacing=1.0 / 32.0,
                         planck_step=2.0, compton_wavelength=1.0)


@pytest.mark.parametrize(
    "spacing, planck_step, compton_wavelength, message",
    [
        (1e-10 / 16, 1e-10, 1e300, "compton_wavelength/planck_step must be an odd positive integer, got inf"),
        (1e-300, 1e10, 1e10, "planck_step/spacing must be an even integer >= 16, got inf"),
    ],
)
def test_overflowing_grid_ratio_is_a_value_error(spacing, planck_step, compton_wavelength, message):
    # round(inf) raises OverflowError; it may not escape from the structure
    # checks when two finite lengths give an infinite ratio.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GridWavefunction(samples=np.full(65, 1.0 + 0.0j), origin=0.0, spacing=spacing,
                         planck_step=planck_step, compton_wavelength=compton_wavelength)


@pytest.mark.parametrize(
    "spacing, planck_step, compton_wavelength",
    [(1.0 / 32.0, 1.0, math.inf), (1.0 / 32.0, math.inf, math.inf), (math.inf, math.inf, math.inf)],
)
def test_an_infinite_grid_length_is_refused_before_any_ratio(spacing, planck_step, compton_wavelength):
    message = "spacing, planck_step, and compton_wavelength must be positive and finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GridWavefunction(samples=np.full(65, 1.0 + 0.0j), origin=0.0, spacing=spacing,
                         planck_step=planck_step, compton_wavelength=compton_wavelength)


def test_parse_and_load_grid(tmp_path):
    xs = np.arange(0.0, 3.0 + 1e-12, 1.0 / 32.0)
    vals = np.exp(-((xs - 1.5) ** 2))
    lines = ["# position real imag"]
    for x, v in zip(xs, vals):
        lines.append(f"{float(x)!r} {float(v)!r} 0.0")
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    wf = load_grid(path, planck_step=1.0, compton_wavelength=3.0)
    assert wf.samples.size == xs.size
    assert wf.origin == 0.0
    assert wf.spacing == pytest.approx(1.0 / 32.0, abs=1e-15)

    pos, v = parse_grid_text("0.0 1.0 0.5\n0.5 2.0 -0.5\n")
    assert v[0] == 1.0 + 0.5j and v[1] == 2.0 - 0.5j
    with pytest.raises(ValueError, match="3 columns"):
        parse_grid_text("0.0 1.0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_grid_text("0.0 x 0.0\n")

    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0 0.0\n0.1 1.0 0.0\n0.3 1.0 0.0\n")
    with pytest.raises(ValueError, match="uniform"):
        load_grid(bad, planck_step=1.0, compton_wavelength=1.0)


def test_format_cell_probabilities():
    wf = make_grid(gaussian_amplitude(10.5, 2.0))
    text = format_cell_probabilities(wf, 10)
    lines = text.strip().splitlines()
    assert lines[0] == "cell_index,q_lo,q_hi,probability"
    assert len(lines) == 10
    row = lines[1].split(",")
    assert int(row[0]) == 6
    assert float(row[1]) == 6.0 and float(row[2]) == 7.0
    total = sum(float(ln.split(",")[3]) for ln in lines[1:])
    assert abs(total - 1.0) <= 1e-8


def reference_parse_grid_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The per-line parser that parse_grid_text's one-pass read replaced."""
    xs: list[float] = []
    vals: list[complex] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
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


def grid_outcome(parse, text):
    """Bits, dtypes and shapes of both arrays, or the exception raised."""
    try:
        xs, vals = parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return ("raise", type(exc), str(exc))
    return tuple((a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (xs, vals))


def _random_doubles(rng, n):
    """Doubles from random bit patterns (subnormals and both zeros among them)."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0]
    return np.concatenate([x, special, rng.standard_normal(n)])


def _random_grid_text(rng, n_rows):
    x = _random_doubles(rng, 3 * n_rows)
    rng.shuffle(x)
    formats = [repr, lambda v: f"{v:.17e}", lambda v: f"{v:g}", lambda v: f"{v:.3f}"]
    seps = [" ", "\t", "  ", " \t "]
    lines = []
    for row in x[: 3 * (x.size // 3)].reshape(-1, 3).tolist():
        fmt = formats[int(rng.integers(len(formats)))]
        sep = seps[int(rng.integers(len(seps)))]
        line = sep.join(fmt(v) for v in row)
        roll = rng.random()
        if roll < 0.05:
            lines.append("# a comment line")
        elif roll < 0.1:
            lines.append("   ")
        elif roll < 0.15:
            line = "  " + line + "  # trailing comment"
        lines.append(line)
    return "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")


def test_parse_grid_text_equals_line_loop_on_random_reprs():
    rng = np.random.default_rng(31)
    for n_rows in (2, 3, 17, 500):
        for _ in range(5):
            text = _random_grid_text(rng, n_rows)
            want = grid_outcome(reference_parse_grid_text, text)
            assert want[0] != "raise"
            assert grid_outcome(parse_grid_text, text) == want


GRID_TEXTS = [
    "",
    "\n\n",
    "# only a comment\n",
    "0.0 1.0 0.5\n",
    "# header\n0.0 1.0 0.5\n\n",
    "0.0 1.0 0.5\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5 7.0\n0.5 2.0 -0.5 7.0\n",
    "0.0 1.0\n0.5 2.0\n",
    "0.0 1.0 0.5\n0.5 2.0\n",
    "0.0 1.0 0.5\n0.5 2.0 -0.5 1.0\n",
    "0.0 x 0.5\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5\n0.5 2.0 -0.5\n1.0 1e 0.0\n",
    "0.0 nan inf\n0.5 -inf -nan\n",
    "0.0 -0.0 -0.0\n0.5 0.0 -0.0\n",
    "0.0 1_0 0.5\n0.5 2.0 -0.5\n",
    "0.0 \u0661 0.5\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5\r\n0.5 2.0 -0.5\r\n",
    "0.0 1.0 0.5\r0.5 2.0 -0.5\r",
    "0.0 1.0\x0c0.5\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5\x0b0.5 2.0 -0.5\n",
    "0.0\u20031.0\xa00.5\n0.5 2.0 -0.5\n",
    "0.0 1.0\u20280.5\n0.5 2.0 -0.5\n",
    "0.0 1.0\x850.5\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5\u2029\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5\x1f\n0.5 2.0 -0.5\n",
    "0.0 1.0 0.5 # c # d\n#\n0.5 2.0 -0.5#e\n",
    "0.0 '1.0' 0.5\n0.5 2.0 -0.5\n",
    '0.0 "1.0" 0.5\n0.5 2.0 -0.5\n',
    "0.0,1.0,0.5\n0.5,2.0,-0.5\n",
    "0.0 1.0 0.5\n\x000.5 2.0 -0.5\n",
]


@pytest.mark.parametrize("text", GRID_TEXTS, ids=repr)
def test_parse_grid_text_equals_line_loop_on_edge_cases(text):
    assert grid_outcome(parse_grid_text, text) == grid_outcome(reference_parse_grid_text, text)


def reference_integrate(values, h):
    """Trapezoid with one Richardson step over one 1-d range, as Python floats."""
    t_h = float(np.trapezoid(values, dx=h))
    t_2h = float(np.trapezoid(values[::2], dx=2.0 * h))
    return (4.0 * t_h - t_2h) / 3.0


def reference_cell_probabilities(wf, k_center):
    """The per-cell quadrature that cell_probabilities' one pass replaced.

    Returns the renormalized samples and one integration call per cell.
    """
    n = int(round(wf.planck_step / wf.spacing))
    half = (int(round(wf.compton_wavelength / wf.planck_step)) - 1) // 2
    a, b = (k_center - half) * n, (k_center + half + 1) * n
    mass = reference_integrate(np.abs(wf.samples[a : b + 1]) ** 2, wf.spacing)
    samples = wf.samples * (1.0 / math.sqrt(mass))
    cells = range(k_center - half, k_center + half + 1)
    masses = [reference_integrate(np.abs(samples[k * n : (k + 1) * n + 1]) ** 2, wf.spacing) for k in cells]
    return samples, np.array(masses)


def _random_grid(rng, nodes, cells):
    """A grid of ``cells``-cell windows, ``nodes`` nodes per cell, with spare cells around."""
    planck_step = float(rng.uniform(0.1, 10.0))
    n_cells = cells + int(rng.integers(0, 4))
    size = n_cells * nodes + 1 + int(rng.integers(0, nodes))
    scale = math.exp(rng.uniform(-50.0, 50.0))
    samples = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    wf = GridWavefunction(samples=samples, origin=float(rng.uniform(-5.0, 5.0)),
                          spacing=planck_step / nodes, planck_step=planck_step,
                          compton_wavelength=cells * planck_step)
    half = (cells - 1) // 2
    return wf, int(rng.integers(half, n_cells - half))


def test_one_pass_cell_masses_equal_the_per_cell_quadrature_bit_for_bit():
    # numpy's pairwise sum works in blocks of 128 elements, so rows of up to
    # 256 panels are covered, and amplitudes span e^-50 to e^50.
    rng = np.random.default_rng(20)
    shapes = [(16, 1), (16, 101), (256, 1), (256, 101), (128, 3), (130, 5)]
    shapes += [(2 * int(rng.integers(8, 129)), 2 * int(rng.integers(0, 51)) + 1) for _ in range(294)]
    for nodes, cells in shapes:
        wf, k = _random_grid(rng, nodes, cells)
        samples, want = reference_cell_probabilities(wf, k)
        got = cell_probabilities(wf, k)
        assert got.dtype == np.float64 and got.shape == (cells,)
        assert got.tobytes() == want.tobytes(), (nodes, cells)
        wf_n = window_renormalize(wf, k)
        assert wf_n.samples.tobytes() == samples.tobytes()
        assert cell_probabilities(wf_n, k).tobytes() == want.tobytes()
        for j in {0, cells // 2, cells - 1}:
            pr = planck_cell_probability(wf_n, k - (cells - 1) // 2 + j)
            assert type(pr) is float and pr == want[j]


def test_cell_probabilities_is_one_pass_with_no_center_default():
    source = Path(__file__).resolve().parent.parent / "src" / "qergo" / "qgrid.py"
    module = ast.parse(source.read_text(encoding="utf-8"))
    names = {f.name: f for f in module.body if isinstance(f, ast.FunctionDef)}
    assert "_window_node_range" not in names
    fn = names["cell_probabilities"]
    assert not fn.args.defaults and not fn.args.kw_defaults
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [ast.unparse(node) for node in ast.walk(fn) if isinstance(node, loops)]
    calls = {getattr(node.func, "id", None) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert "planck_cell_probability" not in calls
