import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qergo.errors import InvariantViolation
from qergo.partition import (
    MAX_SUBINTERVALS,
    SCHEDULER_KINDS,
    SchedulerSpec,
    SubInterval,
    active_label,
    build_partition,
    build_partition_span,
    check_partition,
    dump_partition,
    interval_measure,
    periodic_extend,
    step_function,
)
from qergo.ergodic import window_average_step
from qergo.partition import (
    _bitgen,
    _draw_layouts,
    _layout,
    _random_layouts,
    _seeded_random_layout,
    _validated_probabilities,
)
from qergo.testing import random_probabilities

ALL_KINDS = ["contiguous", "two-outcome", "seeded-random"]


def spec_for(kind: str) -> SchedulerSpec:
    return SchedulerSpec(kind=kind, max_subintervals=3, seed=42, offset=0.25)


def test_single_outcome_fills_window():
    p = build_partition([1.0], 2, SchedulerSpec())
    assert p.segments == ((SubInterval(2.0, 3.0), 0),)
    assert interval_measure(p, 0) == 1.0


def test_two_outcome_worked_example():
    # offset 0.3 with p = (0.4, 0.6): the second label brackets the first
    p = build_partition([0.4, 0.6], 3, SchedulerSpec(kind="two-outcome", offset=0.3))
    assert [(seg.lo, seg.hi, k) for seg, k in p.segments] == [
        (3.0, 3.3, 1),
        (3.3, 3.7, 0),
        (3.7, 4.0, 1),
    ]
    assert interval_measure(p, 0) == pytest.approx(0.4, abs=1e-12)
    assert interval_measure(p, 1) == pytest.approx(0.6, abs=1e-12)


def test_two_outcome_offset_clamped():
    # offset past 1 - p0 would push label 0 over the edge; it clamps instead
    p = build_partition([0.7, 0.3], 0, SchedulerSpec(kind="two-outcome", offset=0.9))
    segs = [(seg.lo, seg.hi, k) for seg, k in p.segments]
    assert segs == [(0.0, 0.3, 1), (0.3, 1.0, 0)]


def test_contiguous_quarters():
    p = build_partition([0.25, 0.75], 5, SchedulerSpec())
    assert [(seg.lo, seg.hi, k) for seg, k in p.segments] == [
        (5.0, 5.25, 0),
        (5.25, 6.0, 1),
    ]


def test_zero_probability_label_stores_nothing():
    p = build_partition([0.5, 0.0, 0.5], 0, SchedulerSpec())
    assert 1 not in p.labels
    assert interval_measure(p, 1) == 0.0
    assert interval_measure(p, 0) == 0.5


def test_step_function_half_open_boundaries():
    p = build_partition([0.4, 0.6], 3, SchedulerSpec(kind="two-outcome", offset=0.3))
    assert step_function(p, 0, 3.5) == 1
    assert step_function(p, 1, 3.5) == 0
    # a shared boundary belongs to the earlier interval
    assert step_function(p, 1, 3.3) == 1
    assert step_function(p, 0, 3.3) == 0
    # the window's right endpoint is included, the left one is not
    assert active_label(p, 4.0) == 1
    with pytest.raises(ValueError, match="outside"):
        step_function(p, 0, 3.0)
    with pytest.raises(ValueError, match="outside"):
        active_label(p, 4.0000000001)


def test_active_label_examples():
    p1 = build_partition([1.0], 0, SchedulerSpec())
    for u in [0.1, 0.5, 1.0]:
        assert active_label(p1, u) == 0
    p = build_partition([0.4, 0.6], 3, SchedulerSpec(kind="two-outcome", offset=0.3))
    assert active_label(p, 3.1) == 1
    assert active_label(p, 4.0) == 1


def test_exactly_one_label_active():
    rng = np.random.default_rng(7)
    for kind in ALL_KINDS:
        p = build_partition(random_probabilities(rng, 5), 1, spec_for(kind))
        for u in 2.0 - rng.random(300):  # lands in (1, 2]
            u = float(u)
            states = [step_function(p, k, u) for k in range(5)]
            assert sum(states) == 1
            assert states[active_label(p, u)] == 1


def test_measure_invariants_random_sweep():
    rng = np.random.default_rng(123)
    for _ in range(60):
        d = int(rng.integers(2, 17))
        probs = random_probabilities(rng, d)
        for kind in ALL_KINDS:
            p = build_partition(probs, int(rng.integers(0, 50)), spec_for(kind))
            worst = check_partition(p)
            assert worst <= 1e-9
            total = sum(interval_measure(p, k) for k in range(d))
            assert abs(total - 1.0) <= 1e-9


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    probs = random_probabilities(rng, 6)
    for kind in ALL_KINDS:
        a = build_partition(probs, 9, spec_for(kind))
        b = build_partition(probs, 9, spec_for(kind))
        assert dump_partition(a) == dump_partition(b)


def test_seeded_random_respects_max_subintervals():
    rng = np.random.default_rng(21)
    for trial in range(30):
        d = int(rng.integers(2, 9))
        n_max = int(rng.integers(1, 5))
        spec = SchedulerSpec(kind="seeded-random", max_subintervals=n_max, seed=trial)
        p = build_partition(random_probabilities(rng, d), 0, spec)
        for k in range(d):
            assert np.count_nonzero(p.labels == k) <= n_max


def test_seeded_random_windows_independent():
    # stream is keyed by (seed, window): same window twice is identical,
    # different windows differ
    probs = [0.3, 0.3, 0.4]
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=99)
    a = build_partition(probs, 4, spec)
    b = build_partition(probs, 4, spec)
    c = build_partition(probs, 5, spec)
    assert dump_partition(a) == dump_partition(b)
    rel_a = [(seg.lo - 4.0, k) for seg, k in a.segments]
    rel_c = [(seg.lo - 5.0, k) for seg, k in c.segments]
    assert rel_a != rel_c


def test_periodic_extend_examples():
    p = build_partition([1.0], 0, SchedulerSpec())
    shifted = periodic_extend(p, 5)
    assert shifted.segments == ((SubInterval(5.0, 6.0), 0),)

    p2 = build_partition([0.4, 0.6], 0, SchedulerSpec(kind="two-outcome", offset=0.3))
    s2 = periodic_extend(p2, 3)
    bounds = [seg.lo for seg, _ in s2.segments] + [s2.segments[-1][0].hi]
    assert bounds == [3.0, 3.3, 3.7, 4.0]
    for k in range(2):
        assert abs(interval_measure(s2, k) - interval_measure(p2, k)) <= 1e-9


def test_periodic_extend_drops_piece_collapsed_by_shift():
    # A sub-ulp piece of the window-0 base vanishes once shifted by N.
    base = build_partition([1.9e-32, 1.0], 0, SchedulerSpec())
    assert base.segments[0] == (SubInterval(0.0, 1.9e-32), 0)
    out = periodic_extend(base, 1)
    assert out.segments == ((SubInterval(1.0, 2.0), 1),)
    assert check_partition(out) <= 1e-9


def test_periodic_extend_requires_window_zero():
    p = build_partition([1.0], 1, SchedulerSpec())
    with pytest.raises(ValueError, match="window-0"):
        periodic_extend(p, 3)


def test_build_partition_rejections():
    with pytest.raises(ValueError, match="non-negative"):
        build_partition([-0.2, 1.2], 0, SchedulerSpec())
    with pytest.raises(ValueError, match="sum"):
        build_partition([0.4, 0.4], 0, SchedulerSpec())
    with pytest.raises(ValueError, match="window_index"):
        build_partition([1.0], -1, SchedulerSpec())


def test_small_probability_drift_is_renormalized():
    drifted = [0.4 + 2e-7, 0.6]
    p = build_partition(drifted, 0, SchedulerSpec())
    assert abs(float(p.probabilities.sum()) - 1.0) < 1e-15
    assert check_partition(p) <= 1e-9


def test_scheduler_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        SchedulerSpec(kind="mystery")
    with pytest.raises(ValueError, match="max_subintervals"):
        SchedulerSpec(max_subintervals=0)
    with pytest.raises(ValueError, match="offset"):
        SchedulerSpec(offset=1.5)


def test_max_subintervals_is_bounded():
    # No layout is built: one at the bound would allocate 2**16 pieces per label.
    assert MAX_SUBINTERVALS == 2**16
    assert SchedulerSpec(kind="seeded-random", max_subintervals=2**16, seed=1).max_subintervals == 2**16
    # A numpy integer is an integer; its layouts are the ones a Python int gives.
    p = np.array([0.2, 0.3, 0.5])
    for n in (1, 3, 7):
        a = build_partition(p, 5, SchedulerSpec(kind="seeded-random", max_subintervals=n, seed=8))
        b = build_partition(p, 5, SchedulerSpec(kind="seeded-random", max_subintervals=np.int64(n), seed=8))
        assert a.bounds.tobytes() == b.bounds.tobytes() and np.array_equal(a.labels, b.labels)
    for n in (2**16 + 1, 2**40, 0):
        with pytest.raises(ValueError, match=rf"^max_subintervals must be an integer in \[1, 65536\], got {n!r}$"):
            SchedulerSpec(kind="seeded-random", max_subintervals=n, seed=1)
    for n in (2.5, True):
        with pytest.raises(ValueError, match=rf"^max_subintervals must be an integer, got {n!r}$"):
            SchedulerSpec(kind="seeded-random", max_subintervals=n, seed=1)


def test_seed_must_be_a_non_negative_integer():
    # A fractional seed used to draw the layouts of its integer part, and a
    # non-integer past 2**32 failed only at the first layout, inside numpy.
    p = np.array([0.2, 0.3, 0.5])
    for seed in (1.5, 2**32 + 0.5, float("nan"), float("inf"), "1", None, True):
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {re.escape(repr(seed))}$"):
            SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=seed)
    for seed in (-1, -(2**40)):
        with pytest.raises(ValueError, match=rf"^seed must be an integer of at least 0, got {seed}$"):
            SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=seed)
    # A numpy integer is an integer, and a seed past 2**32 still builds.
    for seed in (0, 7, 2**32 + 5):
        a = build_partition(p, 2, SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=seed))
        b = build_partition(p, 2, SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=np.uint64(seed)))
        assert a.bounds.tobytes() == b.bounds.tobytes() and np.array_equal(a.labels, b.labels)


NON_INTEGERS = [1.5, 2.0, float("nan"), float("inf"), np.float64(1.0), "1", None, True]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_window_index_must_be_an_integer(bad):
    # A fractional index used to lay out a "window 1.5" on (1.5, 2.5] with
    # window 1's seeded labels, and periodic_extend shifted by it alike;
    # True built window 1.
    p = np.array([0.2, 0.3, 0.5])
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=7)
    message = rf"^window_index must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        build_partition(p, bad, spec)
    with pytest.raises(ValueError, match=message):
        build_partition_span(p, 1.25, 2.0, spec, window_index=bad)
    with pytest.raises(ValueError, match=message):
        periodic_extend(build_partition(p, 0, spec), bad)


# float(2**53) + 1.0 rounds back to float(2**53): no window past it has exact float ends.
WINDOW_RANGE = re.escape("must be an integer in [0, 9007199254740991], got ")


def test_a_window_past_the_last_with_exact_float_ends_is_refused():
    # periodic_extend(base, 2**53) returned a partition with lo == hi and no stretches.
    p = np.array([0.2, 0.3, 0.5])
    base = build_partition(p, 0, SchedulerSpec())
    with pytest.raises(ValueError, match=rf"^window_index {WINDOW_RANGE}9007199254740992$"):
        periodic_extend(base, 2**53)
    last = periodic_extend(base, 2**53 - 1)
    assert (last.lo, last.hi) == (2.0**53 - 1.0, 2.0**53) and last.labels.size >= 1


def test_a_negative_window_index_is_refused_before_any_draw():
    # A seeded-random span at window -1 failed inside numpy ("expected non-negative integer").
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=5)
    with pytest.raises(ValueError, match=rf"^window_index {WINDOW_RANGE}-1$"):
        build_partition_span(np.array([0.2, 0.3, 0.5]), 0.25, 1.0, spec, -1)


def test_only_index_decides_an_integer():
    # Every integer argument and its range go through partition._index;
    # total_variation reads a whole reorder list, whose rule is a permutation.
    src = Path(__file__).resolve().parent.parent / "src" / "qergo"
    callers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                callers += [
                    f"{path.stem}.{f.name}" for node in ast.walk(f)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_integer"
                ]
    assert sorted(callers) == ["measurement.total_variation", "partition._index"]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_label_must_be_an_integer(bad):
    # Label 0.5 used to read as a label that owns nothing (measure 0.0,
    # indicator 0), and True as label 1.
    p = build_partition([0.2, 0.3, 0.5], 0, SchedulerSpec())
    message = rf"^label must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        interval_measure(p, bad)
    with pytest.raises(ValueError, match=message):
        step_function(p, bad, 0.5)
    with pytest.raises(ValueError, match=message):
        window_average_step(p, bad)
    assert interval_measure(p, np.int64(2)) == interval_measure(p, 2)
    assert step_function(p, np.uint8(2), 0.9) == step_function(p, 2, 0.9) == 1


def test_numpy_integer_window_indices_build_the_same_layouts():
    p = np.array([0.2, 0.3, 0.5])
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=7)
    base = build_partition(p, 0, spec)
    for n in (np.int64(3), np.uint32(3), np.intp(3)):
        for got, want in [
            (build_partition(p, n, spec), build_partition(p, 3, spec)),
            (build_partition_span(p, 3.5, 4.0, spec, n), build_partition_span(p, 3.5, 4.0, spec, 3)),
            (periodic_extend(base, n), periodic_extend(base, 3)),
        ]:
            assert got.bounds.tobytes() == want.bounds.tobytes()
            assert np.array_equal(got.labels, want.labels) and got.window_index == 3


def test_span_partition_scales_measures():
    p = build_partition_span([0.25, 0.75], 2.4, 3.0, SchedulerSpec(), window_index=2)
    assert p.lo == 2.4 and p.hi == 3.0
    assert interval_measure(p, 0) == pytest.approx(0.25 * 0.6, abs=1e-12)
    assert interval_measure(p, 1) == pytest.approx(0.75 * 0.6, abs=1e-12)
    assert check_partition(p) <= 1e-9
    with pytest.raises(ValueError, match="hi > lo"):
        build_partition_span([1.0], 3.0, 3.0, SchedulerSpec(), window_index=3)


def test_check_partition_flags_corruption():
    p = build_partition([0.5, 0.5], 0, SchedulerSpec())
    # fault injection: the first stretch overruns the second
    object.__setattr__(p, "bounds", np.array([0.0, 1.2, 1.0]))
    with pytest.raises(InvariantViolation, match="overlap"):
        check_partition(p)
    object.__setattr__(p, "bounds", np.array([0.0, 1.0]))
    with pytest.raises(InvariantViolation, match="2 bounds for 2 segments"):
        check_partition(p)


def test_check_partition_flags_bad_measure():
    p = build_partition([0.5, 0.5], 0, SchedulerSpec())
    object.__setattr__(p, "labels", np.array([0, 0]))
    with pytest.raises(InvariantViolation, match="measure"):
        check_partition(p)


def test_dump_format_round_trips():
    p = build_partition([0.4, 0.6], 3, SchedulerSpec(kind="two-outcome", offset=0.3))
    text = dump_partition(p)
    lines = text.strip().splitlines()
    assert lines[0] == "window_index,label,lo,hi"
    parsed = [ln.split(",") for ln in lines[1:]]
    los = [float(row[2]) for row in parsed]
    assert los == sorted(los)
    # repr floats survive the round trip bit-exactly
    for row, (seg, k) in zip(parsed, p.segments):
        assert int(row[0]) == 3 and int(row[1]) == k
        assert float(row[2]) == seg.lo and float(row[3]) == seg.hi


def test_subinterval_contract():
    with pytest.raises(ValueError):
        SubInterval(1.0, 1.0)
    iv = SubInterval(0.5, 1.5)
    assert (iv.lo, iv.hi) == (0.5, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10),
    kind=st.sampled_from(ALL_KINDS),
    window=st.integers(min_value=0, max_value=200),
)
def test_partition_invariants_property(weights, kind, window):
    total = sum(weights)
    if total < 1e-6:
        return
    probs = np.array(weights) / total
    p = build_partition(probs, window, SchedulerSpec(kind=kind, max_subintervals=2, seed=3))
    assert check_partition(p) <= 1e-9
    assert p.segments[0][0].lo == float(window)
    assert p.segments[-1][0].hi == float(window + 1)


def test_partition_arrays_are_read_only_and_segments_derived():
    p = build_partition([0.2, 0.0, 0.8], 4, SchedulerSpec(kind="two-outcome", offset=0.5))
    assert p.bounds.tolist() == [4.0, 4.5, 4.7, 5.0]
    assert p.labels.tolist() == [2, 0, 2]
    assert p.bounds.dtype == np.float64 and p.labels.dtype == np.intp
    with pytest.raises(ValueError, match="read-only"):
        p.bounds[1] = 4.6
    with pytest.raises(ValueError, match="read-only"):
        p.labels[0] = 1
    assert p.segments == (
        (SubInterval(4.0, 4.5), 2),
        (SubInterval(4.5, 4.7), 0),
        (SubInterval(4.7, 5.0), 2),
    )
    assert p.segments is not p.segments


@pytest.mark.parametrize(
    "lo,hi", [(0.0, float("inf")), (float("-inf"), 1.0), (float("-inf"), float("inf"))]
)
def test_span_partition_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match=r"span bounds must be finite"):
        build_partition_span([0.5, 0.5], lo, hi, SchedulerSpec(), window_index=0)


# The partial sums of these weights round past 1 before the sub-ulp last one.
OVERSHOOTING = [0.3521690750691994, 0.2771775720926887, 0.37065335283811185, 4.661954861284995e-18]


def test_layout_ends_on_hi_when_rounding_overshoots_it():
    p = build_partition(OVERSHOOTING, 0, SchedulerSpec())
    assert p.bounds[-1] == 1.0 and p.hi == 1.0
    assert np.all(p.bounds <= 1.0)
    assert check_partition(p) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=5),
    tail=st.floats(min_value=1e-30, max_value=1e-16),
    kind=st.sampled_from(SCHEDULER_KINDS),
    lo=st.floats(min_value=0.0, max_value=1e3),
)
@example(weights=OVERSHOOTING[:-1], tail=OVERSHOOTING[-1], kind="contiguous", lo=0.0)
def test_layout_with_sub_ulp_trailing_weight_ends_on_hi(weights, tail, kind, lo):
    w = np.array(weights + [tail])
    window = math.floor(lo)
    hi = window + 1.0
    spec = SchedulerSpec(kind=kind, max_subintervals=3, seed=7)
    p = build_partition_span(w / w.sum(), lo, hi, spec, window)
    assert p.bounds[-1] == hi
    assert check_partition(p) <= 1e-9


# numpy's PCG64: a 128-bit LCG stepped before each output, and the XSL-RR
# output of the stepped state.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)
_MASK64 = 2**64 - 1


def _xsl_rr(state: int) -> int:
    hi, lo = state >> 64, state & _MASK64
    x, rot = hi ^ lo, hi >> 58
    return ((x >> rot) | (x << (64 - rot))) & _MASK64


def _pcg64_emitting(word: int, skip: int = 0, seed: int = 0) -> np.random.PCG64:
    """A PCG64 whose output ``skip + 1`` (counting from 1) is ``word``."""
    bitgen = np.random.PCG64(seed)
    state = bitgen.state
    inc = state["state"]["inc"]
    hi = (0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64  # any high half will do
    rot = hi >> 58
    lo = (((word << rot) | (word >> (64 - rot))) & _MASK64) ^ hi  # rotl(word, rot) ^ hi
    s = (hi << 64) | lo
    assert _xsl_rr(s) == word
    for _ in range(skip + 1):
        s = ((s - inc) * _PCG_MULT_INV) % 2**128
    state["state"]["state"] = s
    bitgen.state = state
    return bitgen


def _numpy_layout(p, rng: np.random.Generator, max_subintervals):
    """The seeded-random layout drawn through numpy's own Generator calls."""
    widths, labels = [], []
    for k, mass in enumerate(p.tolist()):
        if mass <= 0.0:
            continue
        n = int(rng.integers(1, max_subintervals + 1))
        cuts = np.sort(mass * rng.random(n - 1))
        parts = np.diff(np.concatenate(([0.0], cuts, [mass])))
        widths.extend(parts[parts > 0.0].tolist())
        labels.extend([k] * int(np.count_nonzero(parts > 0.0)))
    order = rng.permutation(len(widths))
    return np.array(widths)[order], np.array(labels, dtype=np.intp)[order]


def _assert_layout_is_numpys(p, window, spec):
    # default_rng([seed, window]) keys the stream independently of _bitgen.
    got = _seeded_random_layout(p, window, spec)
    want = _numpy_layout(p, np.random.default_rng([spec.seed, window]), spec.max_subintervals)
    assert got[0].tobytes() == want[0].tobytes() and got[0].dtype == want[0].dtype
    assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype


def test_seeded_random_layout_equals_array_reference():
    rng = np.random.default_rng(404)
    pairs = 0
    for seed in range(100):
        d = 1 + seed % 8
        p = random_probabilities(rng, d)
        p[rng.random(d) < 0.3] = 0.0  # zero-mass labels draw nothing
        if seed % 10 == 3:  # a subnormal mass: its cuts coincide, widths of 0 are dropped
            p[0] = 5e-324
        spec = SchedulerSpec(kind="seeded-random", max_subintervals=1 + seed % 5, seed=seed)
        for window in range(100):
            _assert_layout_is_numpys(p, window, spec)
            pairs += 1
    assert pairs >= 10_000


def test_seeded_random_layout_equals_uniform_draw_reference():
    rng = np.random.default_rng(1212)
    seeds = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3]
    cases = 0
    for i in range(2_400):
        d = 1 + i % 16
        p = random_probabilities(rng, d)
        p[rng.random(d) < 0.25] = 0.0  # zero-mass labels draw nothing
        if i % 50 == 7:
            p[0] = 5e-324
        seed = seeds[i % len(seeds)] if i % 3 == 0 else int(rng.integers(0, 2**63))
        window = (0, 1, 2**32 - 1, 2**32, 2**35)[i % 5] if i % 7 == 0 else int(rng.integers(0, 10_000))
        spec = SchedulerSpec(kind="seeded-random", max_subintervals=1 + i % 6, seed=seed)
        _assert_layout_is_numpys(p, window, spec)
        cases += 1
    assert cases >= 2_000


def test_seeded_random_layout_equals_uniform_draw_reference_up_to_d_64():
    # An odd number of positive labels leaves half a count word over for the
    # shuffle (unless a rejection evens it out); an even number leaves none.
    rng = np.random.default_rng(1818)
    parities = {0: 0, 1: 0}
    for i in range(1_200):
        d = int(rng.integers(1, 65))
        p = random_probabilities(rng, d)
        p[rng.random(d) < rng.random() * 0.6] = 0.0
        if i % 5 == 2:  # subnormal masses, one of them the smallest
            tiny = rng.choice(d, size=min(d, 3), replace=False)
            p[tiny] = 5e-324 * rng.integers(1, 2**20, size=tiny.size)
            p[tiny[0]] = 5e-324
        if not p.any():
            p[0] = 1.0
        parities[int(np.count_nonzero(p > 0.0)) % 2] += 1
        seed = int(rng.integers(0, 2**63)) if i % 2 else int(rng.integers(0, 2**32))
        window = int(rng.integers(0, 2**40)) if i % 4 == 1 else int(rng.integers(0, 5_000))
        spec = SchedulerSpec(kind="seeded-random", max_subintervals=1 + i % 9, seed=seed)
        _assert_layout_is_numpys(p, window, spec)
    assert min(parities.values()) >= 400


def _next_outputs(bitgen: np.random.PCG64):
    """What the generator gives next: its LCG state and any buffered 32-bit half."""
    state = bitgen.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


def _scaled_to(leftover: int, excl: int) -> int:
    """A 32-bit value ``x`` with ``(x * excl) % 2**32 == leftover``."""
    g = excl & -excl  # excl's power-of-two factor
    x = (leftover // g) * pow(excl // g, -1, 2**32 // g) % (2**32 // g)
    assert (x * excl) & 0xFFFFFFFF == leftover
    return x


def _rejects(x: int, excl: int) -> bool:
    """Whether numpy's bounded 32-bit draw throws the value ``x`` away."""
    return (x * excl) & 0xFFFFFFFF < (2**32 - excl) % excl


def _assert_draw_matches_numpy(p, bitgen, max_subintervals, monkeypatch):
    """A window whose stream is ``bitgen``'s gets numpy's layout, batched or not.

    ``_bitgen`` is patched to hand out copies of ``bitgen``.  The definition
    equals numpy's calls on a twin and leaves its generator where they left
    the twin, kept half included.  After a batch (which may give the window
    up to the definition) ``_layout`` gives the same, and so does
    ``build_partition``.
    """
    handed = []

    def crafted(spec, window_index):
        handed.append(np.random.PCG64())
        handed[-1].state = bitgen.state
        return handed[-1]

    monkeypatch.setattr("qergo.partition._bitgen", crafted)
    twin = np.random.PCG64()
    twin.state = bitgen.state
    spec, batched = (SchedulerSpec(kind="seeded-random", max_subintervals=max_subintervals) for _ in "ab")
    q = _validated_probabilities(p)
    got = _seeded_random_layout(q, 0, spec)
    want = _numpy_layout(q, np.random.Generator(twin), max_subintervals)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
    # A half already read is stale and next_uint32 never reads it.
    assert _next_outputs(handed[-1]) == _next_outputs(twin)
    _draw_layouts(p[None], [0], batched)
    layout = _layout(q, 0, batched)
    assert layout[0].tobytes() == got[0].tobytes() and np.array_equal(layout[1], got[1])
    assert _next_outputs(handed[-1]) == _next_outputs(twin)
    batched._layouts.clear()
    _draw_layouts(p[None], [0], batched)
    one, other = build_partition(p, 0, spec), build_partition(p, 0, batched)
    assert one.bounds.tobytes() == other.bounds.tobytes()
    assert np.array_equal(one.labels, other.labels)
    assert _next_outputs(handed[-1]) == _next_outputs(twin)
    return got


@pytest.mark.parametrize("excl", [3, 5, 6, 7])
@pytest.mark.parametrize("skip", [0, 1, 3])
def test_random_draw_rejects_both_halves_of_a_word_as_numpy_does(excl, skip, monkeypatch):
    # A zero word: both halves are rejected, wherever it falls among the
    # count and cut words of a four-label layout.
    assert _rejects(0, excl)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    for seed in range(8):
        bitgen = _pcg64_emitting(0, skip=skip, seed=seed)
        probe = np.random.PCG64()
        probe.state = bitgen.state
        assert probe.random_raw(skip + 1)[-1] == 0
        _assert_draw_matches_numpy(p, bitgen, excl, monkeypatch)


@pytest.mark.parametrize("excl", [3, 5, 6, 7])
def test_random_draw_keeps_a_value_on_the_rejection_threshold(excl, monkeypatch):
    # The low half sits on the threshold and is kept; the upper half sits
    # just below it and is rejected, so the second label's count comes from
    # the next word.
    threshold = (2**32 - excl) % excl
    below = max(t for t in range(threshold) if t % (excl & -excl) == 0)
    word = (_scaled_to(below, excl) << 32) | _scaled_to(threshold, excl)
    assert not _rejects(word & 0xFFFFFFFF, excl) and _rejects(word >> 32, excl)
    p = np.array([0.5, 0.3, 0.2])
    for seed in range(8):
        _assert_draw_matches_numpy(p, _pcg64_emitting(word, seed=seed), excl, monkeypatch)


@pytest.mark.parametrize("excl", [3, 5, 6, 7])
def test_random_draw_leaves_an_upper_half_for_the_shuffle_after_a_rejection(excl, monkeypatch):
    # One positive label: the zero first word is rejected in both halves,
    # the count comes from the next word's low half, and its upper half is
    # the first value the shuffle reads.
    p = np.array([0.0, 0.0, 1.0, 0.0])
    for seed in range(8):
        bitgen = _pcg64_emitting(0, seed=seed)
        probe = np.random.PCG64()
        probe.state = bitgen.state
        np.random.Generator(probe).integers(1, excl + 1)
        assert probe.state["has_uint32"] == 1
        _assert_draw_matches_numpy(p, bitgen, excl, monkeypatch)
    # A rejected low half whose upper half is kept: the count is 1 from 0x12345678.
    p = np.array([1.0])
    bitgen = _pcg64_emitting(0x1234567800000000)
    assert _rejects(0, excl) and not _rejects(0x12345678, excl)
    twin = np.random.PCG64()
    twin.state = bitgen.state
    assert np.random.Generator(twin).integers(1, excl + 1) == 1
    widths, labels = _assert_draw_matches_numpy(p, bitgen, excl, monkeypatch)
    assert widths.tolist() == [1.0] and labels.tolist() == [0]


def test_random_draw_with_one_piece_per_label_reads_only_the_shuffle(monkeypatch):
    rng = np.random.default_rng(31)
    for d in (1, 2, 7, 16):
        p = random_probabilities(rng, d)
        bitgen = _pcg64_emitting(0, seed=d)
        widths, labels = _assert_draw_matches_numpy(p, bitgen, 1, monkeypatch)
        assert sorted(labels.tolist()) == list(range(d))
        assert widths.tobytes() == p[labels].tobytes()


def _assert_batch_matches_scalar(p, bitgens, max_subintervals):
    """Each row's batched draw equals numpy's calls on a twin generator.

    Both leave their generators in one state, kept half included.  A row
    the batch gives up on (None) is left to the scalar draw.
    """
    twins = []
    for bitgen in bitgens:
        twins.append(np.random.PCG64())
        twins[-1].state = bitgen.state
    got = _random_layouts(p, bitgens, max_subintervals)
    assert len(got) == len(bitgens)
    for row, layout, bitgen, twin in zip(p, got, bitgens, twins):
        if layout is not None:
            want = _numpy_layout(row, np.random.Generator(twin), max_subintervals)
            assert layout[0].tobytes() == want[0].tobytes()
            assert np.array_equal(layout[1], want[1]) and layout[1].dtype == want[1].dtype
            assert _next_outputs(bitgen) == _next_outputs(twin)
    return got


@pytest.mark.parametrize("d", [1, 2, 3, 15, 16, 64])
@pytest.mark.parametrize("excl", [1, 2, 3, 4, 5, 7, 16])
def test_batched_draw_equals_the_scalar_draw(d, excl):
    # With d odd and excl > 1 the last count word's upper half is kept, and
    # the shuffle reads it first.
    rng = np.random.default_rng(100 * d + excl)
    p = np.array([random_probabilities(rng, d) for _ in range(6)])
    bitgens = [np.random.PCG64(int(s)) for s in rng.integers(2**63, size=6)]
    assert None not in _assert_batch_matches_scalar(p, bitgens, excl)


@pytest.mark.parametrize("excl", [3, 5, 6, 7])
@pytest.mark.parametrize("skip", [0, 1, 3])
def test_batched_draw_gives_up_only_on_a_rejected_count_word(excl, skip):
    # Word skip + 1 is zero: rejected where it is read as a count, a zero
    # cut (a piece of no width, dropped) where it is read as a cut.
    p = np.array([[0.1, 0.2, 0.3, 0.4]] * 8)
    got = _assert_batch_matches_scalar(p, [_pcg64_emitting(0, skip, seed) for seed in range(8)], excl)
    # The first word is always a count; a later one is a cut in some rows.
    assert (got == [None] * 8) == (skip == 0)
    # A value on the threshold is kept and one below it rejected.
    threshold = (2**32 - excl) % excl
    below = max(t for t in range(threshold) if t % (excl & -excl) == 0)
    word = (_scaled_to(below, excl) << 32) | _scaled_to(threshold, excl)
    p = np.array([[0.5, 0.3, 0.2]])
    assert _assert_batch_matches_scalar(p, [_pcg64_emitting(word)], excl) == [None]
    assert None not in _assert_batch_matches_scalar(p[:, :1] / p[0, 0], [_pcg64_emitting(word)], excl)


def test_raw_words_are_read_only_by_the_batched_decoder():
    # A generator's raw words, its advance and its buffered 32-bit half are
    # touched in _random_layouts alone; every other draw is numpy's calls.
    src = Path(__file__).resolve().parent.parent / "src" / "qergo"
    outside, inside = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decoder = set()
        if path.name == "partition.py":
            f = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_random_layouts")
            decoder = {id(node) for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("random_raw", "advance"):
                name = node.attr
            elif isinstance(node, ast.Constant) and node.value in ("random_raw", "has_uint32"):
                name = node.value
            else:
                continue
            if id(node) in decoder:
                inside.add(name)
            else:
                outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
    assert inside == {"random_raw", "advance", "has_uint32"}


def test_batched_draws_are_the_layouts_build_partition_gives():
    # A seed past 2**32 and windows past it key their streams by a list.
    # Rows with a zero weight, rows off the probability simplex and keys
    # already kept are left to the scalar draw; the rest are each taken once.
    rng = np.random.default_rng(12)
    spec, fresh = (SchedulerSpec(kind="seeded-random", max_subintervals=5, seed=s) for s in (2**32 + 9,) * 2)
    weights = np.array([random_probabilities(rng, 7) for _ in range(6)])
    weights[2, 3], weights[3] = 0.0, weights[3] * 1.01
    weights[2] /= weights[2].sum()
    windows = [0, 3, 2**32, 2**32 - 1, 2**32 + 1, 2**40]
    kept = build_partition(weights[5], windows[5], spec)
    _draw_layouts(weights, windows, spec)
    assert sorted(n for _, n in spec._drawn) == [0, 3, 2**32 + 1]
    for w, n in zip(weights, windows):
        if w.sum() < 1.005:
            got, want = build_partition(w, n, spec), build_partition(w, n, fresh)
            assert got.bounds.tobytes() == want.bounds.tobytes()
            assert np.array_equal(got.labels, want.labels)
    assert not spec._drawn
    assert build_partition(weights[5], windows[5], spec).bounds.tobytes() == kept.bounds.tobytes()
    # A block of more than 2**15 words is left to the scalar draw.
    big = SchedulerSpec(kind="seeded-random", max_subintervals=MAX_SUBINTERVALS, seed=1)
    _draw_layouts(weights[:1], [0], big)
    assert not big._drawn
    # Keys and streams agree with the scalar draw's: one per (seed, window).
    for n in (0, 2**32 - 1, 2**32):
        assert _bitgen(spec, n).random_raw() == _bitgen(fresh, n).random_raw()
