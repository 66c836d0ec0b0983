import ast
import contextlib
import dataclasses
import math
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from qergo.ergodic import sample_born
from qergo.hilbert import CommutingSet, Hamiltonian, born_probabilities, evolve, make_state
from qergo.measurement import (
    SequenceDistribution,
    SystemUnderObservation,
    advance,
    measure,
    measurement_operator_apply,
    sequential_experiment,
    total_variation,
    format_measurement_log,
    format_sequence_distribution,
    sequence_records,
)
from qergo.microstate import Scenario, dump_trajectory, trajectory
from qergo.partition import (
    SchedulerSpec,
    check_partition,
    dump_partition,
    interval_measure,
    periodic_extend,
)
from qergo.testing import (
    haar_unitary,
    random_cset,
    random_hamiltonian,
    random_state,
    sigma_x_set,
    sigma_z_set,
)

H0 = Hamiltonian(np.zeros((2, 2)))
RABI = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))


def start_qubit(state=(1.0, 0.0), H=H0, csets=None, schedulers=None):
    csets = csets or (sigma_z_set(),)
    sc = Scenario(make_state(list(state)), H, csets, schedulers or {})
    return SystemUnderObservation.from_scenario(sc)


def test_advance_same_time_is_identity():
    sys = start_qubit()
    assert advance(sys, 0.0) is sys


def test_advance_rejects_backward():
    sys = advance(start_qubit(), 1.5)
    with pytest.raises(ValueError, match="backward"):
        advance(sys, 1.0)


def test_advance_conserved_crossing_extends_periodically():
    sys = start_qubit(state=(0.6, 0.8))  # H = 0 conserves everything
    out = advance(sys, 2.5)
    expect = periodic_extend(sys.partitions["sz"], 2)
    assert dump_partition(out.partitions["sz"]) == dump_partition(expect)
    assert out.current_time == 2.5


def test_advance_rabi_crossing_tracks_probabilities():
    sys = start_qubit(H=RABI)
    out = advance(sys, 3.2)
    part = out.partitions["sz"]
    assert part.window_index == 3
    assert abs(interval_measure(part, 0) - np.cos(3 / 2) ** 2) <= 1e-9


def test_advance_boundary_does_not_open_next_window():
    sys = start_qubit(H=RABI)
    out = advance(sys, 1.0)
    assert out.partitions["sz"].window_index == 0
    assert out.current_time == 1.0


def test_measure_certain_outcome():
    rec, after = measure(start_qubit(), "sz", 0.7)
    assert rec.outcome_index == 0
    assert rec.outcome_label == (0,)
    assert np.array_equal(rec.post_state.amplitudes, np.array([1.0, 0.0], dtype=complex))


def test_measure_outcome_from_interval_position():
    # contiguous layout of (0.36, 0.64): label 1 owns (0.36, 1]
    rec, after = measure(start_qubit(state=(0.6, 0.8)), "sz", 0.5)
    assert rec.outcome_index == 1
    sz = sigma_z_set()
    assert np.array_equal(rec.post_state.amplitudes, sz.basis_vector(1))
    p_after = born_probabilities(after.state, sz)
    assert np.max(np.abs(p_after - np.array([0.0, 1.0]))) <= 1e-12


def test_measure_repeat_same_set_is_idempotent():
    rec1, sys1 = measure(start_qubit(state=(0.6, 0.8)), "sz", 0.5)
    rec2, sys2 = measure(sys1, "sz", 0.5 + 1e-6)
    assert rec2.outcome_index == rec1.outcome_index
    rec3, _ = measure(sys2, "sz", 0.9)
    assert rec3.outcome_index == rec1.outcome_index  # H = 0: exact for the whole run


def test_measure_repeat_with_dynamics_within_residual_interval():
    rec1, sys1 = measure(start_qubit(state=(0.6, 0.8), H=RABI), "sz", 0.5)
    # immediately after collapse the partition of the remainder starts with
    # the dominant label; a read moments later still lands inside it
    rec2, _ = measure(sys1, "sz", 0.5 + 1e-9)
    assert rec2.outcome_index == rec1.outcome_index


def test_measure_records_time_and_post_state():
    sys = start_qubit(state=(0.6, 0.8), H=RABI)
    rec, after = measure(sys, "sz", 1.4)
    assert rec.time == 1.4
    assert after.history == (rec,)
    assert after.current_time == 1.4
    # post state is bitwise a basis column
    assert np.array_equal(rec.post_state.amplitudes, sigma_z_set().basis_vector(rec.outcome_index))


def _driven_random_scenario(seed):
    """A random driven H, a random set with a seeded-random scheduler, d in {2, 3, 4}."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=int(rng.integers(1000)))
    return Scenario(
        random_state(rng, d), random_hamiltonian(rng, d), (random_cset(rng, d, id="r"),), {"r": spec}
    )


def test_two_hops_reach_the_state_and_layout_of_one_hop():
    for seed in range(50):
        s0 = SystemUnderObservation.from_scenario(_driven_random_scenario(seed))
        hopped, direct = advance(advance(s0, 0.3), 2.5), advance(s0, 2.5)
        assert np.array_equal(hopped.state.amplitudes, direct.state.amplitudes), seed
        assert dump_partition(hopped.partition("r")) == dump_partition(direct.partition("r")), seed


def test_hops_reach_the_trajectorys_window_layout():
    for seed in range(50):
        scenario = _driven_random_scenario(seed)
        sys = SystemUnderObservation.from_scenario(scenario)
        for u in (0.3, 0.7, 1.2, 2.5):
            sys = advance(sys, u)
        expect = scenario.build_trajectory("r", 3).partition(2)
        assert dump_partition(sys.partition("r")) == dump_partition(expect), seed


def test_measure_rebuilds_all_partitions():
    sys = start_qubit(csets=(sigma_z_set(), sigma_x_set()))
    rec, after = measure(sys, "sz", 0.3)
    zpart = after.partitions["sz"]
    xpart = after.partitions["sx"]
    assert zpart.lo == 0.3 and zpart.hi == 1.0
    assert xpart.lo == 0.3 and xpart.hi == 1.0
    # collapsed onto |0>: certain in z, balanced in x, over the remaining span
    assert interval_measure(zpart, rec.outcome_index) == pytest.approx(0.7, abs=1e-12)
    assert interval_measure(xpart, 0) == pytest.approx(0.35, abs=1e-12)


def test_measure_on_window_boundary_starts_next_window():
    rec, after = measure(start_qubit(state=(0.6, 0.8)), "sz", 1.0)
    part = after.partitions["sz"]
    assert part.window_index == 1
    assert (part.lo, part.hi) == (1.0, 2.0)


def test_start_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions must agree"):
        start_qubit(state=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="dimensions must agree"):
        start_qubit(H=Hamiltonian(np.zeros((3, 3))))


def test_measure_unknown_set_rejected():
    with pytest.raises(ValueError, match="no commuting set"):
        measure(start_qubit(), "sy", 0.5)


def test_measure_is_deterministic():
    a1, s1 = measure(start_qubit(state=(0.6, 0.8), H=RABI), "sz", 0.8)
    a2, s2 = measure(start_qubit(state=(0.6, 0.8), H=RABI), "sz", 0.8)
    assert a1.outcome_index == a2.outcome_index
    assert np.array_equal(s1.state.amplitudes, s2.state.amplitudes)
    assert dump_partition(s1.partitions["sz"]) == dump_partition(s2.partitions["sz"])


def test_measurement_operator_examples():
    sys = start_qubit(state=(0.6, 0.8))
    part = sys.partitions["sz"]
    sz = sigma_z_set()
    state = make_state([0.6, 0.8])
    # u in label 1's region: coefficient 0.8 on |1>
    out = measurement_operator_apply(state, part, sz, 0.5)
    np.testing.assert_allclose(out, [0.0, 0.8], atol=1e-15)
    # u in label 0's region: 0.6 on |0>
    out0 = measurement_operator_apply(state, part, sz, 0.2)
    np.testing.assert_allclose(out0, [0.6, 0.0], atol=1e-15)
    # eigenvector input comes back unchanged
    basis_in = make_state([0.0, 1.0])
    np.testing.assert_allclose(
        measurement_operator_apply(basis_in, part, sz, 0.5), [0.0, 1.0], atol=1e-15
    )


def test_measurement_operator_projector_structure():
    sys = start_qubit(state=(0.6, 0.8))
    part = sys.partitions["sz"]
    sz = sigma_z_set()
    state = make_state([0.6, 0.8])
    once = measurement_operator_apply(state, part, sz, 0.5)
    # applying again multiplies by the same coefficient once more
    twice = measurement_operator_apply(make_state(list(once / np.linalg.norm(once))), part, sz, 0.5)
    np.testing.assert_allclose(twice, [0.0, 1.0], atol=1e-15)


def test_statistical_born_recovery_through_measure():
    # frequencies over uniformly random measurement times match measures
    rng = np.random.default_rng(77)
    sys = start_qubit(state=(0.6, 0.8))
    n = 4000
    hits = 0
    for u in 1.0 - rng.random(n):
        rec, _ = measure(sys, "sz", float(u))
        hits += rec.outcome_index == 0
    se = math.sqrt(0.36 * 0.64 / n)
    assert abs(hits / n - 0.36) <= 4 * se


def test_sequential_conserved_repeat_always_agrees():
    sc = Scenario(
        state0=make_state([0.6, 0.8]),
        hamiltonian=H0,
        csets=(sigma_z_set(),),
        schedulers={},
    )
    dist = sequential_experiment(sc, [("sz", 0.5), ("sz", 1.5)], n_runs=300, seed=15)
    for key in dist.counts:
        assert key[0] == key[1]


def _haar_qubit_scenario():
    # H = 0 conserves both sets; collapsing onto a column of the Haar basis
    # leaves a sub-ulp sliver in that set's window-0 base layout.
    r = CommutingSet(
        id="r",
        basis=haar_unitary(np.random.default_rng(0), 2),
        labels=((0,), (1,)),
        eigenvalues=((1.0,), (-1.0,)),
    )
    return Scenario(
        state0=make_state([1.0, 0.0]), hamiltonian=H0, csets=(sigma_z_set(), r), schedulers={}
    )


def test_conserved_measure_then_cross_window_same_set():
    dist = sequential_experiment(_haar_qubit_scenario(), [("r", 0.5), ("r", 1.5)], 50, 1)
    assert dist.total == 50
    for key in dist.counts:
        assert key[0] == key[1]  # H = 0: the second read repeats the first


def test_conserved_measure_then_cross_window_other_set():
    dist = sequential_experiment(_haar_qubit_scenario(), [("r", 0.5), ("sz", 1.5)], 50, 1)
    assert dist.total == 50


def test_nearly_conserved_set_keeps_born_measures_in_a_late_window():
    # Coupling 9e-11 passes is_conserved, but by window 5000 the weights have
    # drifted by 4.5e-7; shifting window 0's layout would keep 0.5.
    h = Hamiltonian(np.array([[0.0, 9e-11], [9e-11, 0.0]]))
    sys = advance(start_qubit((1.0, 1j), H=h), 5000.5)
    p = born_probabilities(sys.span.state, sigma_z_set())
    for k in range(2):
        assert abs(interval_measure(sys.partition("sz"), k) - p[k]) <= 1e-9
    # Window 2, where the drift bound 2 d eps n is below MEASURE_TOL, still
    # shifts window 0.
    early = advance(start_qubit((1.0, 1j), H=h), 2.5).partition("sz")
    base = start_qubit((1.0, 1j), H=h).partition("sz")
    assert np.array_equal(early.bounds, base.bounds + 2)
    assert np.array_equal(early.probabilities, base.probabilities)


@pytest.mark.parametrize("n", [2, 25])
def test_a_sound_shifted_window_is_the_trajectorys_window(n):
    # 2 d eps n <= MEASURE_TOL holds up to window 25 for d = 2, eps = 1e-11,
    # so a 40-window trajectory shifts window 0 there, as the protocol does.
    sc = Scenario(
        make_state([0.6, 0.8]),
        Hamiltonian(np.array([[0.0, 1e-11], [1e-11, 0.0]])),
        (sigma_z_set(),),
        {"sz": SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=4)},
    )
    got = advance(SystemUnderObservation.from_scenario(sc), n + 0.5).partition("sz")
    want = sc.build_trajectory("sz", 40).partition(n)
    assert (got.window_index, got.lo, got.hi) == (want.window_index, want.lo, want.hi)
    for name in ("bounds", "labels", "probabilities"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_sequential_order_dependence_against_enumeration():
    sz, sx = sigma_z_set(), sigma_x_set()
    sc = Scenario(
        state0=make_state([1.0, 0.0]),
        hamiltonian=H0,
        csets=(sz, sx),
        schedulers={},
    )
    n = 4000
    zx = sequential_experiment(sc, [("sz", 0.5), ("sx", 1.5)], n_runs=n, seed=31)
    xz = sequential_experiment(sc, [("sx", 0.5), ("sz", 1.5)], n_runs=n, seed=32)
    # enumeration over interval measures: z first is certain (+), then x is
    # balanced; x first is balanced, then z balanced whatever came out
    p_zx = {((0,), (0,)): 0.5, ((0,), (1,)): 0.5}
    p_xz = {(a, b): 0.25 for a in [(0,), (1,)] for b in [(0,), (1,)]}
    tv_oracle = 0.5 * (
        sum(abs(p_zx.get(k, 0) - p_xz.get((k[1], k[0]), 0)) for k in set(p_zx) | {(b, a) for a, b in p_xz})
    )
    assert tv_oracle == 0.5
    tv = total_variation(zx, xz, reorder=(1, 0))
    # delta method: quarter of the summed binomial variances on both sides
    var = (2 * 0.5 * 0.5 / n + 4 * 0.25 * 0.75 / n) / 4
    assert abs(tv - tv_oracle) <= 3 * math.sqrt(var)


def test_sequential_single_step_matches_sample_born():
    sc = Scenario(
        state0=make_state([0.6, 0.8]),
        hamiltonian=H0,
        csets=(sigma_z_set(),),
        schedulers={},
    )
    n = 4000
    dist = sequential_experiment(sc, [("sz", 0.5)], n_runs=n, seed=8)
    traj = sc.build_trajectory(None, 2)
    born = sample_born(traj, n, seed=9)
    f_seq = dist.frequency(((0,),))
    se = math.sqrt(0.36 * 0.64 / n)
    assert abs(f_seq - 0.36) <= 4 * se
    assert abs(born.estimate(0) - 0.36) <= 4 * se


def test_sequential_guards():
    sc = Scenario(
        state0=make_state([1.0, 0.0]), hamiltonian=H0, csets=(sigma_z_set(),), schedulers={}
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        sequential_experiment(sc, [("sz", 1.5), ("sz", 0.5)], 10, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        sequential_experiment(sc, [], 10, seed=0)
    with pytest.raises(ValueError, match="positive"):
        sequential_experiment(sc, [("sz", 0.0)], 10, seed=0)


def test_log_and_distribution_formats():
    sc = Scenario(
        state0=make_state([0.6, 0.8]), hamiltonian=H0, csets=(sigma_z_set(),), schedulers={}
    )
    sys = SystemUnderObservation.from_scenario(sc)
    rec, _ = measure(sys, "sz", 0.5)
    log = format_measurement_log([[rec]])
    lines = log.strip().splitlines()
    assert lines[0] == "run_id,step,u,csco_id,outcome_label,eigenvalues"
    assert lines[1].startswith("0,0,0.5,sz,")

    dist = sequential_experiment(sc, [("sz", 0.5)], n_runs=50, seed=3)
    text = format_sequence_distribution(dist)
    assert text.splitlines()[0] == "sequence,count,frequency"
    total = sum(int(ln.split(",")[1]) for ln in text.strip().splitlines()[1:])
    assert total == 50


@pytest.mark.parametrize("u", [np.float64(0.5), np.float32(0.5), np.int64(2), 2], ids=repr)
def test_measure_and_advance_keep_times_as_floats(u):
    # A numpy time used to be kept as given, so the log read np.float64(0.5).
    sc = Scenario(
        state0=make_state([0.6, 0.8]), hamiltonian=RABI, csets=(sigma_z_set(),), schedulers={}
    )
    sys = SystemUnderObservation.from_scenario(sc)
    moved = advance(sys, u)
    assert type(moved.current_time) is float and moved.current_time == float(u)
    rec, after = measure(sys, "sz", u)
    assert type(rec.time) is float and type(after.current_time) is float
    assert format_measurement_log([[rec]]).splitlines()[1].startswith(f"0,0,{float(u)!r},sz,")
    same, _ = measure(sys, "sz", float(u))
    assert format_measurement_log([[rec]]) == format_measurement_log([[same]])


def test_measure_keeps_a_python_float_time_as_the_same_object():
    sys = start_qubit(state=(0.6, 0.8))
    u = 0.1 + 0.2
    rec, after = measure(sys, "sz", u)
    assert rec.time is u and after.current_time is u and advance(sys, u).current_time is u


@pytest.mark.parametrize(
    "sequence",
    [[("sz", math.inf)], [("sz", -math.inf)], [("sz", math.nan)], [("sz", 0.5), ("sz", math.inf)]],
    ids=repr,
)
def test_sequence_records_rejects_non_finite_times(sequence):
    scenario = Scenario(make_state([1.0, 0.0]), RABI, (sigma_z_set(),), {})
    with pytest.raises(ValueError, match="must be finite"):
        sequence_records(scenario, sequence, 1, 0)


def test_sequence_records_rejects_a_non_integer_run_count_at_call_time():
    # 2.5 and nan passed `n_runs < 1` and failed in range() at the first run.
    scenario = Scenario(make_state([1.0, 0.0]), RABI, (sigma_z_set(),), {})
    for n_runs in (2.5, math.nan, math.inf, 3.0, "3", None, True):
        with pytest.raises(ValueError, match=rf"^n_runs must be an integer, got {re.escape(repr(n_runs))}$"):
            sequence_records(scenario, [("sz", 0.5)], n_runs, 0)
    for n_runs in (0, -1):
        with pytest.raises(ValueError, match=rf"^n_runs must be an integer of at least 1, got {n_runs}$"):
            sequence_records(scenario, [("sz", 0.5)], n_runs, 0)
    # numpy integers are integers, and give the runs a Python int gives.
    want = [s.history[0].outcome_index for s in sequence_records(scenario, [("sz", 0.5)], 4, 2)]
    got = [s.history[0].outcome_index for s in sequence_records(scenario, [("sz", 0.5)], np.int64(4), 2)]
    assert got == want and len(got) == 4


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed, instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("u", [math.inf, math.nan], ids=repr)
def test_advance_and_measure_reject_a_non_finite_time(u):
    sys = advance(start_qubit(H=RABI), 0.5)
    for call in (lambda: advance(sys, u), lambda: measure(sys, "sz", u)):
        with _deadline(5), pytest.raises(ValueError, match=re.escape(f"non-finite time {u!r}")):
            call()


@pytest.mark.parametrize("u", ["0.5", None, 1j, True, np.complex128(0.5), np.complex64(0.5)], ids=repr)
def test_advance_and_measure_reject_a_time_that_is_not_a_real_number(u):
    # math.isfinite let a TypeError escape for the first three and took a
    # numpy complex as its real part; a bool is no time either.
    sys = start_qubit(H=RABI)
    for call in (lambda: advance(sys, u), lambda: measure(sys, "sz", u)):
        with pytest.raises(ValueError, match=re.escape(f"non-finite time {u!r}")):
            call()


@pytest.mark.parametrize("u", ["0.5", None, 1j, True, np.complex128(0.5)], ids=repr)
def test_sequence_records_rejects_a_time_that_is_not_a_real_number(u):
    scenario = Scenario(make_state([1.0, 0.0]), RABI, (sigma_z_set(),), {})
    for sequence in ([("sz", u)], [("sz", 0.25), ("sz", u)]):
        with pytest.raises(ValueError, match="^measurement times must be finite real numbers"):
            sequence_records(scenario, sequence, 1, 0)


# A reorder that is not iterable let "'int' object is not iterable" escape.
@pytest.mark.parametrize("reorder", [(1,), (0, 0), (0, 1, 2), (), (0, 1.0), (0, True), ("0", "1"), 5, 1.5], ids=repr)
def test_total_variation_refuses_a_reorder_that_is_no_permutation(reorder):
    one = SequenceDistribution(steps=("sz",), counts={((0,),): 3}, total=3)
    two = SequenceDistribution(steps=("sz", "sx"), counts={((0,), (1,)): 1, ((0,), (0,)): 1}, total=2)
    b = one if reorder == (1,) else two
    with pytest.raises(ValueError, match=re.escape(f"reorder must be a permutation of range({len(b.steps)})")):
        total_variation(b, b, reorder=reorder)


# Each of these was accepted, and the empty one made frequency() divide by 0.
@pytest.mark.parametrize("counts,total,message", [
    ({}, 0, "total must be an integer of at least 1, got 0"),
    ({((0,),): 3, ((1,),): -2}, 1, "count must be an integer of at least 0, got -2"),
    ({((0,),): 1.5, ((1,),): -0.5}, 1, "count must be an integer, got 1.5"),
    ({((0,),): 1}, True, "total must be an integer, got True"),
], ids=repr)
def test_sequence_distribution_refuses_counts_no_run_produces(counts, total, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        SequenceDistribution(steps=("sz",), counts=counts, total=total)


def test_total_variation_accepts_every_permutation_numpy_integers_included():
    a = SequenceDistribution(steps=("sz", "sx"), counts={((0,), (1,)): 1, ((0,), (0,)): 3}, total=4)
    b = SequenceDistribution(steps=("sx", "sz"), counts={((1,), (0,)): 1, ((0,), (0,)): 3}, total=4)
    assert total_variation(a, b, reorder=(1, 0)) == 0.0
    assert total_variation(a, b, reorder=np.array([1, 0])) == 0.0
    assert total_variation(a, b, reorder=(0, 1)) == 0.25
    assert total_variation(a, a) == 0.0


@pytest.mark.parametrize("u", [0.4, 1.0])
def test_measure_rejects_a_second_measurement_at_the_same_instant(u):
    sys = start_qubit(state=(0.6, 0.8), H=RABI, csets=(sigma_z_set(), sigma_x_set()))
    _, after = measure(sys, "sz", u)
    message = f"cannot measure 'sx' at u = {u!r}: 'sz' was measured at that instant"
    with pytest.raises(ValueError, match=re.escape(message)):
        measure(after, "sx", u)
    with pytest.raises(ValueError, match=re.escape(message.replace("'sx'", "'sz'", 1))):
        measure(after, "sz", u)
    later, _ = measure(after, "sx", u + 0.25)
    assert later.time == u + 0.25 and later.cset_id == "sx"


def test_window_layout_from_born_weights_ends_on_the_window_end():
    # The last weight, ~1e-18, is below half an ulp of 1: the partial sums of
    # the others rounded to 1.0000000000000002, which became the last bound.
    s = make_state([
        -0.4927687948123542 + 2.187981864530712j,
        0.385483933892715 + 0.6864987964126616j,
        1.252592533070883 - 0.36446034394198246j,
        0.6679124924998421 + 0.7526967264568842j,
        1.1767172522293345e-09,
    ])
    z = CommutingSet("z", np.eye(5), [(k,) for k in range(5)], [(float(k),) for k in range(5)])
    h = Hamiltonian(np.zeros((5, 5)))
    scenario = Scenario(state0=s, hamiltonian=h, csets=(z,), schedulers={})
    part = SystemUnderObservation.from_scenario(scenario).partition("z")
    assert part.bounds[-1] == 1.0
    assert check_partition(part) <= 1e-15
    dump = dump_trajectory(trajectory(s, h, z, SchedulerSpec(), 1))
    assert "1.0000000000000002" not in dump
    assert dump.splitlines()[-1] == "0,3,0.878932828562821,1.0,3.0"


def test_sequence_distribution_computes_frequencies_once():
    counts = {((0,), (1,)): 2, ((1,), (1,)): 5}
    dist = SequenceDistribution(steps=("sz", "sx"), counts=counts, total=7)
    assert dist.frequencies is dist.frequencies
    assert dist.frequencies == {k: c / 7 for k, c in counts.items()}


def test_measurement_leaves_every_layout_decision_to_microstate():
    # One function lays out every window and remainder; the protocol calls it.
    # build_partition alone may be imported, unused, for perfbench's tracer test.
    source = Path(__file__).resolve().parent.parent / "src" / "qergo" / "measurement.py"
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            imported.add(node.asname or node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    rules = {"build_partition", "build_partition_span", "periodic_extend", "shift_is_sound"}
    assert not used & rules
    assert imported & rules <= {"build_partition"}
    assert "span_partition" in used


def test_every_protocol_step_starts_from_a_span_state():
    # A snapshot is its span and its clock: the state at u is derived, and
    # every evolution in the protocol runs from a span's frozen state.
    source = Path(__file__).resolve().parent.parent / "src" / "qergo" / "measurement.py"
    calls = [
        node
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "evolve"
    ]
    assert calls
    for call in calls:
        first = call.args[0]
        assert isinstance(first, ast.Attribute) and first.attr == "state", ast.unparse(call)
        assert ast.unparse(first.value).split(".")[-1] == "span", ast.unparse(call)
    assert "state" not in {f.name for f in dataclasses.fields(SystemUnderObservation)}
