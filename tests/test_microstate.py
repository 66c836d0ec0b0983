import ast
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qergo import microstate, partition
from qergo.ergodic import window_average_value
from qergo.hilbert import (
    CONSERVED_TOL,
    CommutingSet,
    Hamiltonian,
    QuantumState,
    born_probabilities,
    evolve,
    expectation,
    is_conserved,
    make_state,
    off_diagonal_norm,
)
from qergo.microstate import (
    MAX_WINDOWS,
    JumpTrajectory,
    Scenario,
    apply_value_operator,
    dump_trajectory,
    microstate_at,
    shift_is_sound,
    trajectory,
    value_function,
)
from qergo.partition import (
    SchedulerSpec,
    WindowPartition,
    build_partition,
    check_partition,
    interval_measure,
    periodic_extend,
    step_function,
)
from qergo.testing import (
    random_cset,
    random_hamiltonian,
    random_probabilities,
    random_state,
    sigma_z_set,
)

TWO_OUTCOME = SchedulerSpec(kind="two-outcome", offset=0.3)


def two_outcome_partition(window=0):
    return build_partition([0.4, 0.6], window, TWO_OUTCOME)


def valued_set(v0=2.0, v1=-3.0):
    return CommutingSet(
        id="vals", basis=np.eye(2), labels=((0,), (1,)), eigenvalues=((v0,), (v1,))
    )


def test_microstate_certain_outcome():
    p = build_partition([1.0, 0.0], 0, SchedulerSpec())
    sz = sigma_z_set()
    for u in [0.2, 0.9, 1.0]:
        snap = microstate_at(p, sz, u)
        assert snap.label_index == 0
        assert np.array_equal(snap.basis_vector, np.array([1.0, 0.0], dtype=complex))


def test_microstate_in_two_outcome_layout():
    snap = microstate_at(two_outcome_partition(), sigma_z_set(), 0.5)
    assert snap.label_index == 0
    assert snap.label == (0,)
    edge = microstate_at(two_outcome_partition(), sigma_z_set(), 0.3)
    assert edge.label_index == 1


def test_microstate_overlap_equals_step_function():
    p = two_outcome_partition()
    sz = sigma_z_set()
    rng = np.random.default_rng(3)
    for u in 1.0 - rng.random(50):
        snap = microstate_at(p, sz, float(u))
        overlaps = [abs(np.vdot(sz.basis_vector(k), snap.basis_vector)) for k in range(2)]
        assert sum(overlaps) == pytest.approx(1.0, abs=1e-12)
        for k in range(2):
            assert overlaps[k] == pytest.approx(step_function(p, k, float(u)), abs=1e-12)


def test_value_function_piecewise_display():
    # over the three intervals the value steps v1, v0, v1
    p = two_outcome_partition()
    cs = valued_set()
    assert value_function(p, cs, 0, 0.1) == -3.0
    assert value_function(p, cs, 0, 0.5) == 2.0
    assert value_function(p, cs, 0, 0.9) == -3.0


def test_value_function_equals_step_weighted_sum():
    p = two_outcome_partition()
    cs = valued_set()
    rng = np.random.default_rng(8)
    for u in 1.0 - rng.random(200):
        u = float(u)
        brute = sum(
            step_function(p, k, u) * cs.eigenvalues[k][0] for k in range(cs.dimension)
        )
        assert value_function(p, cs, 0, u) == brute


def test_value_function_member_range():
    with pytest.raises(ValueError, match="member"):
        value_function(two_outcome_partition(), valued_set(), 1, 0.5)


# Every reader of a member index, on a two-member set: member 1 exists there,
# so a bool that stood in for it would go unnoticed.
MEMBER_READERS = {
    "member_values": lambda p, cs, m: cs.member_values(m),
    "expectation": lambda p, cs, m: expectation(make_state([0.6, 0.8]), cs, m),
    "value_function": lambda p, cs, m: value_function(p, cs, m, 0.5),
    "window_average_value": lambda p, cs, m: window_average_value(p, cs, m),
    "apply_value_operator-label0": lambda p, cs, m: apply_value_operator(p, cs, (0, 0), 0.5, m),
    "apply_value_operator-label1": lambda p, cs, m: apply_value_operator(p, cs, (1, 1), 0.5, m),
}


@pytest.mark.parametrize("member", [0.5, True])
@pytest.mark.parametrize("reader", sorted(MEMBER_READERS))
def test_member_must_be_an_integer(reader, member):
    cs = CommutingSet(
        id="pair", basis=np.eye(2), labels=((0, 0), (1, 1)), eigenvalues=((2.0, 5.0), (-3.0, 7.0))
    )
    with pytest.raises(ValueError, match=re.escape(f"member must be an integer, got {member!r}")):
        MEMBER_READERS[reader](two_outcome_partition(), cs, member)


@pytest.mark.parametrize("label", [0.5, 1.9, True, "1"], ids=repr)
def test_commuting_set_label_must_be_an_integer(label):
    # int() would turn each of these into a label the set has, 0 or 1.
    refused = re.escape(f"label must be an integer, got {label!r}")
    with pytest.raises(ValueError, match=refused):
        CommutingSet("x", np.eye(2), ((0,), (label,)), ((1.0,), (-1.0,)))
    cs = valued_set()
    for key in (label, (label,)):
        with pytest.raises(ValueError, match=refused):
            cs.label_index(key)
        with pytest.raises(ValueError, match=refused):
            apply_value_operator(two_outcome_partition(), cs, key, 0.5)


def test_apply_value_operator_active_and_annihilated():
    p = two_outcome_partition()
    cs = valued_set(3.0, -1.0)
    active = apply_value_operator(p, cs, (0,), 0.5)
    assert np.array_equal(active, 3.0 * np.array([1.0, 0.0], dtype=complex))
    gone = apply_value_operator(p, cs, (1,), 0.5)
    assert np.array_equal(gone, np.zeros(2, dtype=complex))


def test_apply_value_operator_eigenstate_property():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        cs = random_cset(rng, d)
        p = build_partition(
            random_probabilities(rng, d),
            0,
            SchedulerSpec(kind="seeded-random", max_subintervals=2, seed=int(rng.integers(1000))),
        )
        for u in 1.0 - rng.random(100):
            u = float(u)
            snap = microstate_at(p, cs, u)
            out = apply_value_operator(p, cs, snap.label, u)
            expected = value_function(p, cs, 0, u) * snap.basis_vector
            assert np.max(np.abs(out - expected)) <= 1e-12


def test_trajectory_tiles_exactly():
    rng = np.random.default_rng(23)
    s = random_state(rng, 3)
    H = random_hamiltonian(rng, 3)
    cs = random_cset(rng, 3)
    traj = trajectory(s, H, cs, SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=5), 6)
    assert traj.windows_covered == 6
    assert traj.events[0].interval.lo == 0.0
    assert traj.events[-1].interval.hi == 6.0
    for a, b in zip(traj.events, traj.events[1:]):
        assert a.interval.hi == b.interval.lo  # shared boundary floats, no gaps


def test_trajectory_measures_match_born_per_window():
    rng = np.random.default_rng(29)
    s = random_state(rng, 4)
    H = random_hamiltonian(rng, 4)
    cs = random_cset(rng, 4)
    traj = trajectory(s, H, cs, SchedulerSpec(), 5)
    psi = s
    for n in range(5):
        p_born = born_probabilities(psi, cs)
        for k in range(4):
            assert abs(interval_measure(traj.partition(n), k) - p_born[k]) <= 1e-9
        psi = evolve(psi, H, 1.0)


def test_trajectory_conserved_periodicity_exact():
    # H diagonal in the observable's basis: every window repeats window 0
    rng = np.random.default_rng(31)
    cs = random_cset(rng, 3)
    H = Hamiltonian((cs.basis * np.array([0.4, -1.1, 0.7])) @ cs.basis.conj().T)
    s = random_state(rng, 3)
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=77)
    traj = trajectory(s, H, cs, spec, 50)
    base = traj.partition(0)
    for n in range(50):
        part = traj.partition(n)
        assert len(part.segments) == len(base.segments)
        for (seg, k), (bseg, bk) in zip(part.segments, base.segments):
            assert k == bk
            assert seg.lo == bseg.lo + n and seg.hi == bseg.hi + n


def test_trajectory_rabi_against_closed_form():
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    traj = trajectory(make_state([1.0, 0.0]), H, sigma_z_set(), SchedulerSpec(), 60)
    for n in range(60):
        assert abs(interval_measure(traj.partition(n), 0) - np.cos(n / 2) ** 2) <= 1e-9


def test_trajectory_label_lookup():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 3
    )
    # contiguous stationary layout: label 0 on (n, n+0.36], label 1 after
    np.testing.assert_array_equal(traj.labels_at(np.array([0.2, 0.36, 0.37, 2.9])), [0, 0, 1, 1])
    np.testing.assert_array_equal(traj.labels_at(np.array([0.2, 1.5, 3.0])), [0, 1, 1])
    with pytest.raises(ValueError, match="windows_covered"):
        traj.labels_at(np.array([0.0]))
    with pytest.raises(ValueError, match="windows_covered"):
        traj.labels_at(np.array([0.5, 3.5]))


def test_stretch_counts_half_open_stretches():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 3
    )
    b = traj.bounds
    assert b.size == 7
    # a time on an interior bound counts in the earlier stretch; the last
    # covered instant counts in the last stretch
    np.testing.assert_array_equal(traj.stretch_counts(np.array([b[1]])), [1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(traj.stretch_counts(np.array([b[2]])), [0, 1, 0, 0, 0, 0])
    np.testing.assert_array_equal(traj.stretch_counts(np.array([3.0])), [0, 0, 0, 0, 0, 1])
    us = np.array([1e-300, 0.2, b[1], np.nextafter(b[1], 1.0), 1.0, 1.2, 1.5, 2.1, 2.9, 3.0, 3.0])
    counts = traj.stretch_counts(us)
    np.testing.assert_array_equal(counts, [3, 2, 1, 1, 1, 3])
    assert counts.sum() == us.size
    np.testing.assert_array_equal(np.repeat(traj.labels, counts), traj.labels_at(us))
    np.testing.assert_array_equal(traj.stretch_counts(np.array([])), np.zeros(6, dtype=np.intp))


def test_stretch_counts_rejects_unsorted_and_out_of_span_times():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 3
    )
    with pytest.raises(ValueError, match="sorted"):
        traj.stretch_counts(np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="sorted"):
        traj.stretch_counts(np.array([0.5, np.nan, 0.7]))
    for bad in ([0.0, 0.5], [-1.0, 0.5], [0.5, np.nextafter(3.0, 4.0)], [0.5, 3.5], [np.nan]):
        with pytest.raises(ValueError, match="windows_covered"):
            traj.stretch_counts(np.array(bad))


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
def test_stretch_counts_equal_per_read_search(kind):
    rng = np.random.default_rng(77)
    for trial in range(6):
        d = 2 + trial % 4
        cs = random_cset(rng, d)
        if trial % 2:
            h = random_hamiltonian(rng, d)
        else:  # diagonal in the set's basis: conserved, windows repeat
            h = Hamiltonian(cs.basis @ np.diag(rng.standard_normal(d)) @ cs.basis.conj().T)
        spec = SchedulerSpec(kind=kind, max_subintervals=3, seed=trial)
        traj = trajectory(random_state(rng, d), h, cs, spec, 1 + trial)
        us = np.sort(traj.windows_covered * (1.0 - rng.random(5000)))
        us = np.sort(np.concatenate((us, traj.bounds[1:])))
        S = traj.labels.size
        np.testing.assert_array_equal(
            traj.stretch_counts(us),
            np.bincount(traj.bounds[1:].searchsorted(us), minlength=S),
        )


def test_trajectory_guards():
    s = make_state([1.0, 0.0])
    H = Hamiltonian(np.zeros((2, 2)))
    for windows in (0, MAX_WINDOWS + 1):
        with pytest.raises(ValueError, match=rf"^windows must be an integer in \[1, {MAX_WINDOWS}\], got {windows}$"):
            trajectory(s, H, sigma_z_set(), SchedulerSpec(), windows)


@pytest.mark.parametrize("bad", [2.5, 3.0, float("nan"), np.float64(2.0), "3", True], ids=repr)
def test_trajectory_window_count_must_be_an_integer(bad):
    # 2.5 used to fail with a TypeError inside numpy's allocation, and so
    # did True, which passed the integer check unconverted.
    s = make_state([1.0, 0.0])
    H = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError, match=rf"^windows must be an integer, got {re.escape(repr(bad))}$"):
        trajectory(s, H, sigma_z_set(), SchedulerSpec(), bad)
    want = trajectory(s, H, sigma_z_set(), SchedulerSpec(), 3)
    got = trajectory(s, H, sigma_z_set(), SchedulerSpec(), np.int64(3))
    assert got.bounds.tobytes() == want.bounds.tobytes() and np.array_equal(got.labels, want.labels)


def test_dump_trajectory_format():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 2
    )
    lines = dump_trajectory(traj).strip().splitlines()
    assert lines[0] == "window,label,lo,hi,eigenvalues"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == 0.0
    assert float(first[3]) == pytest.approx(0.36, abs=1e-12)
    assert first[4] == "1.0"


def test_scenario_validation_and_build():
    s = make_state([1.0, 0.0])
    H = Hamiltonian(np.zeros((2, 2)))
    sz = sigma_z_set()
    sc = Scenario(state0=s, hamiltonian=H, csets=(sz,), schedulers={})
    traj = sc.build_trajectory(None, 2)
    assert traj.windows_covered == 2
    assert sc.cset("sz") is sz
    for missing in ("nope", ["sz"]):
        with pytest.raises(ValueError, match="no commuting set"):
            sc.cset(missing)
    with pytest.raises(ValueError, match="distinct"):
        Scenario(state0=s, hamiltonian=H, csets=(sz, sigma_z_set()), schedulers={})
    with pytest.raises(ValueError, match="dimension"):
        Scenario(state0=make_state([1.0, 0.0, 0.0]), hamiltonian=H, csets=(sz,), schedulers={})


@pytest.mark.parametrize(
    "schedulers,named",
    [
        ({"sZ": SchedulerSpec(kind="seeded-random", max_subintervals=3)}, "'sZ'"),
        ({"sz": "seeded-random"}, "'seeded-random'"),
        (None, "None"),
    ],
)
def test_scenario_refuses_a_scheduler_it_cannot_use(schedulers, named):
    s, H = make_state([1.0, 0.0]), Hamiltonian(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=re.escape(named)):
        Scenario(state0=s, hamiltonian=H, csets=(sigma_z_set(),), schedulers=schedulers)


def test_scenario_keeps_a_read_only_copy_of_its_schedulers():
    s, H = make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2)))
    schedulers = {"sz": TWO_OUTCOME}
    sc = Scenario(state0=s, hamiltonian=H, csets=(sigma_z_set(),), schedulers=schedulers)
    schedulers["sz"] = "seeded-random"  # after the checks: must not reach the scenario
    assert sc.scheduler_for("sz") is TWO_OUTCOME
    assert sc.build_trajectory("sz", 2).offsets.tolist() == [0, 3, 6]  # two-outcome: 3 stretches a window
    with pytest.raises(TypeError):
        sc.schedulers["sX"] = SchedulerSpec()
    assert dict(sc.schedulers) == {"sz": TWO_OUTCOME}
    # A scenario's own mapping passes the checks again.
    assert dataclasses.replace(sc, state0=make_state([1.0, 0.0])).scheduler_for("sz") is TWO_OUTCOME


def test_partitions_are_views_into_the_trajectory_arrays():
    rng = np.random.default_rng(37)
    traj = trajectory(
        random_state(rng, 4),
        random_hamiltonian(rng, 4),
        random_cset(rng, 4),
        SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=2),
        7,
    )
    assert traj.bounds.size == traj.labels.size + 1 == traj.offsets[-1] + 1
    assert traj.bounds[0] == 0.0 and traj.bounds[-1] == 7.0
    for a in (traj.bounds, traj.labels, traj.offsets):
        assert not a.flags.writeable
    for n in range(7):
        part = traj.partition(n)
        i, j = traj.offsets[n], traj.offsets[n + 1]
        assert (part.window_index, part.lo, part.hi) == (n, float(n), n + 1.0)
        assert np.shares_memory(part.bounds, traj.bounds)
        assert np.shares_memory(part.labels, traj.labels)
        assert np.shares_memory(part.probabilities, traj.probabilities)
        np.testing.assert_array_equal(part.bounds, traj.bounds[i:j + 1])
        assert part.bounds[0] == n and part.bounds[-1] == n + 1
    for n in (-1, 7):
        with pytest.raises(ValueError, match=rf"^window must be an integer in \[0, 6\], got {n}$"):
            traj.partition(n)
    # events are rebuilt from the arrays on every access
    assert traj.events is not traj.events
    assert [ev.label_index for ev in traj.events] == traj.labels.tolist()


def test_a_trajectory_constructs_one_partition_per_window(monkeypatch):
    # Every builder, the shift and the trajectory's accessor make their
    # partitions through partition._of, so it sees every construction; it is
    # replaced under each name that binds it in a qergo module.
    count = [0]
    make = partition._of

    def counted(cls, **fields):
        count[0] += cls is WindowPartition
        return make(cls, **fields)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qergo" and getattr(module, "_of", None) is make:
            monkeypatch.setattr(module, "_of", counted)
    rng = np.random.default_rng(38)
    for conserved in (False, True):
        cs = random_cset(rng, 3)
        if conserved:
            h = Hamiltonian((cs.basis * rng.standard_normal(3)) @ cs.basis.conj().T)
        else:
            h = random_hamiltonian(rng, 3)
        count[0] = 0
        traj = trajectory(random_state(rng, 3), h, cs, SchedulerSpec(), 25)
        assert count[0] == 25, conserved
        for n in range(25):
            traj.partition(n)
        assert count[0] == 50, conserved


@pytest.mark.parametrize("conserved", [False, True])
def test_a_trajectory_decides_and_weighs_each_window_once(monkeypatch, conserved):
    # One shift_is_sound per window, and one born_probabilities per built
    # window (a conserved set builds only window 0, from the initial state),
    # the batch of a seeded-random chunk included.
    calls = {"shift_is_sound": [], "born_probabilities": 0}
    sound, born = microstate.shift_is_sound, microstate.born_probabilities

    def counted_sound(h, c, n):
        calls["shift_is_sound"].append(n)
        return sound(h, c, n)

    def counted_born(state, c):
        calls["born_probabilities"] += 1
        return born(state, c)

    monkeypatch.setattr(microstate, "shift_is_sound", counted_sound)
    monkeypatch.setattr(microstate, "born_probabilities", counted_born)
    rng = np.random.default_rng(41)
    cs = random_cset(rng, 4)
    if conserved:
        h = Hamiltonian((cs.basis * rng.standard_normal(4)) @ cs.basis.conj().T)
    else:
        h = random_hamiltonian(rng, 4)
    windows = 150  # three chunks, the last one partial
    trajectory(random_state(rng, 4), h, cs, SchedulerSpec("seeded-random", 3, 5), windows)
    assert calls["shift_is_sound"] == list(range(windows))
    assert calls["born_probabilities"] == (1 if conserved else windows)


def test_a_trajectory_is_read_only_arrays():
    rng = np.random.default_rng(39)
    d, windows = 5, 9
    traj = trajectory(
        random_state(rng, d), random_hamiltonian(rng, d), random_cset(rng, d), SchedulerSpec(), windows
    )
    names = [f.name for f in dataclasses.fields(JumpTrajectory)]
    assert names == ["cset", "bounds", "labels", "offsets", "probabilities", "amplitudes", "renorm_events"]
    for name in names[1:-1]:
        a = getattr(traj, name)
        assert isinstance(a, np.ndarray) and not a.flags.writeable, name
    assert traj.probabilities.shape == traj.amplitudes.shape == (windows, d)
    assert traj.windows_covered == windows


def test_only_the_partition_accessor_constructs_window_partitions():
    # The trajectory stores arrays; a window's layout object is made on request.
    source = Path(__file__).resolve().parent.parent / "src" / "qergo" / "microstate.py"
    module = ast.parse(source.read_text(encoding="utf-8")).body
    defs = [(f.name, f) for f in module if isinstance(f, ast.FunctionDef)]
    defs += [
        (f"{c.name}.{f.name}", f)
        for c in module
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if isinstance(f, ast.FunctionDef)
    ]
    callers = [
        name
        for name, f in defs
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and "WindowPartition" in (
            getattr(node.func, "id", None),  # WindowPartition(...)
            getattr(getattr(node.func, "value", None), "id", None),  # WindowPartition.x(...)
            # _of(WindowPartition, ...)
            getattr(node.args[0], "id", None) if getattr(node.func, "id", None) == "_of" else None,
        )
    ]
    assert callers == ["JumpTrajectory.partition"]


# The per-window loop over the public steps, kept as the reference: build
# each window's partition from the Born weights of the state evolved with
# `evolve`, or shift window 0 when the set is conserved.
def _loop_trajectory(state0, hamiltonian, cset, scheduler, windows):
    conserved = is_conserved(hamiltonian, cset)
    states, partitions, renorms, psi = [state0], [], 0, state0
    for n in range(windows):
        if conserved and partitions:
            part = periodic_extend(partitions[0], n)
        else:
            part = build_partition(born_probabilities(psi, cset), n, scheduler)
        partitions.append(part)
        if n + 1 < windows:
            psi = evolve(psi, hamiltonian, 1.0)
            renorms += int(psi.renormalized)
            states.append(psi)
    return partitions, states, renorms


def _assert_matches_loop(traj, state0, hamiltonian, cset, scheduler, windows):
    partitions, states, renorms = _loop_trajectory(state0, hamiltonian, cset, scheduler, windows)
    bounds = np.concatenate([p.bounds[:-1] for p in partitions] + [partitions[-1].bounds[-1:]])
    assert np.array_equal(traj.bounds, bounds)
    assert np.array_equal(traj.labels, np.concatenate([p.labels for p in partitions]))
    assert traj.offsets.tolist() == np.cumsum([0] + [p.labels.size for p in partitions]).tolist()
    assert traj.windows_covered == windows
    for n, want in enumerate(partitions):
        got = traj.partition(n)
        assert (got.window_index, got.lo, got.hi) == (want.window_index, want.lo, want.hi)
        assert np.array_equal(got.probabilities, want.probabilities)
        assert np.array_equal(got.bounds, want.bounds)
        assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(traj.amplitudes, [state.amplitudes for state in states])
    assert traj.renorm_events == renorms


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
@pytest.mark.parametrize("d", [2, 3, 16])
@pytest.mark.parametrize("conserved", [False, True], ids=["driven", "conserved"])
def test_trajectory_equals_per_window_loop(kind, d, conserved):
    rng = np.random.default_rng(1000 * d + 10 * conserved + len(kind))
    cs = random_cset(rng, d)
    if conserved:  # diagonal in the set's basis, up to rounding
        h = Hamiltonian((cs.basis * rng.standard_normal(d)) @ cs.basis.conj().T)
    else:
        h = random_hamiltonian(rng, d)
    spec = SchedulerSpec(kind=kind, max_subintervals=4, seed=int(rng.integers(100)), offset=0.3)
    s = random_state(rng, d)
    windows = 150 if d < 16 else 60
    traj = trajectory(s, h, cs, spec, windows)
    _assert_matches_loop(traj, s, h, cs, spec, windows)
    # a conserved set takes the periodic branch, which repeats window 0's weights
    assert bool(np.all(traj.probabilities == traj.probabilities[0])) == conserved


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
def test_trajectory_equals_loop_when_every_step_renormalizes(kind, monkeypatch):
    # Natural runs never drift past NORM_TOL, so scale the propagator to make
    # every step take the renormalization branch, in the trajectory and the loop.
    exact = Hamiltonian.propagator
    monkeypatch.setattr(Hamiltonian, "propagator", lambda self, du: exact(self, du) * (1 + 1e-7))
    rng = np.random.default_rng(41)
    d, windows = 3, 40
    args = (random_state(rng, d), random_hamiltonian(rng, d), random_cset(rng, d))
    spec = SchedulerSpec(kind=kind, max_subintervals=3, seed=9)
    traj = trajectory(*args, spec, windows)
    assert traj.renorm_events == windows - 1
    _assert_matches_loop(traj, *args, spec, windows)


def test_nearly_conserved_trajectory_keeps_born_measures_over_a_long_horizon():
    # Off-diagonal coupling 9e-11 passes is_conserved, but over 10k windows
    # the weights drift by 9e-7; shifting window 0 would freeze them at 0.5.
    h = Hamiltonian(np.array([[0.0, 9e-11], [9e-11, 0.0]]))
    sz, s = sigma_z_set(), make_state([1.0, 1j])
    traj = trajectory(s, h, sz, SchedulerSpec(), 10_000)
    for n in (0, 2_000, 9_999):
        p = born_probabilities(QuantumState(traj.amplitudes[n]), sz)
        for k in range(2):
            assert abs(interval_measure(traj.partition(n), k) - p[k]) <= 1e-9
    # Over a horizon too short for the drift to show, window 0 still repeats.
    short = trajectory(s, h, sz, SchedulerSpec(), 3)
    for n in range(3):
        assert np.array_equal(short.partition(n).bounds, short.partition(0).bounds + n)
        assert short.probabilities[n].tobytes() == short.probabilities[0].tobytes()


def _weakly_coupled(d):
    """A state, an H that passes is_conserved but drifts, and a set, in dimension d."""
    if d == 2:
        h = Hamiltonian(np.array([[0.0, 1e-11], [1e-11, 0.0]]))
        return make_state([0.6, 0.8]), h, sigma_z_set()
    rng = np.random.default_rng(77)
    cs, h = random_cset(rng, d), random_hamiltonian(rng, d)
    h = Hamiltonian(h.matrix * (1e-11 / off_diagonal_norm(h, cs)))
    return random_state(rng, d), h, cs


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
@pytest.mark.parametrize("d", [2, 3])
def test_a_windows_layout_does_not_depend_on_how_many_windows_follow(kind, d):
    s, h, cs = _weakly_coupled(d)
    assert 0.0 < off_diagonal_norm(h, cs) <= CONSERVED_TOL
    sound = [shift_is_sound(h, cs, n) for n in range(40)]
    assert all(sound[:6]) and not sound[-1]  # the shift stops being sound in between
    spec = SchedulerSpec(kind=kind, max_subintervals=3, seed=4, offset=0.3)
    short, long = trajectory(s, h, cs, spec, 6), trajectory(s, h, cs, spec, 40)
    for n in range(6):
        a, b = short.partition(n), long.partition(n)
        for name in ("bounds", "labels", "probabilities"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    for traj in (short, long):
        base = traj.probabilities[0].tobytes()
        for n, row in enumerate(traj.probabilities):
            assert (row.tobytes() == base) == sound[n]


def test_a_negative_window_is_no_window_to_shift_to():
    # shift_is_sound(h, c, -5) was True for a conserved set.
    h = Hamiltonian(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^window_index must be an integer in \[0, 9007199254740991\], got -1$"):
        shift_is_sound(h, sigma_z_set(), -1)


@pytest.mark.parametrize("kind", ["contiguous", "two-outcome", "seeded-random"])
def test_every_partition_of_a_long_trajectory_passes_the_audit(kind):
    rng = np.random.default_rng(52)
    d = 4
    traj = trajectory(
        random_state(rng, d),
        random_hamiltonian(rng, d),
        random_cset(rng, d),
        SchedulerSpec(kind=kind, max_subintervals=3, seed=4, offset=0.6),
        2000,
    )
    assert max(check_partition(traj.partition(n)) for n in range(2000)) <= 1e-9


_MISMATCHED = [(3, 2, 2), (2, 3, 2), (2, 2, 3)]


# A single window has no step to catch a mismatch: window 0's layout must.
@pytest.mark.parametrize(
    "dims, windows",
    [pytest.param(d, 3, id=f"dims{i}") for i, d in enumerate(_MISMATCHED)]
    + [pytest.param(d, 1, id=f"dims{i}-windows1") for i, d in enumerate(_MISMATCHED)],
)
def test_trajectory_rejects_mismatched_dimensions(dims, windows):
    rng = np.random.default_rng(sum(dims))
    ds, dh, dc = dims
    with pytest.raises(ValueError, match="dimension mismatch"):
        trajectory(
            random_state(rng, ds), random_hamiltonian(rng, dh), random_cset(rng, dc),
            SchedulerSpec(), windows,
        )


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None], ids=repr)
def test_trajectory_window_must_be_an_integer(bad):
    # 1.5 used to raise numpy's bare IndexError, and True a TypeError.
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 3
    )
    with pytest.raises(ValueError, match=rf"^window must be an integer, got {re.escape(repr(bad))}$"):
        traj.partition(bad)
    assert traj.partition(np.int64(2)).window_index == 2


@pytest.mark.parametrize("excl", [4, 16])
def test_driven_seeded_random_trajectory_draws_no_layout_on_the_scalar_path(excl, monkeypatch):
    # Every window's layout comes from a batch; a batch key that missed
    # would send its window to the scalar draw.  A fresh spec's loop, which
    # draws every layout on the scalar path, is the reference.
    rng = np.random.default_rng(excl)
    s, h, cs = random_state(rng, 16), random_hamiltonian(rng, 16), random_cset(rng, 16)
    scalar = []
    draw = partition._seeded_random_layout
    monkeypatch.setattr(partition, "_seeded_random_layout", lambda *args: scalar.append(args) or draw(*args))
    traj = trajectory(s, h, cs, SchedulerSpec(kind="seeded-random", max_subintervals=excl, seed=6), 200)
    assert scalar == []
    monkeypatch.undo()
    _assert_matches_loop(traj, s, h, cs, SchedulerSpec(kind="seeded-random", max_subintervals=excl, seed=6), 200)


def test_labels_at_rejects_a_nan_time():
    traj = trajectory(
        make_state([0.6, 0.8]), Hamiltonian(np.zeros((2, 2))), sigma_z_set(), SchedulerSpec(), 3
    )
    with pytest.raises(ValueError, match=r"sample times must lie in \(0, windows_covered\]"):
        traj.labels_at([0.5, float("nan")])
