"""A measurement step builds only the record and the snapshot it returns.

``measure`` crosses to its time without building the intermediate snapshot
``advance`` would return, and builds its four objects (the record, the
snapshot after the collapse, its span and its layout base) without their
frozen ``__init__``.  These tests hold it to the two-snapshot formulation it
replaced, kept below as a reference: the same records, the same snapshots,
the same layouts read afterwards, field by field.
"""

import dataclasses
import math

import numpy as np
import pytest

import qergo.measurement as measurement
from qergo.hilbert import evolve
from qergo.measurement import (
    MeasurementRecord,
    Span,
    SystemUnderObservation,
    advance,
    measure,
    sequence_records,
    sequential_experiment,
)
from qergo.microstate import LayoutBase, Scenario
from qergo.partition import SchedulerSpec, active_label
from qergo.testing import random_cset, random_hamiltonian, random_state

SCHEDULERS = {
    "contiguous": SchedulerSpec(),
    "two-outcome": SchedulerSpec(kind="two-outcome", offset=0.3),
    "seeded-random": SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=7),
}


def _reference_advance(sys, u_target):
    """``advance`` as it was when ``measure`` called it: one snapshot per hop."""
    if not math.isfinite(u_target):
        raise ValueError(f"cannot advance to a non-finite time {u_target!r}")
    if u_target < sys.current_time:
        raise ValueError(f"cannot advance backward: current u = {sys.current_time}, target {u_target}")
    if u_target == sys.current_time:
        return sys
    u_target = float(u_target)
    h, span, renorms = sys.scenario.hamiltonian, sys.span, sys.renorm_events
    while u_target > span.hi:
        state = evolve(span.state, h, span.hi - span.lo)
        renorms += int(state.renormalized)
        span = Span(state, span.hi, span.base)
    return SystemUnderObservation(sys.scenario, u_target, span, sys.history, renorms)


def _reference_measure(sys, cset_id, u):
    """The two-snapshot ``measure``: advance to ``u``, then collapse from that snapshot."""
    last = sys.history[-1] if sys.history else None
    if last is not None and last.time == u == sys.current_time:
        raise ValueError(f"cannot measure {cset_id!r} at u = {u!r}")
    here, u = _reference_advance(sys, u), float(u)
    c = here.cset(cset_id)
    idx = active_label(here.partition(cset_id), u)
    post = c.eigenstates[idx]
    record = MeasurementRecord(u, cset_id, idx, c.labels[idx], c.eigenvalues[idx], post)
    after = SystemUnderObservation(
        here.scenario, u, Span(post, u, LayoutBase(post)), here.history + (record,), here.renorm_events
    )
    return record, after


def _scenario(rng, d, kind):
    csets = tuple(random_cset(rng, d, id=cid) for cid in ("ca", "cb"))
    return Scenario(
        state0=random_state(rng, d),
        hamiltonian=random_hamiltonian(rng, d),
        csets=csets,
        schedulers={"ca": SCHEDULERS[kind], "cb": SCHEDULERS["seeded-random"]},
    )


def _times(rng):
    """Strictly increasing times: a window boundary, two reads in one window, random ones."""
    fixed = [0.35, 1.0, 1.2, 1.7, 3.0, 3.5]
    extra = sorted(rng.uniform(3.6, 7.0, 4))
    return fixed + [float(u) for u in extra]


def _assert_same_state(got, want):
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert got.renormalized == want.renormalized


def _assert_same_record(got, want):
    assert type(got) is MeasurementRecord
    assert type(got.time) is float and got.time == want.time
    assert (got.cset_id, got.outcome_index) == (want.cset_id, want.outcome_index)
    assert (got.outcome_label, got.outcome_eigenvalues) == (want.outcome_label, want.outcome_eigenvalues)
    assert got.post_state is want.post_state


def _assert_same_snapshot(got, want):
    # Compared before any cached read, so both hold exactly their fields.
    for obj, ref in ((got, want), (got.span, want.span), (got.span.base, want.span.base)):
        assert type(obj) is type(ref) and set(vars(obj)) == set(vars(ref))
    assert got.scenario is want.scenario
    assert type(got.current_time) is float and got.current_time == want.current_time
    assert got.renorm_events == want.renorm_events
    assert len(got.history) == len(want.history)
    for g, w in zip(got.history, want.history):
        _assert_same_record(g, w)
    assert (got.span.lo, got.span.hi) == (want.span.lo, want.span.hi)
    assert type(got.span.hi) is float
    _assert_same_state(got.span.state, want.span.state)
    _assert_same_state(got.span.base.state, want.span.base.state)
    assert set(got.span.built) == set(want.span.built)
    assert set(got.span.base.layouts) == set(want.span.base.layouts)


def _assert_same_partition(got, want):
    assert (got.window_index, got.lo, got.hi) == (want.window_index, want.lo, want.hi)
    for name in ("bounds", "labels", "probabilities"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_measure_matches_the_two_snapshot_reference(kind, d):
    rng = np.random.default_rng(500 + 10 * d + len(kind))
    for _ in range(3):
        scenario = _scenario(rng, d, kind)
        got = want = SystemUnderObservation.from_scenario(scenario)
        for i, u in enumerate(_times(rng)):
            cid = ("ca", "cb")[int(rng.integers(2))]
            if i % 3 == 2:  # a hop first, so the step starts from an advanced snapshot
                hop = (u + max(got.current_time, math.floor(u))) / 2
                got, want = advance(got, hop), _reference_advance(want, hop)
                _assert_same_snapshot(got, want)
                _assert_same_state(got.state, want.state)
            rec, got = measure(got, cid, u)
            ref, want = _reference_measure(want, cid, u)
            _assert_same_record(rec, ref)
            _assert_same_snapshot(got, want)
            assert got.span.built == {} and got.span.base.layouts == {}
            for c in scenario.csets:
                _assert_same_partition(got.partition(c.id), want.partition(c.id))
            _assert_same_state(got.state, want.state)


def test_measure_never_calls_advance(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("measure called advance")

    rng = np.random.default_rng(77)
    scenario = _scenario(rng, 3, "two-outcome")
    want = list(sequence_records(scenario, [("ca", 0.5), ("cb", 1.2), ("ca", 1.6), ("cb", 3.0)], 20, 4))
    monkeypatch.setattr(measurement, "advance", refuse)
    sys = SystemUnderObservation.from_scenario(scenario)
    for cid, u in (("ca", 0.5), ("cb", 1.0), ("cb", 1.4), ("ca", 2.9)):
        _, sys = measure(sys, cid, u)
    got = list(sequence_records(scenario, [("ca", 0.5), ("cb", 1.2), ("ca", 1.6), ("cb", 3.0)], 20, 4))
    for g, w in zip(got, want, strict=True):
        for a, b in zip(g.history, w.history, strict=True):
            _assert_same_record(a, b)


def test_objects_a_step_builds_stay_frozen():
    rng = np.random.default_rng(78)
    sys = SystemUnderObservation.from_scenario(_scenario(rng, 2, "contiguous"))
    rec, after = measure(sys, "ca", 1.5)
    crossed = advance(after, 3.5).span  # the spans of windows 2 and 3 are built on the way
    for obj, name in (
        (rec, "time"), (rec, "post_state"), (after, "current_time"), (after, "span"),
        (after.span, "lo"), (after.span, "hi"), (after.span, "built"),
        (after.span.base, "state"), (after.span.base, "layouts"), (crossed, "hi"), (crossed, "built"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert after.span.hi == 2.0 and after.span.lo == 1.5 and after.span.base.state is rec.post_state
    assert (crossed.lo, crossed.hi) == (3.0, 4.0) and crossed.base is after.span.base


def test_two_spans_never_share_a_built_or_layouts_dict():
    rng = np.random.default_rng(79)
    scenario = _scenario(rng, 3, "seeded-random")
    sys = SystemUnderObservation.from_scenario(scenario)
    spans, bases = [sys.span], [sys.span.base]
    for cid, u in (("ca", 0.4), ("cb", 0.9), ("ca", 2.0), ("cb", 2.0 + 1e-9), ("ca", 4.5)):
        sys = advance(sys, u - 1e-12)
        spans.append(sys.span)
        _, sys = measure(sys, cid, u)
        spans.append(sys.span)
        bases.append(sys.span.base)
        sys.partition("ca"), sys.partition("cb")
    # Kept alive above, so no id is reused: each span and base owns its dict.
    spans = list({id(s): s for s in spans}.values())
    assert len({id(s.built) for s in spans}) == len(spans) > 5
    assert len({id(b.layouts) for b in bases}) == len(bases) == 6
    # A step's snapshots share their span's dict; a later step does not.
    rec, after = measure(sys, "cb", 5.5)
    assert after.span.built is not sys.span.built and after.span.base is not sys.span.base


def test_sequential_experiment_is_unchanged_by_a_lean_step(monkeypatch):
    rng = np.random.default_rng(80)
    scenario = _scenario(rng, 4, "seeded-random")
    steps = [("ca", 0.4), ("cb", 1.3), ("ca", 1.8), ("cb", 2.6)]
    got = sequential_experiment(scenario, steps, 200, 12)
    monkeypatch.setattr(measurement, "measure", _reference_measure)
    want = sequential_experiment(scenario, steps, 200, 12)
    assert got.counts == want.counts and list(got.counts) == list(want.counts)
