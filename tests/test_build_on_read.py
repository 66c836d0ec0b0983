"""Differential test: partitions built on read against the eager rules.

``Eager`` keeps every set's partition current at every step, rebuilding
all of them after each collapse and at each window crossing, and keeps the
window-0 base layout of every conserved set.  Its state at ``u``, and its
state at each boundary, are evolved from the state frozen at its span's
start (the window start or the last collapse).  ``SystemUnderObservation``
builds a partition only when it is read; both must agree bit for bit at
every snapshot of random measure/advance sequences.
"""

import math

import numpy as np
import pytest

from qergo.hilbert import (
    CommutingSet,
    QuantumState,
    born_probabilities,
    evolve,
    is_conserved,
)
from qergo.measurement import SystemUnderObservation, advance, measure
from qergo.microstate import Scenario
from qergo.partition import (
    SchedulerSpec,
    active_label,
    build_partition,
    build_partition_span,
    check_partition,
    dump_partition,
    periodic_extend,
)
from qergo.testing import random_cset, random_hamiltonian, random_state


class Eager:
    """Reference protocol that rebuilds every partition eagerly."""

    def __init__(self, state, hamiltonian, csets, schedulers):
        self.origin, self.hamiltonian, self.csets = state, hamiltonian, csets
        self.schedulers = schedulers
        self.u = self.lo = 0.0
        self.partitions = {
            c.id: build_partition(born_probabilities(state, c), 0, self.spec(c.id)) for c in csets
        }
        self.bases = {
            c.id: self.partitions[c.id] for c in csets if is_conserved(hamiltonian, c)
        }

    @property
    def state(self):
        return evolve(self.origin, self.hamiltonian, self.u - self.lo)

    def spec(self, cid):
        return self.schedulers.get(cid, SchedulerSpec())

    def fresh(self, state, n):
        return {
            c.id: periodic_extend(self.bases[c.id], n)
            if c.id in self.bases
            else build_partition(born_probabilities(state, c), n, self.spec(c.id))
            for c in self.csets
        }

    def advance(self, u_target):
        if u_target == self.u:
            return
        while True:
            end = next(iter(self.partitions.values())).hi
            if u_target <= end:
                self.u = u_target
                return
            self.origin = evolve(self.origin, self.hamiltonian, end - self.lo)
            self.u = self.lo = end
            self.partitions = self.fresh(self.origin, int(end))

    def measure(self, cid, u):
        self.advance(u)
        c = next(c for c in self.csets if c.id == cid)
        part = self.partitions[cid]
        idx = active_label(part, u)
        post = QuantumState(c.basis_vector(idx))
        self.origin, self.lo = post, u
        for cc in self.csets:
            if cc.id in self.bases:
                self.bases[cc.id] = build_partition(
                    born_probabilities(post, cc), 0, self.spec(cc.id)
                )
        if u == part.hi:
            self.partitions = self.fresh(post, int(part.hi))
        else:
            self.partitions = {
                cc.id: build_partition_span(
                    born_probabilities(post, cc), u, part.hi, self.spec(cc.id), part.window_index
                )
                for cc in self.csets
            }
        return idx


def _scenario(rng):
    d = int(rng.integers(2, 5))
    h = random_hamiltonian(rng, d)
    energies, vectors = np.linalg.eigh(h.matrix)
    eigen = CommutingSet(
        id="h",
        basis=vectors,
        labels=tuple((k,) for k in range(d)),
        eigenvalues=tuple((float(e),) for e in energies),
    )
    assert is_conserved(h, eigen)
    csets = (eigen,) + tuple(random_cset(rng, d, id=f"r{i}") for i in range(3))
    seed = int(rng.integers(0, 1000))
    kinds = [
        SchedulerSpec(),
        SchedulerSpec(kind="two-outcome", offset=float(rng.random())),
        SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=seed),
    ]
    order = rng.permutation(3)
    schedulers = {"h": kinds[order[0]]}
    schedulers.update({f"r{i}": kinds[order[i]] for i in range(3)})
    return random_state(rng, d), h, csets, schedulers


def _operations(rng, ids, n_ops=12):
    """Strictly increasing (cset id or None, time) pairs; None means advance only."""
    u, ops = 0.0, []
    while len(ops) < n_ops:
        choice = int(rng.integers(0, 4))
        if choice == 0:  # two measurements in one window
            lo = u
            hi = math.floor(u) + 1.0
            u1 = lo + (hi - lo) * float(rng.uniform(0.1, 0.9))
            u2 = u1 + (hi - u1) * float(rng.uniform(0.1, 0.9))
            ops += [(str(rng.choice(ids)), u1), (str(rng.choice(ids)), u2)]
            u = u2
        elif choice == 1:  # exactly on the next boundary
            u = math.floor(u) + 1.0
            ops.append((str(rng.choice(ids)), u))
        elif choice == 2:  # several windows crossed, nothing read on the way
            u = u + int(rng.integers(2, 5)) + float(rng.uniform(0.05, 0.95))
            ops.append((None, u))
        else:  # a single measurement, perhaps in the next window
            u = u + float(rng.uniform(0.05, 1.2))
            ops.append((str(rng.choice(ids)), u))
    return ops


def _assert_same(sys, ref):
    assert sys.current_time == ref.u
    assert np.array_equal(sys.state.amplitudes, ref.state.amplitudes)
    for cid, expect in ref.partitions.items():
        got = sys.partitions[cid]
        assert dump_partition(got) == dump_partition(expect), cid
        assert np.array_equal(got.probabilities, expect.probabilities), cid
        assert check_partition(got) <= 1e-9


@pytest.mark.parametrize("seed", range(24))
def test_build_on_read_matches_eager_rules(seed):
    rng = np.random.default_rng(seed)
    state0, h, csets, schedulers = _scenario(rng)
    sys = SystemUnderObservation.from_scenario(Scenario(state0, h, csets, schedulers))
    ref = Eager(state0, h, csets, schedulers)
    _assert_same(sys, ref)
    for cid, u in _operations(rng, [c.id for c in csets]):
        if cid is None:
            sys = advance(sys, u)
            ref.advance(u)
        else:
            rec, sys = measure(sys, cid, u)
            assert rec.outcome_index == ref.measure(cid, u)
        # Skip some comparisons so later reads also hit partitions never read.
        if rng.random() < 0.6:
            _assert_same(sys, ref)
    _assert_same(sys, ref)


def test_advance_within_window_keeps_partitions_built_before():
    state0, h, csets, schedulers = _scenario(np.random.default_rng(3))
    sys = SystemUnderObservation.from_scenario(Scenario(state0, h, csets, schedulers))
    part = sys.partition("r0")
    assert advance(sys, 0.5).partition("r0") is part
    assert advance(sys, 1.5).partition("r0") is not part
