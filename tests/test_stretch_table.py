"""The stretch-table writer behind ``dump_trajectory`` and ``dump_partition``.

Both dumps format their rows a block of ``_TABLE_ROWS`` stretches at a time.
The references below format them one row at a time, the way the dumps
used to; the two must agree byte for byte on every trajectory and
partition, wherever the block edges fall, and the block writer must not
hold more memory than the reference does.
"""

import tracemalloc

import numpy as np
import pytest

from qergo.hilbert import CommutingSet, Hamiltonian, make_state
from qergo.microstate import JumpTrajectory, dump_trajectory, trajectory
from qergo.partition import (
    _TABLE_ROWS,
    SchedulerSpec,
    build_partition,
    build_partition_span,
    dump_partition,
)
from qergo.testing import haar_unitary, random_hamiltonian, random_probabilities, random_state

B = _TABLE_ROWS


def reference_dump_trajectory(traj) -> str:
    names = [":".join(str(i) for i in lab) for lab in traj.cset.labels]
    eigs = [":".join(repr(x) for x in ev) for ev in traj.cset.eigenvalues]
    b, labels, o = traj.bounds, traj.labels.tolist(), traj.offsets.tolist()
    chunks = ["window,label,lo,hi,eigenvalues\n"]
    for n in range(traj.windows_covered):
        i, j = o[n], o[n + 1]
        r = [repr(x) for x in b[i:j + 1].tolist()]
        chunks.append("".join(
            f"{n},{names[k]},{lo},{hi},{eigs[k]}\n" for k, lo, hi in zip(labels[i:j], r, r[1:])
        ))
    return "".join(chunks)


def reference_dump_partition(partition) -> str:
    n, b = partition.window_index, partition.bounds.tolist()
    rows = (f"{n},{k},{lo!r},{hi!r}" for k, lo, hi in zip(partition.labels.tolist(), b, b[1:]))
    return "\n".join(["window_index,label,lo,hi", *rows]) + "\n"


def assert_same_text(got: str, want: str):
    """Fail with the first differing line (pytest's own diff of two long dumps takes minutes)."""
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i} differs: {a[i:i + 1]} != {b[i:i + 1]}; {len(a)} and {len(b)} lines")


# Eigenvalues whose repr is easy to get wrong: a signed zero, the smallest
# subnormal, and a huge value.
EDGE_VALUES = (-0.0, 5e-324, 1e300)


def edge_cset(rng, d: int, n_members: int) -> CommutingSet:
    values = [*EDGE_VALUES, *rng.standard_normal(d * n_members).tolist()]
    eigenvalues = tuple(
        tuple(values[(k * n_members + m) % len(values)] for m in range(n_members))
        for k in range(d)
    )
    labels = tuple((k,) + (d - 1 - k,) * (n_members - 1) for k in range(d))
    return CommutingSet(
        id="edge", basis=haar_unitary(rng, d), labels=labels, eigenvalues=eigenvalues
    )


def conserved_hamiltonian(rng, cset: CommutingSet) -> Hamiltonian:
    u = cset.basis
    return Hamiltonian(u @ np.diag(rng.standard_normal(cset.dimension)) @ u.conj().T)


SCHEDULERS = [
    SchedulerSpec(),
    SchedulerSpec(kind="two-outcome", offset=0.3),
    SchedulerSpec(kind="seeded-random", max_subintervals=4, seed=5),
]


@pytest.mark.parametrize("conserved", [False, True], ids=["driven", "conserved"])
@pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.kind)
@pytest.mark.parametrize("d", [1, 2, 3, 16])
@pytest.mark.parametrize("n_members", [1, 2])
def test_dumps_match_the_row_at_a_time_references(d, n_members, scheduler, conserved):
    rng = np.random.default_rng([d, n_members, SCHEDULERS.index(scheduler), conserved])
    cset = edge_cset(rng, d, n_members)
    h = conserved_hamiltonian(rng, cset) if conserved else random_hamiltonian(rng, d)
    windows = 3 * B // d + 7
    traj = trajectory(random_state(rng, d), h, cset, scheduler, windows)
    assert_same_text(dump_trajectory(traj), reference_dump_trajectory(traj))
    for n in (0, 1, windows // 2, windows - 1):
        part = traj.partition(n)
        assert_same_text(dump_partition(part), reference_dump_partition(part))


def test_eigenvalue_edge_cases_reach_the_dump():
    rng = np.random.default_rng(0)
    cset = edge_cset(rng, 3, 1)
    traj = trajectory(random_state(rng, 3), Hamiltonian(np.zeros((3, 3))), cset, SchedulerSpec(), 2)
    tails = {line.rsplit(",", 1)[1] for line in dump_trajectory(traj).splitlines()[1:]}
    assert tails == {"-0.0", "5e-324", "1e+300"}
    assert_same_text(dump_trajectory(traj), reference_dump_trajectory(traj))


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 7])
def test_stretch_totals_around_the_block_size(rows):
    # d = 1 lays out one stretch per window, so the total is the window count.
    cset = CommutingSet(id="one", basis=np.eye(1), labels=((0, 7),), eigenvalues=((-0.0, 1e300),))
    traj = trajectory(make_state([1.0]), Hamiltonian(np.eye(1)), cset, SchedulerSpec(), rows)
    assert traj.labels.size == rows
    text = dump_trajectory(traj)
    assert_same_text(text, reference_dump_trajectory(traj))
    assert text.count("\n") == rows + 1
    assert text.endswith(f"\n{rows - 1},0:7,{float(rows - 1)!r},{float(rows)!r},-0.0:1e+300\n")


@pytest.mark.parametrize("rows", [B - 1, B, B + 1, 3 * B + 7])
def test_windows_that_straddle_block_edges(rows):
    # About 60 stretches per window, so block edges fall inside windows.  The
    # arrays are cut after exactly ``rows`` stretches; the last window ends
    # early, which the writer, reading only the arrays, does not mind.
    rng = np.random.default_rng(rows)
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=8, seed=rows)
    cset = edge_cset(rng, 16, 2)
    full = trajectory(random_state(rng, 16), random_hamiltonian(rng, 16), cset, spec, 40)
    o = full.offsets
    offsets = np.append(o[o < rows], rows)
    w = offsets.size - 1
    traj = JumpTrajectory(cset, full.bounds[:rows + 1], full.labels[:rows], offsets,
                          full.probabilities[:w], full.amplitudes[:w], 0)
    assert 1 < w < full.windows_covered and rows not in o
    assert_same_text(dump_trajectory(traj), reference_dump_trajectory(traj))


def test_one_window_trajectory_and_partitions_of_many_blocks():
    rng = np.random.default_rng(1)
    cset = edge_cset(rng, 16, 1)
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=256, seed=3)
    traj = trajectory(random_state(rng, 16), random_hamiltonian(rng, 16), cset, spec, 1)
    assert traj.labels.size > 3 * B
    assert_same_text(dump_trajectory(traj), reference_dump_trajectory(traj))
    p = random_probabilities(rng, 16)
    for part in (
        traj.partition(0),
        build_partition(p, 9999, spec),
        build_partition_span(p, 41.25, 42.0, spec, 41),
        build_partition([1.0], 3, SchedulerSpec()),
        build_partition([0.0, 1.0, 0.0], 0, SchedulerSpec()),
    ):
        assert_same_text(dump_partition(part), reference_dump_partition(part))


def _peak(fn, arg) -> int:
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_peak_memory_stays_at_the_references():
    # Shaped like perfbench's traj-driven: d = 16, seeded-random, 400 windows.
    rng = np.random.default_rng(16)
    cset = edge_cset(rng, 16, 1)
    spec = SchedulerSpec(kind="seeded-random", max_subintervals=4, seed=2)
    traj = trajectory(random_state(rng, 16), random_hamiltonian(rng, 16), cset, spec, 400)
    assert traj.labels.size > 10_000
    ref = _peak(reference_dump_trajectory, traj)
    got = _peak(dump_trajectory, traj)
    assert got <= 1.1 * ref, (got, ref)
