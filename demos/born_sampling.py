#
# Squared amplitudes from random-time reads.
#
# Nothing is ever "drawn from the Born distribution" here: the trajectory
# is deterministic, and randomness only enters through WHEN we look.
# Reading the active label at uniform random times inside one window
# recovers the frozen weights to Monte Carlo accuracy.
#

import numpy as np

from qergo import QuantumState, SchedulerSpec, born_probabilities, make_state, sample_born, trajectory
from qergo.testing import random_cset, random_hamiltonian

DIM = 4
SAMPLES = 200_000
SEED = 42

rng = np.random.default_rng(SEED)
psi0 = make_state(rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM))
h = random_hamiltonian(rng, DIM)
cset = random_cset(rng, DIM, id="obs")

traj = trajectory(
    psi0, h, cset, SchedulerSpec(kind="seeded-random", max_subintervals=3, seed=7), windows=2
)
dist = sample_born(traj, SAMPLES, seed=SEED + 1, window=1)

exact = born_probabilities(QuantumState(traj.amplitudes[1]), cset)
print(f"{SAMPLES} uniform reads in window 1, dimension {DIM}")
print("\nlabel  estimate    stderr      |<O_k|psi>|^2   pulls")
stderr = dist.stderr
for k in range(DIM):
    est = dist.estimate(k)
    se = stderr[k]
    pulls = (est - exact[k]) / se if se > 0 else 0.0
    print(f"  {k}    {est:.6f}   {se:.6f}    {exact[k]:.6f}      {pulls:+.2f}")

total = sum(dist.estimates.values())
print(f"\nestimates sum to {total} (completeness is exact: counts partition the reads)")
