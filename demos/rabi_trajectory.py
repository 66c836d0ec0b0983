#
# Rabi flopping as a jump trajectory.
#
# H = sigma_x / 2 drives |0> -> |1> and back with period 2*pi (in window
# units).  Each window freezes the weights at its start, so the label-0
# measure in window N must equal cos^2(N/2) exactly — the partition is a
# staircase image of the continuous oscillation.
#

import math

import numpy as np

from qergo import SchedulerSpec, interval_measure, make_state, trajectory
from qergo.hilbert import Hamiltonian
from qergo.testing import sigma_z_set

WINDOWS = 12

h = Hamiltonian(np.array([[0.0, 0.5], [0.5, 0.0]]))
psi0 = make_state([1.0, 0.0])
traj = trajectory(psi0, h, sigma_z_set(), SchedulerSpec(kind="two-outcome"), WINDOWS)

print("window   measure(label 0)     cos^2(N/2)           deviation")
worst = 0.0
for n in range(WINDOWS):
    got = interval_measure(traj.partition(n), 0)
    want = math.cos(n / 2.0) ** 2
    dev = abs(got - want)
    worst = max(worst, dev)
    print(f"  {n:<5}  {got:<19.15f}  {want:<19.15f}  {dev:.2e}")
print(f"\nworst deviation over {WINDOWS} windows: {worst:.3e}")

# The jump record itself: who is active when, around one window boundary.
print("\nevents crossing the window-5 boundary:")
for ev in traj.events:
    if 4.5 <= ev.interval.lo <= 5.5:
        print(
            f"  ({ev.interval.lo:.6f}, {ev.interval.hi:.6f}]  label {ev.label[0]}"
            f"  value {ev.eigenvalues[0]:+.0f}"
        )
