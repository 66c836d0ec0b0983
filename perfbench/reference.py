"""A fixed reference loop that gauges how fast the shared host runs right now.

The benchmark's host lends its cores to other tenants, and the speed it
gives one process drifts by up to a factor of two over seconds to minutes,
in CPU time as well as wall time.  Every timed pass is therefore paired with
a run of this loop just before it, and the benchmark reports the pass's time
in units of the loop's time, scaled by ``REF_S``: what the pass would take on
the host at the speed it had when ``REF_S`` was recorded.  The drift cancels
in the ratio; a change to qergo does not, because the loop calls nothing of
qergo and its inputs are fixed.

The loop mixes what the workloads do: small dense eigendecompositions with
their cumulative sums turned into Python tuples and formatted as text
(partition building), random reads from a large sorted array (Born
sampling), and plain tuple, dict and string work (events and CSV rows).
"""

from __future__ import annotations

import time

import numpy as np

# Time of one ``run()`` on a quiet core of the 2-vCPU Intel Xeon host the
# benchmark was recorded on (Python 3, numpy 2.4, single-threaded BLAS).
REF_S = 0.04

_RNG = np.random.default_rng(20260417)
_H = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_H = _H + _H.conj().T
_CDF = np.cumsum(_RNG.random(1 << 17))
_CDF /= _CDF[-1]


def _work() -> int:
    rows = []
    for k in range(100):
        _, vecs = np.linalg.eigh(_H)
        c = np.cumsum(np.abs(vecs[:, k % 16]) ** 2)
        pieces = [(float(a), float(b), j) for j, (a, b) in enumerate(zip(c[:-1], c[1:]))]
        rows.append(",".join(f"{a!r}:{b!r}:{j}" for a, b, j in pieces))
    rng = np.random.default_rng(3)
    for _ in range(4):
        idx = np.searchsorted(_CDF, rng.random(1 << 15))
        rows.append(str(int(np.bincount(idx & 1023, minlength=1024).max())))
    last = {}
    for i in range(6000):
        event = (i * 0.37 % 1.0, i % 16, (i * 7) % 13)
        last[event[1]] = event
        rows.append(f"{event[0]!r},{event[1]},{event[2]}")
    return len(",".join(rows)) + len(last)


def run() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured next to a reference run of ``ref_seconds``, at reference speed."""
    return seconds / ref_seconds * REF_S
