"""Correctness checks on the artifacts, and the known-defect probe.

An operation is one experiment block in one pass.  It passes only if

* the pass raised nothing, its manifest says ``status = ok`` and there is no
  ``FAILED`` marker;
* its files, and the manifest, are byte-identical to those of the other
  passes of the run;
* at the seed recorded in ``golden.json``, and on the environment recorded
  there, its digest equals the recorded one;
* every statistics row is within 5 standard errors of ``exact`` (rows of
  sampled experiments) or within 1e-9 of it (rows of exact experiments).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

from workloads import STATISTICS_KINDS

MANIFEST = "manifest.txt"
FAILURE_MARKER = "FAILED"
EXACT_TOL = 1e-9
MAX_SIGMAS = 5.0
GOLDEN = Path(__file__).with_name("golden.json")

PROBE_NAME = "conserved-measure-then-cross-window"


def block_digests(blocks: list[dict], files: dict[str, str]) -> dict[str, str | None]:
    """Digest of each block's files (None if it wrote none), plus the manifest's."""
    out: dict[str, str | None] = {}
    for block in blocks:
        prefix = block["prefix"]
        names = sorted(n for n in files if n.startswith((prefix + ".", prefix + "-")))
        text = "".join(f"{n} {files[n]}\n" for n in names)
        out[prefix] = hashlib.sha256(text.encode()).hexdigest() if names else None
    out[MANIFEST] = files.get(MANIFEST)
    return out


def golden_digests(workload_key: str, seed: int, env: dict) -> dict | None:
    """Recorded digests for this workload and seed, if recorded on this environment."""
    golden = json.loads(GOLDEN.read_text())
    if seed != golden["seed"] or env != golden["env"]:
        return None
    return golden["trees"].get(workload_key)


def _statistics_problem(block: dict, text: str) -> str | None:
    exact_rows = STATISTICS_KINDS[block["kind"]]
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return "statistics file has no rows"
    for row in rows:
        est, se, exact = float(row["estimate"]), float(row["stderr"]), float(row["exact"])
        if exact_rows:
            limit = EXACT_TOL
        else:
            if se == 0.0:  # every read agreed; fall back to the binomial error
                se = math.sqrt(exact * (1.0 - exact) / block["reads"])
            limit = MAX_SIGMAS * se
        if not abs(est - exact) <= limit:
            return f"row {row['label']}: estimate {est!r} vs exact {exact!r} (limit {limit:.3g})"
    return None


def _pass_problem(record: dict) -> str | None:
    if record["error"]:
        return record["error"]
    if FAILURE_MARKER in record["files"]:
        return "FAILED marker present"
    if record["manifest"] is None or "status = ok" not in record["manifest"].splitlines():
        return "manifest missing or status not ok"
    return None


def check_operations(blocks: list[dict], passes: list[dict], tree: Path, golden: dict | None):
    """Return (attempted, failed, notes) over every block of every pass.

    ``tree`` is the first pass's artifact directory.
    """
    digests = [block_digests(blocks, p["files"]) for p in passes]
    reference = {k: Counter(d[k] for d in digests).most_common(1)[0][0] for k in digests[0]}
    always: dict[str, str] = {}
    for block in blocks:
        prefix = block["prefix"]
        if block["kind"] in STATISTICS_KINDS:
            path = tree / f"{prefix}.csv"
            problem = _statistics_problem(block, path.read_text()) if path.is_file() else "no file"
            if problem:
                always[prefix] = problem
        if golden is not None and reference[prefix] != golden.get(prefix):
            always.setdefault(prefix, "digest differs from golden.json")
    golden_manifest_bad = golden is not None and reference[MANIFEST] != golden.get(MANIFEST)

    failed = 0
    notes = []
    for i, (record, digest) in enumerate(zip(passes, digests)):
        pass_problem = _pass_problem(record)
        if digest[MANIFEST] != reference[MANIFEST]:
            pass_problem = pass_problem or "manifest differs from other passes"
        if golden_manifest_bad:
            pass_problem = pass_problem or "manifest differs from golden.json"
        for block in blocks:
            prefix = block["prefix"]
            problem = pass_problem or always.get(prefix)
            if problem is None and digest[prefix] is None:
                problem = "no artifacts"
            if problem is None and digest[prefix] != reference[prefix]:
                problem = "artifacts differ from other passes"
            if problem:
                failed += 1
                notes.append(f"pass {i} {prefix}: {problem}")
    return len(passes) * len(blocks), failed, notes


def probe_known_defect() -> tuple[bool, str]:
    """Measure a conserved set with a non-identity basis, then cross a window.

    H = 0 conserves every set.  After measuring the Haar-random set ``r``
    the collapsed weights keep a sub-ulp sliver, ``periodic_extend`` shifts
    it to ``(1.0, 1.0]`` and the crossing raises.  Returns (passed, detail).
    """
    import numpy as np
    from qergo import CommutingSet, Scenario, make_state, sequential_experiment
    from qergo.hilbert import Hamiltonian
    from qergo.testing import haar_unitary, sigma_z_set

    r = CommutingSet(
        id="r",
        basis=haar_unitary(np.random.default_rng(0), 2),
        labels=((0,), (1,)),
        eigenvalues=((1.0,), (-1.0,)),
    )
    scenario = Scenario(
        state0=make_state([1.0, 0.0]),
        hamiltonian=Hamiltonian(np.zeros((2, 2))),
        csets=(sigma_z_set(), r),
        schedulers={},
    )
    try:
        sequential_experiment(scenario, [("r", 0.5), ("sz", 1.5)], 50, 1)
    except Exception as exc:  # the probe reports whatever the defect raises
        return False, f"{type(exc).__name__}: {exc}"
    return True, "ok"
