"""Benchmark of ``qergo run`` on three seeded workloads.

Run from the root of a checkout (see ``BENCHMARK.json`` for the workloads
and metrics):

    python3 perfbench/run.py --workload traj-driven --seed 0 --seconds 35 --trace 0

The benchmark writes the workload's inputs from ``--seed`` into
``.perfbench_work/``, times ``import qergo`` plus ``load_config`` in fresh
interpreters (``setup_s``), then starts one single-threaded worker process
that runs ``run_scenario`` on the generated config pass after pass for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics: medians over
the passes, and the worker's peak RSS.  The host's speed drifts, so every
timing (each setup and each pass) is taken right after a run of a fixed
reference loop and reported at reference speed (see ``reference.py``); the
raw wall-clock medians are printed on a ``wall`` line beside them.
``--trace 1`` reports the per-layer metrics from spans recorded around every
public function of qergo's modules.  Every pass is checked for correctness (see ``checks.py``), and the
known-defect probe runs once, outside the timed passes, and is printed by
name with its outcome.  ``--smoke`` uses tiny sizes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without qergo's
sources under ``src/`` the benchmark prints no result and exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

# Single-threaded BLAS as well as a single-threaded runner.
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_SETUP = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qergo\n"
    "qergo.load_config(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup_seconds(config: Path) -> tuple[float, float]:
    """Median over fresh interpreters of ``import qergo`` plus ``load_config``.

    Returns the median at reference speed and the raw median.  One untimed
    run first, so that compiling the bytecode cache, which users pay once,
    is not counted.
    """
    times, scaled = [], []
    reference.run()  # warm-up
    for i in range(SETUP_REPEATS + 1):
        ref_s = reference.run()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP, str(SRC), str(config)],
            env=CHILD_ENV, capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            times.append(float(out.stdout))
            scaled.append(reference.scaled(times[-1], ref_s))
    return statistics.median(scaled), statistics.median(times)


def _run_worker(spec: dict, work: Path, args, timeout: float) -> dict:
    result = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--src", str(SRC),
        "--config", str(spec["config"]),
        "--out", str(work / "out"),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result),
    ]
    if args.trace:
        # The last traced pass's spans, kept for inspection after the run.
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{args.workload}.spans.csv")]
    subprocess.run(cmd, env=CHILD_ENV, check=True, timeout=timeout)
    return json.loads(result.read_text())


def _work_done(spec: dict, tree: Path) -> int:
    if spec["work"] is not None:
        return spec["work"]
    # traj-driven: one CSV row per trajectory event, after the header.
    with open(tree / f"{spec['blocks'][0]['prefix']}.csv", "rb") as fh:
        return sum(1 for _ in fh) - 1


def _metrics(args, spec: dict, result: dict, tree: Path, setup_s: float | None) -> dict:
    passes = result["passes"]
    plain = [p["run_s"] for p in passes if not p["traced"]]
    if not args.trace:
        run_s = statistics.median(
            reference.scaled(p["run_s"], p["ref_s"]) for p in passes if not p["traced"]
        )
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "work_per_s": _work_done(spec, tree) / run_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    traced = [p for p in passes if p["traced"]]
    layers = [p["layers"] for p in traced]
    values = tracing.combine_passes(layers)
    values["partition.measure_err_max"] = max(m["partition.measure_err_max"] for m in layers)
    values["trace.overhead_frac"] = (
        statistics.median(p["run_s"] for p in traced) / statistics.median(plain) - 1.0
    )
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of qergo run on seeded workloads.")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "qergo" / "__init__.py").is_file():
        print(f"perfbench: no qergo sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    sys.path.insert(0, str(SRC))
    import numpy as np

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = workloads.generate(args.workload, args.seed, work / "inputs", smoke=args.smoke)
        setup_s, setup_wall_s = (None, None) if args.trace else _setup_seconds(spec["config"])
        result = _run_worker(spec, work, args, DEADLINE_S - (time.monotonic() - started))
        tree = work / "out" / "pass000"

        env = {"numpy": np.__version__, "machine": platform.machine(), "cpu": _cpu_model()}
        key = args.workload + ("/smoke" if args.smoke else "")
        golden = checks.golden_digests(key, args.seed, env)
        attempted, failed, notes = checks.check_operations(
            spec["blocks"], result["passes"], tree, golden
        )
        probe_ok, probe_detail = checks.probe_known_defect()
        metrics = _metrics(args, spec, result, tree, setup_s)
        digests = checks.block_digests(spec["blocks"], result["passes"][0]["files"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        **env,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "sizes": spec["sizes"],
        "work_unit": spec["work_unit"],
        "passes": len(result["passes"]),
        "golden": "checked" if golden is not None else "not recorded for this seed and environment",
    }
    print("env " + json.dumps(record))
    print("digests " + json.dumps(digests))
    plain = [p for p in result["passes"] if not p["traced"]]
    wall = {
        "run_s": statistics.median(p["run_s"] for p in plain),
        "ref_s": statistics.median(p["ref_s"] for p in plain),
        "reference.REF_S": reference.REF_S,
    }
    if setup_wall_s is not None:
        wall["setup_s"] = setup_wall_s
    print("wall " + json.dumps(wall))
    for note in notes:
        print("check FAIL " + note)
    print(f"probe {checks.PROBE_NAME} {'PASS' if probe_ok else 'FAIL'} {probe_detail}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric failed_frac {failed / attempted!r} ratio ({failed} of {attempted} blocks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
