"""One benchmark process: repeated ``run_scenario`` passes over one config.

Started by ``run.py`` in a fresh interpreter so that ``ru_maxrss`` is the
peak of this workload alone.  It runs passes until ``--seconds`` have gone
by (at least ``MIN_PASSES``), each into its own output directory, and
records per pass the wall time of ``run_scenario``, the wall time of the
reference loop run just before it (see ``reference.py``), any exception, the
SHA-256 of every artifact and the manifest text.  Only the first pass's tree
is kept on disk, for the content checks.

With ``--trace 1`` untraced and traced passes alternate: the traced ones
give the per-layer metrics, the untraced ones the baseline for the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

MIN_PASSES = 4


def _tree(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(args.src))
    import qergo
    from qergo import runner
    from qergo.errors import InvariantViolation

    if Path(qergo.__file__).resolve().parent != (args.src / "qergo").resolve():
        raise SystemExit(f"imported qergo from {qergo.__file__}, not from {args.src}")
    import reference
    from tracing import Tracer, layer_metrics

    reference.run()  # warm-up
    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        out = args.out / f"pass{i:03d}"
        gc.collect()
        ref_s = reference.run()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            runner.run_scenario(args.config, out)
        except Exception as exc:  # a failed pass is counted by the checks, not fatal
            error = f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - t0
        record = {"run_s": run_s, "ref_s": ref_s, "traced": traced, "error": error}
        if traced:
            tracer.uninstall()
            layers = layer_metrics(tracer.spans)
            try:
                layers["partition.measure_err_max"] = tracer.measure_err_max()
            except InvariantViolation as exc:
                # A measure inside a unit window cannot be off by more than 1.
                layers["partition.measure_err_max"] = 1.0
                record["error"] = error or f"check_partition: {exc}"
            record["layers"] = layers
        manifest = out / "manifest.txt"
        record["manifest"] = manifest.read_text() if manifest.is_file() else None
        record["files"] = _tree(out)
        if i > 0:
            shutil.rmtree(out)
        passes.append(record)

    if tracer is not None and args.spans is not None:
        tracer.write_spans(args.spans)
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
