"""Per-layer spans recorded from outside the package.

The layers are qergo's modules.  :class:`Tracer` wraps every public function
of each layer module (the functions named in its ``__all__`` and defined
there) and rebinds the wrapper under every name that refers to the original
in any ``qergo`` module namespace, because ``from .partition import
build_partition`` copies the binding into ``microstate``, ``measurement`` and
``qgrid``.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts
the originals back.

A span is ``[name, start_ns, end_ns, parent_id]``; spans stay in memory and
are reduced to per-layer metrics (and optionally written out) after a pass.
Self time is a span's duration minus the durations of its direct children,
which cover disjoint intervals because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("config", "hilbert", "partition", "microstate", "ergodic", "measurement", "qgrid", "runner")

BUILD = ("partition.build_partition", "partition.build_partition_span")

# Functions whose returned partition is audited with check_partition after
# the pass, outside every span.
RETURNS_PARTITION = BUILD + ("partition.periodic_extend", "qgrid.position_partition")


def _run_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# Counts taken from a traced call's result, stored as the span's fifth field.
# CSV text is ASCII, so its length is its size in bytes.
EXTRAS = {
    "partition.build_partition": lambda part: len(part.segments),
    "partition.build_partition_span": lambda part: len(part.segments),
    "microstate.trajectory": lambda traj: (traj.cset_id, traj.windows_covered, len(traj.events)),
    "microstate.dump_trajectory": len,
    "measurement.format_measurement_log": len,
    "ergodic.sample_born": lambda dist: dist.total,
    "ergodic.sub_tau_correlation": lambda corr: 2 * corr.n_pairs,
    "runner.run_scenario": _run_bytes,
}


class Tracer:
    """Records spans around qergo's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.partitions: list = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = EXTRAS.get(name)
        keep = self.partitions.append if name in RETURNS_PARTITION else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec.append(extra(result))
            if keep is not None:
                keep(result)
            return result

        return traced

    def install(self):
        """Rebind every public layer function in every qergo namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"qergo.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "qergo" and not modname.startswith("qergo."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def reset(self):
        self.spans.clear()
        self.partitions.clear()

    def measure_err_max(self) -> float:
        """Worst check_partition deviation over every partition returned.

        Call after :meth:`uninstall`, so the audit itself records no spans.
        """
        check = sys.modules["qergo.partition"].check_partition
        unique = {id(p): p for p in self.partitions}
        return max((check(p) for p in unique.values()), default=0.0)

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent, *_) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce one pass's spans to the per-layer metrics (times in seconds)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    extras = defaultdict(list)
    measure_us = []
    top_builds = 0
    for i, (name, start, end, parent, *extra) in enumerate(spans):
        dur = end - start
        if name in BUILD:
            self_ns["partition.build"] += dur - child_ns[i]
            # build_partition calls build_partition_span: count the outer one.
            if parent >= 0 and spans[parent][0] in BUILD:
                continue
            top_builds += 1
        calls[name] += 1
        total[name] += dur
        self_ns[name] += dur - child_ns[i]
        if extra:
            extras[name].append(extra[0])
        if name == "measurement.measure":
            measure_us.append(dur / 1e3)

    def s(ns: int) -> float:
        return ns / 1e9

    segments = sum(extras["partition.build_partition"]) + sum(extras["partition.build_partition_span"])
    extends = calls["partition.periodic_extend"]
    traj = extras["microstate.trajectory"]
    return {
        "config.load_config.s": s(total["config.load_config"]),
        "hilbert.evolve.calls": calls["hilbert.evolve"],
        "hilbert.evolve.self_s": s(self_ns["hilbert.evolve"]),
        "hilbert.born_probabilities.calls": calls["hilbert.born_probabilities"],
        "hilbert.born_probabilities.self_s": s(self_ns["hilbert.born_probabilities"]),
        "partition.build.calls": top_builds,
        "partition.build.self_s": s(self_ns["partition.build"]),
        "partition.segments": segments,
        "partition.extend.calls": extends,
        "partition.extend.self_s": s(self_ns["partition.periodic_extend"]),
        "partition.reuse_ratio": _ratio(extends, top_builds + extends),
        "partition.read_ratio": _ratio(calls["partition.active_label"], top_builds),
        "microstate.trajectory.calls": calls["microstate.trajectory"],
        "microstate.trajectory.self_s": s(self_ns["microstate.trajectory"]),
        "microstate.events": sum(events for _, _, events in traj),
        "microstate.trajectory.distinct_ratio": _ratio(
            len({(cset, windows) for cset, windows, _ in traj}), len(traj)
        ),
        "microstate.dump_trajectory.s": s(total["microstate.dump_trajectory"]),
        "microstate.dump_trajectory.bytes": sum(extras["microstate.dump_trajectory"]),
        "ergodic.sample_born.s": s(total["ergodic.sample_born"]),
        "ergodic.sub_tau_correlation.self_s": s(self_ns["ergodic.sub_tau_correlation"]),
        "ergodic.same_outcome_measure.s": s(total["ergodic.same_outcome_measure"]),
        "ergodic.offset_window_average.s": s(total["ergodic.offset_window_average"]),
        "ergodic.reads": sum(extras["ergodic.sample_born"]) + sum(extras["ergodic.sub_tau_correlation"]),
        "measurement.measure.calls": calls["measurement.measure"],
        "measurement.measure.self_s": s(self_ns["measurement.measure"]),
        "measurement.measure.p50_us": _percentile(measure_us, 50),
        "measurement.measure.p99_us": _percentile(measure_us, 99),
        "measurement.advance.self_s": s(self_ns["measurement.advance"]),
        "measurement.format_measurement_log.s": s(total["measurement.format_measurement_log"]),
        "measurement.format_measurement_log.bytes": sum(extras["measurement.format_measurement_log"]),
        "qgrid.load_grid.s": s(total["qgrid.load_grid"]),
        "qgrid.position_partition.s": s(total["qgrid.position_partition"]),
        "qgrid.format_cell_probabilities.s": s(total["qgrid.format_cell_probabilities"]),
        "runner.run_experiment.self_s": s(self_ns["runner.run_experiment"]),
        "runner.write_s": s(self_ns["runner.run_scenario"]),
        "runner.bytes": sum(extras["runner.run_scenario"]),
    }


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_err_max"):
        return "tau"
    return "count"


def is_count(metric: str) -> bool:
    """Counts must repeat exactly from pass to pass."""
    return metric.endswith((".calls", ".segments", ".events", ".bytes", ".reads", "_ratio"))


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median time over traced passes; counts and ratios must agree exactly."""
    out = {}
    for metric in per_pass[0]:
        values = [m[metric] for m in per_pass]
        if is_count(metric):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {metric} differs between passes: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    return out
