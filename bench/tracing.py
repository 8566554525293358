"""Spans around the library's public functions, and the per-layer metrics.

The library is traced from the outside: each public function is wrapped as
its callers see it (the name imported into `rti.experiment`, or the module
attribute the benchmark calls directly) and, for a traced operation, the
wrappers are installed into `rti.experiment` so the pipeline's own calls go
through them. Nothing under `src/rti` is modified.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

import rti.experiment as experiment
from rti import geometry, imaging, linkstats, selection, simulator, traceio, tracking

from harness import Tracer, median, span_totals

LAYERS = (
    "simulator", "traceio", "linkstats", "selection",
    "geometry", "imaging", "tracking", "experiment",
)


# ------------------------------------------------------------ counters
# Each runs after the traced call returns, outside its span.


def _count_trace(tracer, result, args):
    trace, _truth = result
    tracer.add("simulator.records", len(trace))
    tracer.add("simulator.received", sum(1 for r in trace if r.received))


def _count_trace_bytes(tracer, result, args):
    tracer.add("traceio.trace_bytes", Path(args["path"]).stat().st_size)


def _count_streams_in_trace(tracer, result, args):
    tracer.add("linkstats.streams_in_trace", len(result))


def _count_streams_used(tracer, result, args):
    used = {key for keys in args["streams_by_link"].values() for key in keys}
    tracer.add("linkstats.streams_used", len(used))


def _count_pairs(tracer, result, args):
    pairs = result.pairs_by_link
    tracer.add("selection.pairs", sum(len(p) for p in pairs.values()))
    tracer.add("selection.links", len(pairs))


def _count_weights(tracer, result, args):
    tracer.peak("geometry.weight_nnz", int(np.count_nonzero(result.entries)))


def _count_system(tracer, result, args):
    # Computed from the shapes of a dense float64 solve, not measured: the
    # N x N normal-equation system and the N x L pseudo-inverse.
    weights = args["weights"]
    links, voxels = np.shape(getattr(weights, "entries", weights))
    tracer.peak("imaging.system_bytes", voxels * voxels * 8)
    tracer.peak("imaging.pi_bytes", voxels * links * 8)


def _selection_span(args) -> str:
    return f"selection.select_{args['method']}"


# attribute -> (home module, span name, counter)
ENTRY_POINTS = {
    "read_scenario_file": (simulator, "simulator.read_scenario", None),
    "simulate": (simulator, "simulator.simulate", _count_trace),
    "obstructed_mask": (simulator, "simulator.obstructed_mask", None),
    "write_trace_file": (traceio, "traceio.write_trace", _count_trace_bytes),
    "write_truth_file": (traceio, "traceio.write_truth", None),
    "read_trace_file": (traceio, "traceio.read_trace", None),
    "read_truth_file": (traceio, "traceio.read_truth", None),
    "extract_streams": (linkstats, "linkstats.extract_streams", _count_streams_in_trace),
    "calibrate": (linkstats, "linkstats.calibrate", None),
    "fn_fp_sweep": (linkstats, "linkstats.fn_fp_sweep", None),
    "select_for_layout": (selection, _selection_span, _count_pairs),
    "build_weight_matrix": (geometry, "geometry.build_weight_matrix", _count_weights),
    "build_reconstructor": (imaging, "imaging.build_reconstructor", _count_system),
    "reconstruct": (imaging, "imaging.reconstruct", None),
    "argmax_voxel": (imaging, "imaging.argmax_voxel", None),
    "read_config_file": (experiment, "experiment.read_config", None),
    "run_experiment": (experiment, "experiment.run_experiment", None),
    "evaluate_method": (experiment, "experiment.evaluate_method", None),
    "compute_stat_matrix": (experiment, "experiment.compute_stat_matrix", _count_streams_used),
}


class Library:
    """The library functions the workloads call, either plain or traced."""

    def __init__(self, tracer: Tracer | None = None):
        self.names = []
        for attr, (home, span, after) in ENTRY_POINTS.items():
            fn = getattr(experiment, attr, None) or getattr(home, attr, None)
            if fn is None:
                continue
            self.names.append(attr)
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn, after))
        base = tracking.KalmanTracker
        if tracer is None:
            self.KalmanTracker = base
        else:
            self.KalmanTracker = type(
                "KalmanTracker", (base,), {"update": tracer.wrap("tracking.update", base.update)}
            )

    @contextmanager
    def installed(self):
        """Route `rti.experiment`'s own calls through these functions."""
        saved = {}
        for attr in [*self.names, "KalmanTracker"]:
            if hasattr(experiment, attr):
                saved[attr] = getattr(experiment, attr)
                setattr(experiment, attr, getattr(self, attr))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(experiment, attr, fn)


# ------------------------------------------------------------ metrics

TIMED_SPANS = (
    "simulator.read_scenario", "simulator.simulate", "simulator.obstructed_mask",
    "traceio.write_trace", "traceio.write_truth", "traceio.read_trace", "traceio.read_truth",
    "linkstats.extract_streams", "linkstats.calibrate", "linkstats.fn_fp_sweep",
    "selection.select_all", "selection.select_location",
    "selection.select_fadelevel", "selection.select_prr",
    "geometry.build_weight_matrix",
    "imaging.build_reconstructor", "imaging.reconstruct", "imaging.argmax_voxel",
    "tracking.update",
    "experiment.read_config", "experiment.run_experiment",
    "experiment.evaluate_method", "experiment.compute_stat_matrix",
)
SELF_SPANS = (
    "experiment.run_experiment", "experiment.evaluate_method", "experiment.compute_stat_matrix",
)
CALL_COUNTS = {"imaging.reconstruct_calls": "imaging.reconstruct", "tracking.updates": "tracking.update"}

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    **{f"{s}_s": ("s", "lower") for s in TIMED_SPANS},
    **{f"{s}_self_s": ("s", "lower") for s in SELF_SPANS},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "simulator.records": ("count", "lower"),
    "simulator.received_frac": ("ratio", "higher"),
    "traceio.trace_bytes": ("B", "lower"),
    "linkstats.streams_in_trace": ("count", "lower"),
    "linkstats.streams_used": ("count", "lower"),
    "linkstats.streams_used_ratio": ("ratio", "higher"),
    "selection.pairs_per_link_mean": ("count", "lower"),
    "geometry.weight_nnz": ("count", "lower"),
    "imaging.system_bytes": ("B-computed", "lower"),
    "imaging.pi_bytes": ("B-computed", "lower"),
    "imaging.reconstruct_calls": ("count", "lower"),
    "tracking.updates": ("count", "lower"),
    "trace.ops_traced": ("count", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_metrics(
    tracer: Tracer,
    setups: int,
    traced_ms: list[float],
    untraced_ms: list[float],
) -> dict[str, float]:
    """Per-layer values from a traced run.

    Times and counters are per operation; what happens during set-up is
    counted per set-up repetition instead (no span name occurs in both).
    Sizes that do not add up (nnz, bytes) are the largest seen.
    """
    ops = len(traced_ms)
    totals = span_totals(tracer.spans)

    def per_op(lookup) -> float:
        value = 0.0
        for in_setup, n in ((True, setups), (False, ops)):
            total = lookup(in_setup)
            if total and n:
                value += total / n
        return value

    def span_stat(name: str, field: int) -> float:
        return per_op(lambda s: totals.get((s, name), (0.0, 0.0, 0))[field])

    def count(key: str) -> float:
        return per_op(lambda s: tracer.counts.get((s, key), 0.0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for s in TIMED_SPANS:
        out[f"{s}_s"] = span_stat(s, 0)
    for s in SELF_SPANS:
        out[f"{s}_self_s"] = span_stat(s, 1)
    names = {name for _, name in totals}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (span_stat(n, 1) for n in names if n.startswith(layer + ".")), 0.0
        )
    out["simulator.records"] = count("simulator.records")
    out["simulator.received_frac"] = ratio(count("simulator.received"), count("simulator.records"))
    out["traceio.trace_bytes"] = count("traceio.trace_bytes")
    out["linkstats.streams_in_trace"] = count("linkstats.streams_in_trace")
    out["linkstats.streams_used"] = count("linkstats.streams_used")
    out["linkstats.streams_used_ratio"] = ratio(
        out["linkstats.streams_used"], out["linkstats.streams_in_trace"]
    )
    out["selection.pairs_per_link_mean"] = ratio(count("selection.pairs"), count("selection.links"))
    for key in ("geometry.weight_nnz", "imaging.system_bytes", "imaging.pi_bytes"):
        out[key] = float(tracer.peaks.get(key, 0))
    for key, span in CALL_COUNTS.items():
        out[key] = span_stat(span, 2)
    out["trace.ops_traced"] = float(ops)
    overhead = median(traced_ms) - median(untraced_ms)
    out["trace.overhead_ms"] = overhead
    out["trace.overhead_frac"] = overhead / median(untraced_ms)
    return {key: out[key] for key in PER_LAYER}
