"""Outside-in span tracer for the per-layer metrics.

The program is not modified. ``Tracer.install`` replaces each public
function in ``TARGETS`` by a wrapper, under every name an ``ionblimp``
module looks it up by (``ionblimp.harness.full_derivatives``,
``ionblimp.dynamics.ground_to_body``, ...), and methods on their class.
Each call records one span ``(name, start_ns, end_ns, parent, outcome)``
in memory; the run id is the tracer's. Spans are written out once, when the
run ends, and every per-layer number is derived from them afterwards.

A layer's self time is its span duration minus the durations of its
wrapped children. Self times of all spans sum exactly to the summed
duration of the root spans, so self times plus the unwrapped remainder
give the traced wall time.
"""

import functools
import importlib
import inspect
import os
import time
import tracemalloc

import numpy as np

RAISED = -1  # outcome of a span whose call raised

# Threshold the harness uses to flag an allocation residual as saturation.
RESIDUAL_TOL = 1e-9


def _saturated(fn):
    def call(args, kwargs):
        result = fn(*args, **kwargs)
        return result, int(float(np.max(np.abs(result[1]))) > RESIDUAL_TOL)
    return call


def _certified(fn):
    def call(args, kwargs):
        result = fn(*args, **kwargs)
        return result, int(result.is_valid)
    return call


def _file_bytes(fn):
    sig = inspect.signature(fn)

    def call(args, kwargs):
        result = fn(*args, **kwargs)
        return result, os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])
    return call


def _array_bytes_per_sample(fn):
    """Peak bytes of the arrays the kernel holds at once, per chunk sample.

    Computed from the allocation sizes numpy reports to tracemalloc, not a
    measurement of memory traffic.
    """
    sig = inspect.signature(fn)

    def call(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_chunk = min(bound.arguments["chunk"], bound.arguments["n_samples"])
        return result, round(peak / per_chunk)
    return call


# (layer module, public name, probe). A probe turns the call into
# (result, outcome); the outcome feeds the ratio and byte metrics.
TARGETS = (
    ("frames", "ground_to_body", None),
    ("frames", "flow_angles_from_velocity", None),
    ("frames", "airflow_to_body", None),
    ("frames", "euler_rates_from_body_rates", None),
    ("frames", "wrap_angle", None),
    ("dynamics", "full_derivatives", None),
    ("dynamics", "planar_derivatives", None),
    ("dynamics", "aero_wrench", None),
    ("dynamics", "thruster_wrench", None),
    ("dynamics", "gravity_buoyancy_wrench", None),
    ("dynamics", "BodyState.from_array", None),
    ("smc", "smc_control", None),
    ("smc", "pose_acceleration", None),
    ("smc", "allocate_actuation", _saturated),
    ("smc", "ReferenceTrajectory.sample", None),
    ("smc", "TrackingError.from_pose", None),
    ("smc", "sliding_surface", None),
    ("smc", "lyapunov_monitor", None),
    ("harness", "integrate_step", None),
    ("harness", "servo_map", None),
    ("harness", "OpenLoopCommand.command_at", None),
    ("harness", "run_scenario", None),
    ("harness", "write_records_csv", _file_bytes),
    ("harness", "format_summary", None),
    ("harness", "load_scenario", None),
    ("thruster", "collision_force_density_mc", _array_bytes_per_sample),
    ("thruster", "collision_force_density", None),
    ("inner_loop", "linearize", None),
    ("inner_loop", "search_stabilizing_gains", None),
    ("inner_loop", "lyapunov_certify", _certified),
    ("cli", "main", None),
)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name, _ in TARGETS)

# Per-layer metrics: "<span name>.<kind>". The kind fixes how the value is
# derived from the spans and its unit. `self_us` is the mean self time per
# call; `self_ms` / `self_s` are the total self time of one workload run.
KIND_UNITS = {
    "calls_per_step": "calls/step",
    "calls": "count",
    "self_us": "us",
    "self_ms": "ms",
    "self_s": "s",
    "stagnant_ratio": "ratio",
    "residual_ratio": "ratio",
    "valid_ratio": "ratio",
    "bytes": "B",
    "computed_bytes_per_sample": "B/sample",
}
PER_LAYER = (
    "frames.ground_to_body.calls_per_step",
    "frames.ground_to_body.self_us",
    "frames.flow_angles_from_velocity.self_us",
    "frames.airflow_to_body.self_us",
    "frames.euler_rates_from_body_rates.self_us",
    "frames.wrap_angle.calls_per_step",
    "dynamics.full_derivatives.calls_per_step",
    "dynamics.full_derivatives.self_us",
    "dynamics.planar_derivatives.calls_per_step",
    "dynamics.planar_derivatives.self_us",
    "dynamics.aero_wrench.self_us",
    "dynamics.aero_wrench.stagnant_ratio",
    "dynamics.thruster_wrench.self_us",
    "dynamics.gravity_buoyancy_wrench.self_us",
    "dynamics.BodyState.from_array.calls_per_step",
    "dynamics.BodyState.from_array.self_us",
    "smc.smc_control.self_us",
    "smc.pose_acceleration.calls_per_step",
    "smc.pose_acceleration.self_us",
    "smc.allocate_actuation.self_us",
    "smc.allocate_actuation.residual_ratio",
    "smc.ReferenceTrajectory.sample.self_us",
    "smc.TrackingError.from_pose.self_us",
    "smc.sliding_surface.self_us",
    "smc.lyapunov_monitor.self_us",
    "harness.integrate_step.self_us",
    "harness.servo_map.self_us",
    "harness.OpenLoopCommand.command_at.self_us",
    "harness.run_scenario.self_s",
    "harness.write_records_csv.self_s",
    "harness.write_records_csv.bytes",
    "harness.format_summary.self_us",
    "harness.load_scenario.self_ms",
    "thruster.collision_force_density_mc.self_s",
    "thruster.collision_force_density_mc.computed_bytes_per_sample",
    "thruster.collision_force_density.self_us",
    "inner_loop.linearize.self_us",
    "inner_loop.search_stabilizing_gains.self_ms",
    "inner_loop.lyapunov_certify.calls",
    "inner_loop.lyapunov_certify.valid_ratio",
    "cli.main.self_ms",
)
# Counts repeat exactly between traced runs of one seed; times do not.
COUNT_KINDS = ("calls_per_step", "calls", "stagnant_ratio", "residual_ratio",
               "valid_ratio", "bytes", "computed_bytes_per_sample")


def split_metric(name: str):
    """(span name, kind) of a per-layer metric name."""
    for kind in KIND_UNITS:
        if name.endswith("." + kind):
            return name[: -len(kind) - 1], kind
    raise ValueError(f"unknown metric kind in {name!r}")


class Tracer:
    """Span recorder for one run; wrappers append to this tracer only."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []
        self._stack = [-1]

    def _wrap(self, fn, name_id: int, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        call = probe(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outcome = RAISED
            start = clock()
            try:
                if call is None:
                    result = fn(*args, **kwargs)
                    outcome = 0
                else:
                    result, outcome = call(args, kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, outcome)

        return traced

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        package = importlib.import_module("ionblimp")
        layers = {layer: importlib.import_module(f"ionblimp.{layer}") for layer, _, _ in TARGETS}
        namespaces = [package, *layers.values()]
        for name_id, (layer, name, probe) in enumerate(TARGETS):
            owner = layers[layer]
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(raw.__func__, name_id, probe)))
                else:
                    setattr(cls, method, self._wrap(raw, name_id, probe))
                continue
            original = getattr(owner, name)
            wrapped = self._wrap(original, name_id, probe)
            for namespace in namespaces:
                for key in [k for k, v in vars(namespace).items() if v is original]:
                    setattr(namespace, key, wrapped)

    def arrays(self) -> dict:
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {
            "name_id": table[:, 0], "start_ns": table[:, 1], "end_ns": table[:, 2],
            "parent": table[:, 3], "outcome": table[:, 4],
            "run_id": np.full(len(table), self.run_id, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())


def span_totals(spans: dict) -> dict:
    """Per span name: calls, self and inclusive ns, and outcome tallies."""
    name_id, parent, outcome = spans["name_id"], spans["parent"], spans["outcome"]
    dur = spans["end_ns"] - spans["start_ns"]
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    n = len(SPAN_NAMES)
    calls = np.bincount(name_id, minlength=n)
    self_sum = np.bincount(name_id, weights=self_ns, minlength=n)
    positive = np.bincount(name_id, weights=(outcome > 0), minlength=n)
    outcome_sum = np.bincount(name_id, weights=np.maximum(outcome, 0), minlength=n)
    outcome_max = np.zeros(n)
    np.maximum.at(outcome_max, name_id, np.maximum(outcome, 0))
    # Stagnant early exits: flow-angle spans that raised inside aero_wrench.
    flow, aero = SPAN_NAMES.index("frames.flow_angles_from_velocity"), SPAN_NAMES.index("dynamics.aero_wrench")
    parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
    stagnant = int(np.sum((name_id == flow) & (outcome == RAISED) & (parent_name == aero)))
    return {
        "names": SPAN_NAMES,
        "calls": calls.tolist(),
        "self_ns": self_sum.tolist(),
        "positive": positive.tolist(),
        "outcome_sum": outcome_sum.tolist(),
        "outcome_max": outcome_max.tolist(),
        "stagnant": stagnant,
        "root_ns": int(np.sum(dur[~has_parent])),
    }


def layer_metrics(totals: dict, steps: int) -> dict:
    """Every PER_LAYER metric from one run's span totals and its RK4 step count."""
    index = {name: i for i, name in enumerate(totals["names"])}
    out = {}
    for metric in PER_LAYER:
        span, kind = split_metric(metric)
        i = index[span]
        calls = totals["calls"][i]
        self_ns = totals["self_ns"][i]
        if kind == "calls_per_step":
            value = calls / steps if steps else 0.0
        elif kind == "calls":
            value = calls
        elif kind == "self_us":
            value = self_ns / calls / 1e3 if calls else 0.0
        elif kind == "self_ms":
            value = self_ns / 1e6
        elif kind == "self_s":
            value = self_ns / 1e9
        elif kind == "stagnant_ratio":
            value = totals["stagnant"] / calls if calls else 0.0
        elif kind in ("residual_ratio", "valid_ratio"):
            value = totals["positive"][i] / calls if calls else 0.0
        elif kind == "bytes":
            value = totals["outcome_sum"][i]
        else:  # computed_bytes_per_sample
            value = totals["outcome_max"][i]
        out[metric] = value
    return out
