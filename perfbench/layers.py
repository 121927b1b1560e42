"""Per-layer spans recorded around the public entry points of each layer.

:func:`install` wraps, from outside the program, the functions each
layer exposes (the routing kernel, the admission ledger, churn, healing,
protection, telemetry, the serve and cluster ticks and the buffered
delivery model).  Every wrapped call is a span; a span's *self* time is
its duration minus the durations of the spans it directly encloses, so
the self times of all layers add up to the host time spent inside the
outermost spans.  Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (layer, module, owner, attribute): owner is a class name, or None for a
# module-level function.  ``route_batch`` is bound by name in several
# modules, so each binding is wrapped.
_ENTRY_POINTS = (
    ("serve", "repro.serve.service", "FabricService", "tick"),
    ("serve", "repro.serve.service", "FabricService", "submit_open"),
    ("serve", "repro.serve.service", "FabricService", "submit_join"),
    ("serve", "repro.serve.service", "FabricService", "submit_leave"),
    ("serve", "repro.serve.service", "FabricService", "submit_close"),
    ("cluster", "repro.cluster.controller", "ClusterService", "tick"),
    ("cluster", "repro.cluster.controller", "ClusterService", "submit_open"),
    ("cluster", "repro.cluster.controller", "ClusterService", "submit_join"),
    ("cluster", "repro.cluster.controller", "ClusterService", "submit_leave"),
    ("cluster", "repro.cluster.controller", "ClusterService", "submit_close"),
    ("cluster", "repro.cluster.controller", "ClusterService", "fail_shard"),
    ("cluster", "repro.cluster.controller", "ClusterService", "scale_up"),
    ("core.batch", "repro.core.batch", None, "route_batch"),
    ("core.batch", "repro.core.healing", None, "route_batch"),
    ("core.batch", "repro.core.admission", None, "route_batch"),
    ("core.batch", "repro.core.network", None, "_batch_route"),
    ("core.admission", "repro.core.admission", "AdmissionController", "admit_route"),
    ("core.admission", "repro.core.admission", "AdmissionController", "leave"),
    ("core.admission", "repro.core.admission", "AdmissionController", "apply_churn"),
    ("core.admission", "repro.core.admission", "AdmissionController", "replace_route"),
    ("core.churn", "repro.core.healing", "SelfHealingController", "resize"),
    ("core.healing", "repro.core.healing", "SelfHealingController", "apply_fault"),
    ("core.healing", "repro.core.healing", "SelfHealingController", "apply_repair"),
    ("protect", "repro.protect.plans", "BackupPlanStore", "protect"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "counter"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "gauge"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "histogram"),
    ("obs", "repro.obs.metrics", "Counter", "inc"),
    ("obs", "repro.obs.metrics", "Gauge", "set"),
    ("obs", "repro.obs.metrics", "Gauge", "set_max"),
    ("obs", "repro.obs.metrics", "Gauge", "inc"),
    ("obs", "repro.obs.metrics", "Histogram", "observe"),
    ("obs", "repro.obs.slo", "SLOEvaluator", "observe"),
    ("obs", "repro.obs.slo", "SLOEvaluator", "record"),
    ("obs", "repro.obs.slo", "SLOEvaluator", "evaluate"),
    ("perfmodel", "repro.perfmodel.capacity", "DeliveryModel", "on_tick"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in _ENTRY_POINTS))

#: Spans whose per-call self times are kept (for medians), not only summed.
_KEEP_SAMPLES = {"FabricService.tick", "ClusterService.tick"}


class LayerTracer:
    """In-memory span aggregation: self time per layer, calls per entry point."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)  # by layer
        self.total_s: dict[str, float] = defaultdict(float)  # by span name
        self.calls: dict[str, int] = defaultdict(int)  # by span name
        self.samples: dict[str, list[float]] = defaultdict(list)  # self times
        self.routed = 0  # conferences passed to route_batch
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        """Forget every span recorded so far (the wrappers stay installed)."""
        for table in (self.self_s, self.total_s, self.calls):
            table.clear()
        for samples in self.samples.values():
            samples.clear()
        self.routed = 0

    def wrap(self, layer: str, name: str, fn):
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        samples = self.samples[name] if name in _KEEP_SAMPLES else None
        counts_conferences = layer == "core.batch"

        def span(*args, **kwargs):
            frame = [0.0]  # durations of the spans directly inside this one
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                self_s[layer] += own
                total_s[name] += duration
                calls[name] += 1
                if samples is not None:
                    samples.append(own)
                if counts_conferences:
                    self.routed += len(args[1])

        return span

    def layer_calls(self, layer: str) -> int:
        names = {_span_name(owner, attr) for lay, _m, owner, attr in _ENTRY_POINTS if lay == layer}
        return sum(self.calls[name] for name in names)


def _span_name(owner: "str | None", attr: str) -> str:
    return f"{owner}.{attr}" if owner else attr


def install() -> LayerTracer:
    """Wrap every entry point in :data:`_ENTRY_POINTS`; returns the tracer.

    Call once per process, before the service is built.
    """
    tracer = LayerTracer()
    for layer, module_name, owner, attr in _ENTRY_POINTS:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        fn = getattr(target, attr)
        setattr(target, attr, tracer.wrap(layer, _span_name(owner, attr), fn))
    return tracer
