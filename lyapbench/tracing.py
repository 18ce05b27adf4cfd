"""Outside-in spans around the public functions of each lyapcert layer.

Nothing here edits the package: ``install`` replaces the names that the
calling modules bound with ``from .x import y`` (``lyapcert.cli`` and
``lyapcert.scenarios``), so every call a CLI operation makes into a layer
passes through one wrapper.  Spans stay in memory until the pass ends.

Self time of a span is its duration minus the durations of its direct child
spans; work counts come from the call's arguments and result.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# Per-layer metrics, in the order BENCHMARK.json lists them.  Every layer
# also reports ``<layer>.errors`` (exceptions raised through its span).
LAYER_COUNTS = {
    "trace.run_quadratic": ("calls", "coord_steps", "iterates_mb"),
    "trace.run_objective": ("calls", "steps"),
    "svgplot.render_svg": ("calls", "points", "bytes"),
    "trace.export_csv": ("calls", "rows", "bytes"),
    "trace.series_from_csv": ("calls", "rows"),
    "lyapunov.check_monotone": ("calls", "values"),
    "spectral.analyze": ("calls", "coords"),
    "spectral.certificate_csv_text": ("calls", "bytes"),
    "spectral.certificate_report_text": ("calls", "bytes"),
    "problems.generate_quadratic": ("calls", "coords"),
    "problems.load_problem": ("calls",),
    "problems.save_problem": ("calls", "bytes"),
    "scenarios.run_scenario": ("calls",),
    "scenarios.find_witness": ("calls", "traces", "found"),
    "cli.main": ("calls", "stdout_bytes"),
}

# rate metric -> (layer, work count, seconds-to-unit factor, unit)
RATES = {
    "trace.run_quadratic.ns_per_coord_step": ("trace.run_quadratic", "coord_steps", 1e9, "ns"),
    "trace.run_objective.us_per_step": ("trace.run_objective", "steps", 1e6, "us"),
    "spectral.analyze.ns_per_coord": ("spectral.analyze", "coords", 1e9, "ns"),
}

UNITS = {"calls": "count", "coord_steps": "count", "steps": "count",
         "points": "count", "rows": "count", "values": "count",
         "coords": "count", "traces": "count", "found": "count",
         "bytes": "bytes", "stdout_bytes": "bytes",
         "iterates_mb": "MB"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, counts in LAYER_COUNTS.items():
        out[f"{layer}.self_s"] = "s"
        for c in counts:
            out[f"{layer}.{c}"] = UNITS[c]
        out[f"{layer}.errors"] = "count"
    for name, (_, _, _, unit) in RATES.items():
        out[name] = unit
    out["scenarios.find_witness.found_per_trace"] = "ratio"
    out["tracing.spans"] = "count"
    out["tracing.overhead_s"] = "s"
    return out


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one single-threaded pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: Optional[int] = None

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a callable picking
        the span name from the call's arguments; ``count(args, kwargs,
        result)`` returns the span's work counts."""

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = Span(sid=len(self.spans), name=span_name,
                        parent=self.stack[-1] if self.stack else None,
                        op=self.op, start=self.clock())
            self.spans.append(span)
            self.stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self.stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[s.sid] for s in spans]


def layer_metrics(spans: list[Span]) -> dict:
    """Aggregate spans into every per-layer metric (zero for layers not called)."""
    units = metric_units()
    out = {name: 0.0 for name in units}
    selfs = self_times(spans)
    for s, self_s in zip(spans, selfs):
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.errors"] += int(s.error)
        for key, val in s.counts.items():
            out[f"{s.name}.{key}"] += val
        if s.parent is not None and s.name.startswith("trace.run_") \
                and spans[s.parent].name == "scenarios.find_witness":
            out["scenarios.find_witness.traces"] += 1
    for name, (layer, work, scale, _) in RATES.items():
        n = out[f"{layer}.{work}"]
        out[name] = out[f"{layer}.self_s"] * scale / n if n else 0.0
    traces = out["scenarios.find_witness.traces"]
    out["scenarios.find_witness.found_per_trace"] = \
        out["scenarios.find_witness.found"] / traces if traces else 0.0
    out["tracing.spans"] = len(spans)
    return out


def _file_bytes(path) -> int:
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"  # numpy.savez appends the suffix
    return os.path.getsize(path)


def install(tracer: Tracer, cli, scenarios, quadratic_type) -> None:
    """Replace each layer function at the names ``cli`` and ``scenarios`` call."""

    def run_trace_name(args, kwargs):
        target = args[0] if args else kwargs["target"]
        return ("trace.run_quadratic" if isinstance(target, quadratic_type)
                else "trace.run_objective")

    def run_trace_counts(args, kwargs, tr):
        if isinstance(args[0], quadratic_type):
            return {"coord_steps": len(tr) * tr.iterates.shape[1],
                    "iterates_mb": tr.iterates.nbytes / 1e6}
        return {"steps": len(tr)}

    def svg_counts(args, kwargs, _):
        points = sum(len(s.y) for p in args[0] for s in p.series)
        return {"points": points, "bytes": _file_bytes(args[1])}

    specs = {
        "run_trace": (run_trace_name, run_trace_counts),
        "export_csv": ("trace.export_csv", lambda a, k, r: {
            "rows": len(a[0]), "bytes": _file_bytes(a[1])}),
        "series_from_csv": ("trace.series_from_csv", lambda a, k, r: {
            "rows": r.start_index + len(r.values)}),
        "check_monotone": ("lyapunov.check_monotone", lambda a, k, r: {
            "values": len(a[0].values)}),
        "analyze": ("spectral.analyze", lambda a, k, r: {
            "coords": len(r.per_coordinate)}),
        "certificate_csv_text": ("spectral.certificate_csv_text",
                                 lambda a, k, r: {"bytes": len(r)}),
        "certificate_report_text": ("spectral.certificate_report_text",
                                    lambda a, k, r: {"bytes": len(r)}),
        "generate_quadratic": ("problems.generate_quadratic",
                               lambda a, k, r: {"coords": r.dim}),
        "load_problem": ("problems.load_problem", None),
        "save_problem": ("problems.save_problem", lambda a, k, r: {
            "bytes": _file_bytes(a[1])}),
        "run_scenario": ("scenarios.run_scenario", None),
        "render_svg": ("svgplot.render_svg", svg_counts),
        "find_cosine_witness": ("scenarios.find_witness",
                                lambda a, k, r: {"found": int(r is not None)}),
        "find_tmm_witness": ("scenarios.find_witness",
                             lambda a, k, r: {"found": int(r is not None)}),
    }
    for module in (cli, scenarios):
        for attr, (name, count) in specs.items():
            if hasattr(module, attr):
                setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
