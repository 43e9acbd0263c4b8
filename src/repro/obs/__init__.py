"""repro.obs: zero-dependency telemetry for the OASIS engine.

Three pieces, designed to thread through every execution layer (monolithic
engine, sharded scatter-gather, batches, process workers) without
adding cost when unused:

* **Trace spans** (:mod:`repro.obs.trace`): hierarchical
  :class:`Tracer`/:class:`Span` context managers with wall/CPU timing,
  attributes and parent links; spans serialize as plain dicts, so worker
  processes return them inside result payloads and the parent stitches one
  coherent tree per query.
* **Metrics** (:mod:`repro.obs.metrics`): a :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms -- nodes expanded, DP cells,
  pruning cutoffs, buffer-pool hit rates, backend task latencies, queue
  depths -- snapshottable and mergeable across processes.
* **Recordings** (:mod:`repro.obs.recording`): the one on-disk format --
  a kind-tagged JSON-lines document (a ``header``, then ``span`` records)
  that ``search --trace`` writes when the run ends -- with its one
  ``write``, ``load``, ``validate`` and ``render``.

On top of the emitters sit two tools:

* **Trace analytics** (:mod:`repro.obs.analyze` + ``python -m repro.obs
  {validate,report} FILE``): critical path, per-phase wall/CPU breakdown
  (expand / scatter / shard / merge / pool I/O), per-pid attribution and
  slowest-query lists over any recording.
* **Sampling profiler** (:mod:`repro.obs.stackprof`): the one profiler, a
  wall-clock :class:`StackProfiler` sampling ``sys._current_frames()`` and
  joining samples against open spans for per-phase attribution;
  collapsed-stack export (CLI ``search --stackprof``).

Every instrumented call site takes ``tracer=None``; passing a
:class:`Tracer` (which owns a :class:`MetricsRegistry` as ``tracer.metrics``)
switches the whole stack on.  ``None`` costs one identity check.
:mod:`repro.obs.logsetup` supplies the package's stdlib ``logging``
hierarchy (``get_logger``/``configure_logging``) alongside.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.analyze import (
        NameStats,
        PhaseSlice,
        TraceAnalysis,
        analyze,
        phase_breakdown,
        span_phase,
    )
    from repro.obs.logsetup import configure_logging, get_logger
    from repro.obs.metrics import (
        DEFAULT_LATENCY_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
    )
    from repro.obs.recording import Recording
    from repro.obs.stackprof import StackProfiler
    from repro.obs.trace import Span, SpanRecord, TraceContext, Tracer
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.obs.analyze": (
                "NameStats",
                "PhaseSlice",
                "TraceAnalysis",
                "analyze",
                "phase_breakdown",
                "span_phase",
            ),
            "repro.obs.logsetup": ("configure_logging", "get_logger"),
            "repro.obs.metrics": (
                "DEFAULT_LATENCY_BUCKETS",
                "Counter",
                "Gauge",
                "Histogram",
                "MetricsRegistry",
            ),
            "repro.obs.recording": ("Recording",),
            "repro.obs.stackprof": ("StackProfiler",),
            "repro.obs.trace": ("Span", "SpanRecord", "TraceContext", "Tracer"),
        },
    )

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NameStats",
    "PhaseSlice",
    "Recording",
    "Span",
    "SpanRecord",
    "StackProfiler",
    "TraceAnalysis",
    "TraceContext",
    "Tracer",
    "analyze",
    "configure_logging",
    "get_logger",
    "phase_breakdown",
    "span_phase",
]
