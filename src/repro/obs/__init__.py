"""repro.obs: zero-dependency telemetry for the OASIS engine.

Four pieces, designed to thread through every execution layer (monolithic
engine, sharded scatter-gather, batch executor, process workers) without
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
* **Exporters** (:mod:`repro.obs.exporters`): human-readable span tree,
  JSON-lines files (with :func:`read_jsonl` / :func:`validate_trace` for
  round-trips and CI schema checks), and an in-memory sink for tests.
* **Profiling** (:mod:`repro.obs.profile`): :func:`profile_search` runs a
  query under cProfile and reports the hot-function breakdown -- the
  evidence ROADMAP's expansion-vectorisation item asks for.

On top of the emitters sits the analysis stack:

* **Trace analytics** (:mod:`repro.obs.analyze` + ``python -m
  repro.obs.report``): critical path, per-phase wall/CPU breakdown
  (expand / scatter / shard / merge / pool I/O), per-pid attribution and
  slowest-query lists over a recorded trace.
* **Resource sampling** (:mod:`repro.obs.sampler`): a background
  :class:`ResourceSampler` recording RSS, buffer-pool occupancy/hit-ratio,
  backend queue depth and thread count into ``sampler.*`` gauges.
* **Regression sentry** (:mod:`repro.obs.regress` + ``python -m
  repro.obs.regress``): compares committed ``BENCH_*.json`` records against
  the ``BENCH_history.jsonl`` trajectory and fails CI on perf regressions.

And the live layer -- introspection of a *running* process, not just its
post-hoc trace:

* **Flight recorder** (:mod:`repro.obs.flight` + ``python -m
  repro.obs.flight DUMP.jsonl``): bounded ring buffers of recent spans,
  structured events and metric deltas, dumped as a JSON-lines black box on
  timeout/abort/exception or ``SIGUSR1`` (CLI ``search --flight``).
* **Sampling profiler** (:mod:`repro.obs.stackprof`): a wall-clock
  :class:`StackProfiler` sampling ``sys._current_frames()`` and joining
  samples against open spans for per-phase attribution; collapsed-stack
  and speedscope exports (CLI ``search --stackprof``).
* **Prometheus exposition** (:mod:`repro.obs.promexport`):
  :func:`render_prometheus` over the registry and an opt-in
  :class:`MetricsServer` serving ``/metrics`` + ``/healthz`` (CLI
  ``search --serve-metrics``).

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
    from repro.obs.exporters import (
        InMemorySink,
        JsonLinesExporter,
        read_jsonl,
        render_span_tree,
        validate_trace,
    )
    from repro.obs.logsetup import configure_logging, get_logger
    from repro.obs.metrics import (
        DEFAULT_LATENCY_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
    )
    from repro.obs.profile import (
        HotFunction,
        ProfileReport,
        profile_call,
        profile_search,
        profile_workload,
    )
    from repro.obs.promexport import MetricsServer, parse_exposition, render_prometheus
    # repro.obs.report / repro.obs.regress / repro.obs.validate / repro.obs.flight
    # are deliberately NOT re-exported: they are `python -m` entry points, and
    # a package that had imported them would shadow runpy's module execution
    # (double-import warning).  Import them directly when embedding.
    from repro.obs.sampler import ResourceSample, ResourceSampler, read_rss_bytes
    from repro.obs.stackprof import StackProfiler, validate_speedscope
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
            "repro.obs.exporters": (
                "InMemorySink",
                "JsonLinesExporter",
                "read_jsonl",
                "render_span_tree",
                "validate_trace",
            ),
            "repro.obs.logsetup": ("configure_logging", "get_logger"),
            "repro.obs.metrics": (
                "DEFAULT_LATENCY_BUCKETS",
                "Counter",
                "Gauge",
                "Histogram",
                "MetricsRegistry",
            ),
            "repro.obs.profile": (
                "HotFunction",
                "ProfileReport",
                "profile_call",
                "profile_search",
                "profile_workload",
            ),
            "repro.obs.promexport": (
                "MetricsServer",
                "parse_exposition",
                "render_prometheus",
            ),
            "repro.obs.sampler": (
                "ResourceSample",
                "ResourceSampler",
                "read_rss_bytes",
            ),
            "repro.obs.stackprof": ("StackProfiler", "validate_speedscope"),
            "repro.obs.trace": ("Span", "SpanRecord", "TraceContext", "Tracer"),
        },
    )

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HotFunction",
    "InMemorySink",
    "JsonLinesExporter",
    "MetricsRegistry",
    "MetricsServer",
    "NameStats",
    "PhaseSlice",
    "ProfileReport",
    "ResourceSample",
    "ResourceSampler",
    "Span",
    "SpanRecord",
    "StackProfiler",
    "TraceAnalysis",
    "TraceContext",
    "Tracer",
    "analyze",
    "configure_logging",
    "get_logger",
    "parse_exposition",
    "phase_breakdown",
    "profile_call",
    "profile_search",
    "profile_workload",
    "read_jsonl",
    "read_rss_bytes",
    "render_prometheus",
    "render_span_tree",
    "span_phase",
    "validate_speedscope",
    "validate_trace",
]
