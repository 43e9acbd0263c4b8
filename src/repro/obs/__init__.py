"""repro.obs: zero-dependency telemetry for the OASIS engine.

Two pieces, designed to thread through every execution layer (monolithic
engine, sharded scatter-gather, batches, process workers) without
adding cost when unused:

* **Trace spans** (:mod:`repro.obs.trace`): hierarchical
  :class:`Tracer`/:class:`Span` context managers with wall/CPU timing,
  attributes and parent links; spans serialize as plain dicts, so worker
  processes return them inside result payloads and the parent stitches one
  coherent tree per query.
* **Recordings** (:mod:`repro.obs.recording`): the one on-disk format --
  a kind-tagged JSON-lines document (a ``header``, then ``span`` records)
  that ``search --trace`` writes when the run ends -- with its one
  ``write``, ``load``, ``validate`` and ``render``.

On top of the emitters sits one tool, **trace analytics**
(:mod:`repro.obs.analyze` + ``python -m repro.obs {validate,report} FILE``):
critical path, per-phase wall/CPU breakdown (expand / scatter / shard /
merge), per-pid attribution and slowest-query lists over any recording.
The numbers live elsewhere, with the searches that count them: every
``SearchResult.statistics`` (columns expanded, nodes enqueued, accepted
and pruned, the buffer pool's hits, misses and evictions) and the pool's own
``BufferPoolStatistics``; a span never opens per page.

Every instrumented call site takes ``tracer=None``; passing a
:class:`Tracer` switches the spans on.  ``None`` costs one identity check.
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
    from repro.obs.recording import Recording
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
            "repro.obs.recording": ("Recording",),
            "repro.obs.trace": ("Span", "SpanRecord", "TraceContext", "Tracer"),
        },
    )

__all__ = [
    "NameStats",
    "PhaseSlice",
    "Recording",
    "Span",
    "SpanRecord",
    "TraceAnalysis",
    "TraceContext",
    "Tracer",
    "analyze",
    "configure_logging",
    "get_logger",
    "phase_breakdown",
    "span_phase",
]
