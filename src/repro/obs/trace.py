"""Hierarchical trace spans: where the time of one request actually went.

A :class:`Tracer` hands out :class:`Span` context managers.  Each finished
span becomes an immutable :class:`SpanRecord` -- name, ids, parent link,
wall/CPU timing and free-form attributes -- collected on the tracer
(:meth:`Tracer.records`) and written to disk by :mod:`repro.obs.recording`.

Two properties matter for this codebase:

* **Cross-thread and cross-process coherence.**  Parent links default to the
  calling thread's innermost open span, but a caller can pass an explicit
  ``parent_id`` -- which is how a batch parents its query spans (running on
  pool threads) under the batch span (opened on the caller's thread), and
  a scatter-gather engine its shard spans under the query span.  For
  process backends, a worker builds its *own* tracer
  from a :class:`TraceContext` shipped inside the task, records spans with
  the inherited ``trace_id``/parent id, and returns them as plain dicts; the
  parent :meth:`Tracer.adopt`\\ s them, so one query yields one coherent tree
  no matter which processes produced its pieces.

* **Zero cost when disabled.**  Every instrumented call site takes
  ``tracer=None`` (the default) and guards with one ``is None`` check; no
  object is allocated, no clock is read: ``tests/test_obs_disabled.py``
  counts zero calls into ``repro/obs/`` during an uninstrumented search.

The tracer also keeps a cross-thread view of the open-span stacks
(:meth:`Tracer.active_spans`): ``_push``/``_pop`` maintain one shared
``{thread id: [open spans]}`` map (each thread mutates only its own entry;
single dict/list ops, so the GIL keeps readers consistent), so any thread
can check that every span another thread opened has closed.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Attribute value types that survive a JSON round trip unchanged.
AttributeValue = object

_SPAN_COUNTER = itertools.count(1)
_TRACE_COUNTER = itertools.count(1)


def _new_id(counter: "itertools.count[int]") -> str:
    """A process-unique id; the pid prefix keeps worker ids collision-free."""
    return f"{os.getpid():x}-{next(counter):x}"


@dataclass
class SpanRecord:
    """One finished span, as plain data (JSON- and pickle-friendly)."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str]
    #: Wall-clock epoch seconds at which the span started (``time.time()``:
    #: comparable across processes, unlike the monotonic clock).
    start_epoch: float
    wall_seconds: float
    cpu_seconds: float
    attributes: Dict[str, AttributeValue] = field(default_factory=dict)
    status: str = "ok"
    #: Process id of the process that recorded the span -- makes worker
    #: provenance visible in the exported tree.
    pid: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_epoch": self.start_epoch,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attributes": dict(self.attributes),
            "status": self.status,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            span_id=str(data["span_id"]),
            trace_id=str(data["trace_id"]),
            parent_id=(None if data.get("parent_id") is None else str(data["parent_id"])),
            start_epoch=float(data["start_epoch"]),
            wall_seconds=float(data["wall_seconds"]),
            cpu_seconds=float(data["cpu_seconds"]),
            attributes=dict(data.get("attributes", {})),  # type: ignore[arg-type]
            status=str(data.get("status", "ok")),
            pid=int(data.get("pid", 0)),
        )


class Span:
    """An open span; use as a context manager or close explicitly.

    Spans are cheap but not free: the hot search loop never opens one per
    node -- spans wrap whole phases (a query, a shard, a merge, an index
    build).
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "attributes",
        "status",
        "_start_epoch",
        "_start_wall",
        "_start_cpu",
        "_closed",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[str],
        attributes: Dict[str, AttributeValue],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = _new_id(_SPAN_COUNTER)
        self.trace_id = tracer.trace_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        # Epoch stamp, not a duration: start times must be comparable across
        # processes, which the monotonic clocks are not.
        self._start_epoch = time.time()  # repro: allow[monotonic-time]
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        self._closed = False

    def set_attribute(self, key: str, value: AttributeValue) -> None:
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        _tb: object,
    ) -> None:
        if exc is not None:
            self.status = "error"
            self.attributes.setdefault("error", f"{type(exc).__name__}: {exc}")
        self.tracer._pop(self)
        self.finish()

    def finish(self) -> None:
        """Close the span (idempotent) and hand the record to the tracer."""
        if self._closed:
            return
        self._closed = True
        self.tracer._record(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                trace_id=self.trace_id,
                parent_id=self.parent_id,
                start_epoch=self._start_epoch,
                wall_seconds=time.perf_counter() - self._start_wall,
                cpu_seconds=time.process_time() - self._start_cpu,
                attributes=self.attributes,
                status=self.status,
                pid=os.getpid(),
            )
        )

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


#: Sentinel distinguishing "no parent given" from "explicitly a root span".
_UNSET = object()


class Tracer:
    """Collects spans for one telemetry scope.

    Parameters
    ----------
    trace_id:
        Inherit an existing trace (worker processes do, via
        :class:`TraceContext`); a fresh id is generated otherwise.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or _new_id(_TRACE_COUNTER)
        self.finished: List[SpanRecord] = []
        self._lock = threading.Lock()
        #: Open-span stack per thread id.  Each thread appends/pops only its
        #: own entry (single dict/list operations, atomic under the GIL);
        #: :meth:`active_spans` snapshots the whole map from any thread.
        self._stacks: Dict[int, List[Span]] = {}

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def span(
        self, name: str, parent_id: object = _UNSET, **attributes: AttributeValue
    ) -> Span:
        """Open a span; parent defaults to this thread's innermost open span.

        Pass ``parent_id=None`` to force a root span, or an explicit id to
        stitch work running on another thread under its logical parent.
        """
        if parent_id is _UNSET:
            parent_id = self.current_span_id
        assert parent_id is None or isinstance(parent_id, str)
        return Span(self, name, parent_id, dict(attributes))

    @property
    def current_span_id(self) -> Optional[str]:
        stack = self._stacks.get(threading.get_ident())
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:
            # Out-of-order close (interleaved generators on one thread):
            # remove without disturbing the others.
            stack.remove(span)
        if not stack and stack is not None:
            # Drop empty entries so pool threads that stopped tracing do not
            # accumulate (thread ids are reused by the OS).
            self._stacks.pop(ident, None)

    def active_spans(self) -> Dict[int, List[Span]]:
        """Snapshot of every thread's open-span stack (outermost first).

        Taken from any thread: the map and the stacks are mutated with
        single atomic operations, so a reader sees each stack either before
        or after a push/pop, never mid-update.
        """
        return {ident: list(stack) for ident, stack in list(self._stacks.items())}

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self.finished.append(record)

    # ------------------------------------------------------------------ #
    # Cross-process stitching
    # ------------------------------------------------------------------ #
    def context(self, parent_id: Optional[str] = None) -> "TraceContext":
        """A picklable handle a worker process rebuilds its tracer from."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_id=parent_id if parent_id is not None else self.current_span_id,
        )

    def adopt(self, records: Sequence[object]) -> None:
        """Fold span records produced elsewhere (worker payloads) in.

        Accepts :class:`SpanRecord` objects or their ``to_dict`` forms; the
        records keep the ids they were born with -- a worker built from a
        :class:`TraceContext` already carries this trace's ``trace_id`` and
        a parent id that resolves locally, so adopted spans slot straight
        into the tree.
        """
        converted = [
            record if isinstance(record, SpanRecord) else SpanRecord.from_dict(record)
            for record in records
        ]
        with self._lock:
            self.finished.extend(converted)

    def records(self) -> List[SpanRecord]:
        """A snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self.finished)

    def clear(self) -> None:
        with self._lock:
            self.finished.clear()

    def __repr__(self) -> str:
        return f"Tracer(trace_id={self.trace_id!r}, spans={len(self.finished)})"


@dataclass(frozen=True)
class TraceContext:
    """The picklable seed of a worker-side tracer (ships inside tasks)."""

    trace_id: str
    parent_id: Optional[str]

    def tracer(self) -> Tracer:
        """Build the worker-side tracer continuing this trace."""
        return Tracer(trace_id=self.trace_id)
