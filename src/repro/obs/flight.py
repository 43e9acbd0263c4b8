"""Flight recorder: a bounded black box of what the engine just did.

Post-hoc traces answer "what happened?" only after the run ends; the
interesting OASIS failures (a query stalling mid-stream, a shard worker
going quiet, a pool thrashing) happen *while* the process runs.  A
:class:`FlightRecorder` rides an attached :class:`~repro.obs.trace.Tracer`
and keeps three bounded ring buffers:

* the most recent finished **span records**, fed by the tracer's span-sink
  hook (:meth:`Tracer.add_sink`) -- no call-site changes, every span that
  finishes lands here;
* **structured events** emitted by the instrumented layers through
  ``tracer.flight.event(...)``: query admitted/finished, shard dispatched,
  deadline expired -- plus pool-eviction bursts the recorder synthesises
  itself from metric deltas;
* **metric-snapshot deltas**: periodically the recorder diffs the metrics
  registry against its previous snapshot and keeps only what changed, so
  the dump shows counter *rates* around the incident, not lifetime totals.

Everything is in memory and bounded, so the recorder can stay attached for
the life of a process.  :meth:`dump` writes the black box as a
:mod:`repro.obs.recording` whose header says ``partial: true`` -- the same
file format ``search --trace`` writes, so ``python -m repro.obs validate``
checks it and ``python -m repro.obs report`` replays it.

Dump triggers, wired through the CLI's ``search --flight [FILE]``:

* a query timeout, abort or exception (the CLI dumps after an unhealthy
  batch, and on any escaping exception);
* ``SIGUSR1``, via :meth:`install_signal_handler`.  The handler itself
  only writes one byte to a pre-opened self-pipe (the ``signal-safety``
  lint rule enforces exactly this discipline); a daemon watcher thread
  blocks on the pipe's read end and performs the actual dump, so no
  allocation or locking ever happens in signal context.

Inert when disabled: built over ``tracer=None`` the recorder records
nothing, attaches nothing and dumps nothing -- the usual one-identity-check
telemetry contract.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.obs.recording import Recording, write
from repro.obs.trace import SpanRecord

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.obs.trace import Tracer

#: Default ring capacities: enough context around an incident without ever
#: mattering for memory (a span record is a few hundred bytes).
DEFAULT_SPAN_CAPACITY = 256
DEFAULT_EVENT_CAPACITY = 512
DEFAULT_METRIC_CAPACITY = 64

#: Seconds between metric-snapshot deltas (snapshotting walks the whole
#: registry, so it is throttled; events/spans only *trigger* a tick).
DEFAULT_METRICS_INTERVAL = 0.25

#: ``pool.evictions`` delta within one metrics interval that counts as an
#: eviction burst (and synthesises a ``pool_eviction_burst`` event).
EVICTION_BURST_THRESHOLD = 100


class FlightRecorder:
    """Always-on bounded recorder of recent spans, events and metric deltas.

    Parameters
    ----------
    tracer:
        The telemetry hub to ride.  ``None`` disables the recorder entirely.
    path:
        Default dump target (:meth:`dump` can override per call).
    span_capacity / event_capacity / metric_capacity:
        Ring sizes; the oldest entries fall off first.
    metrics_interval:
        Minimum seconds between metric-snapshot deltas.
    """

    def __init__(
        self,
        tracer: Optional["Tracer"],
        path: Optional[str] = None,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
        metric_capacity: int = DEFAULT_METRIC_CAPACITY,
        metrics_interval: float = DEFAULT_METRICS_INTERVAL,
    ) -> None:
        if span_capacity < 1 or event_capacity < 1 or metric_capacity < 1:
            raise ValueError("ring capacities must be positive")
        if metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        self.tracer = tracer
        self.path = path
        self.metrics_interval = float(metrics_interval)
        self._spans: Deque[SpanRecord] = deque(maxlen=span_capacity)
        self._events: Deque[Dict[str, object]] = deque(maxlen=event_capacity)
        self._metric_deltas: Deque[Dict[str, object]] = deque(maxlen=metric_capacity)
        self._lock = threading.Lock()
        self._attached = False
        self._start_wall = time.perf_counter()
        self._last_metrics_wall = 0.0
        self._last_snapshot: Dict[str, Dict[str, object]] = {}
        self.dumps_written = 0
        self.last_dump_reason: Optional[str] = None
        # Self-pipe signal plumbing (install_signal_handler).
        self._signal_fds: Optional[Tuple[int, int]] = None
        self._signal_watcher: Optional[threading.Thread] = None
        self._previous_handler: object = None
        self._installed_signal: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        return self.tracer is not None

    def attach(self) -> "FlightRecorder":
        """Hook the tracer: span sink + ``tracer.flight`` event channel."""
        tracer = self.tracer
        if tracer is None or self._attached:
            return self
        tracer.add_sink(self._on_span)
        tracer.flight = self
        self._attached = True
        self._take_metric_delta(force=True)
        return self

    def detach(self) -> None:
        """Unhook from the tracer (rings keep their contents)."""
        tracer = self.tracer
        if tracer is None or not self._attached:
            return
        tracer.remove_sink(self._on_span)
        if tracer.flight is self:
            tracer.flight = None
        self._attached = False

    def __enter__(self) -> "FlightRecorder":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall_signal_handler()
        self.detach()

    # ------------------------------------------------------------------ #
    # Feeds
    # ------------------------------------------------------------------ #
    def _on_span(self, record: SpanRecord) -> None:
        """Span-sink hook: deque appends are atomic, no lock on this path."""
        self._spans.append(record)
        self._maybe_take_metric_delta()

    def event(self, kind: str, **fields: object) -> None:
        """Record one structured event (cheap; bounded by the event ring)."""
        if self.tracer is None:
            return
        self._events.append(
            {
                "kind": "event",
                "event": kind,
                "elapsed_seconds": time.perf_counter() - self._start_wall,
                # Epoch stamp for cross-process correlation, not a duration.
                "epoch": time.time(),  # repro: allow[monotonic-time]
                "pid": os.getpid(),
                "fields": fields,
            }
        )
        self._maybe_take_metric_delta()

    def _maybe_take_metric_delta(self) -> None:
        now = time.perf_counter()
        if now - self._last_metrics_wall < self.metrics_interval:
            return
        self._take_metric_delta()

    def _take_metric_delta(self, force: bool = False) -> None:
        """Diff the registry against the previous snapshot, keep the change."""
        tracer = self.tracer
        if tracer is None:
            return
        with self._lock:
            now = time.perf_counter()
            if not force and now - self._last_metrics_wall < self.metrics_interval:
                return  # another thread beat us to this interval
            self._last_metrics_wall = now
            current = tracer.metrics.snapshot()
            previous = self._last_snapshot
            self._last_snapshot = current
            changed: Dict[str, Dict[str, object]] = {}
            for name, state in current.items():
                before = previous.get(name)
                delta = _instrument_delta(state, before)
                if delta is not None:
                    changed[name] = delta
            if not changed and previous:
                return
            self._metric_deltas.append(
                {
                    "kind": "metrics",
                    "elapsed_seconds": now - self._start_wall,
                    "changed": changed,
                }
            )
            evictions = changed.get("pool.evictions")
        if evictions is not None:
            burst = int(evictions.get("delta", 0))
            if burst >= EVICTION_BURST_THRESHOLD:
                self.event("pool_eviction_burst", evictions=burst)

    # ------------------------------------------------------------------ #
    # Dumping
    # ------------------------------------------------------------------ #
    def dump(self, reason: str, path: Optional[str] = None) -> Optional[str]:
        """Write the black box (header + spans + events + metric deltas).

        The target is overwritten, not appended: the file always holds the
        most recent dump, one self-describing document -- the semantics of
        an actual flight recorder.  Returns the path written, or ``None``
        when disabled / no path is configured.
        """
        tracer = self.tracer
        if tracer is None:
            return None
        target = path or self.path
        if target is None:
            return None
        self._take_metric_delta(force=True)
        with self._lock:
            spans = list(self._spans)
            events = list(self._events)
            deltas = list(self._metric_deltas)
            self.dumps_written += 1
            self.last_dump_reason = reason
        write(
            target,
            Recording.of(
                spans,
                partial=True,
                reason=reason,
                trace_id=tracer.trace_id,
                events=events,
                metric_deltas=deltas,
                elapsed_seconds=time.perf_counter() - self._start_wall,
                span_capacity=self._spans.maxlen,
                event_capacity=self._events.maxlen,
            ),
        )
        return str(target)

    # ------------------------------------------------------------------ #
    # SIGUSR1
    # ------------------------------------------------------------------ #
    def install_signal_handler(self, signum: int = signal.SIGUSR1) -> None:
        """Dump on ``signum`` via a self-pipe and a watcher thread.

        The registered handler does exactly one async-signal-safe thing --
        write a byte to a pre-opened pipe fd -- and the blocking read on
        the other end wakes a daemon thread that performs the dump outside
        signal context.  Signals can only be installed from the main
        thread; a no-op when disabled.
        """
        if self.tracer is None or self._signal_fds is not None:
            return
        read_fd, write_fd = os.pipe()
        self._signal_fds = (read_fd, write_fd)
        self._installed_signal = signum

        def _handler(_signum: int, _frame: object) -> None:
            os.write(write_fd, b"f")

        self._previous_handler = signal.signal(signum, _handler)
        watcher = threading.Thread(
            target=self._watch_signal_pipe,
            args=(read_fd,),
            name="repro-flight-watcher",
            daemon=True,
        )
        self._signal_watcher = watcher
        watcher.start()

    def _watch_signal_pipe(self, read_fd: int) -> None:
        while True:
            try:
                data = os.read(read_fd, 1)
            except OSError:
                return
            if not data or data == b"q":
                return
            self.event("signal_dump_requested", signal=self._installed_signal)
            self.dump("signal")

    def uninstall_signal_handler(self) -> None:
        """Restore the previous handler and stop the watcher (idempotent)."""
        fds = self._signal_fds
        if fds is None:
            return
        read_fd, write_fd = fds
        self._signal_fds = None
        if self._installed_signal is not None and self._previous_handler is not None:
            try:
                signal.signal(self._installed_signal, self._previous_handler)  # type: ignore[arg-type]
            except (ValueError, TypeError):  # not on the main thread / exotic handler
                pass
        try:
            os.write(write_fd, b"q")
        except OSError:
            pass
        watcher = self._signal_watcher
        if watcher is not None:
            watcher.join(timeout=2.0)
            self._signal_watcher = None
        os.close(write_fd)
        os.close(read_fd)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def spans(self) -> List[SpanRecord]:
        return list(self._spans)

    def events(self) -> List[Dict[str, object]]:
        return list(self._events)

    def metric_deltas(self) -> List[Dict[str, object]]:
        return list(self._metric_deltas)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"FlightRecorder({state}, spans={len(self._spans)}, "
            f"events={len(self._events)}, dumps={self.dumps_written})"
        )


def _instrument_delta(
    state: Dict[str, object], before: Optional[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """What changed for one instrument since the previous snapshot.

    Counters and histograms report the increment (``delta``); gauges report
    the new level.  ``None`` means unchanged (the delta ring stores only
    instruments that moved).
    """
    kind = state.get("type")
    if kind == "counter":
        now_value = int(state.get("value", 0))  # type: ignore[arg-type]
        then_value = int(before.get("value", 0)) if before else 0  # type: ignore[arg-type]
        if now_value == then_value and before is not None:
            return None
        return {"type": "counter", "value": now_value, "delta": now_value - then_value}
    if kind == "gauge":
        now_float = float(state.get("value", 0.0))  # type: ignore[arg-type]
        then_float = float(before.get("value", 0.0)) if before else 0.0  # type: ignore[arg-type]
        if before is not None and now_float == then_float:
            return None
        return {"type": "gauge", "value": now_float}
    if kind == "histogram":
        now_count = int(state.get("count", 0))  # type: ignore[arg-type]
        then_count = int(before.get("count", 0)) if before else 0  # type: ignore[arg-type]
        if before is not None and now_count == then_count:
            return None
        now_sum = float(state.get("sum", 0.0))  # type: ignore[arg-type]
        then_sum = float(before.get("sum", 0.0)) if before else 0.0  # type: ignore[arg-type]
        return {
            "type": "histogram",
            "count": now_count,
            "delta": now_count - then_count,
            "sum_delta": now_sum - then_sum,
        }
    return dict(state)
