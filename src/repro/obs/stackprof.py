"""Sampling wall-clock profiler with span-phase attribution.

The repo's one profiler.  A deterministic profiler instruments every call,
which distorts exactly the code it is most needed for here: the tight
pure-Python DP loop in ``core/kernels.py`` makes millions of cheap calls,
and per-call bookkeeping inflates their apparent share.
:class:`StackProfiler` takes the opposite trade -- a background thread wakes every few milliseconds, walks
``sys._current_frames()``, and counts collapsed stacks.  Wall-clock, not
CPU: a thread blocked on pool I/O or an executor queue is *sampled where it
blocks*, which is what latency debugging needs.

Each sample is joined against the owning tracer's cross-thread open-span
map (:meth:`~repro.obs.trace.Tracer.active_spans`): the innermost open span
carrying a ``phase`` attribute labels the sample (``expand`` / ``scatter``
/ ``shard`` / ``merge`` / ``pool_io``), so the profile answers not just
"which function" but "during which part of the search".

Exports:

* :meth:`StackProfiler.collapsed` -- classic semicolon-collapsed stack
  lines (``frame;frame;frame count``), the one file format, which
  flamegraph tools and browser profile viewers import;
* :meth:`StackProfiler.share_of` -- leaf-frame (own-time) share of samples
  whose innermost frame matches a substring (``core/kernels`` is the DP
  hot loop).

Zero-dependency, and the usual inert contract: the profiler only costs
anything between :meth:`start` and :meth:`stop`, and a ``tracer=None``
profiler still works -- samples simply all land in the ``other`` phase.
"""

from __future__ import annotations

import sys
import threading
import time
from types import FrameType
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.obs.trace import Tracer

#: Default sampling interval in seconds.  ~5 ms keeps the sampler's own
#: GIL time (one frame walk per tick) near a tenth of the workload while
#: still landing hundreds of samples on a benchmark-sized search.
DEFAULT_INTERVAL = 0.005

#: Phase label for samples with no phase-carrying open span.
UNATTRIBUTED_PHASE = "other"

#: Maximum frames kept per sample (innermost first); deeper stacks are
#: truncated at the root end.  Bounds memory on pathological recursion.
MAX_STACK_DEPTH = 128


def _format_frame(frame: FrameType) -> str:
    """``repro/core/expand.py:advance`` -- short path + function name.

    Paths are shortened to start at their last ``repro/`` component, so
    frames are stable across checkouts and virtualenvs; frames outside the
    package keep their basename.
    """
    filename = frame.f_code.co_filename.replace("\\", "/")
    marker = "/repro/"
    position = filename.rfind(marker)
    if position >= 0:
        short = filename[position + 1 :]
    else:
        short = filename.rsplit("/", 1)[-1]
    return f"{short}:{frame.f_code.co_name}"


def _collapse(frame: Optional[FrameType]) -> Tuple[str, ...]:
    """The collapsed stack for one thread, outermost frame first."""
    frames: List[str] = []
    while frame is not None and len(frames) < MAX_STACK_DEPTH:
        frames.append(_format_frame(frame))
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


class StackProfiler:
    """Samples every thread's Python stack on a fixed wall-clock interval.

    Parameters
    ----------
    tracer:
        Used only to join samples against open spans for phase attribution;
        ``None`` labels every sample :data:`UNATTRIBUTED_PHASE`.
    interval:
        Seconds between samples.
    """

    def __init__(
        self,
        tracer: Optional["Tracer"] = None,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.tracer = tracer
        self.interval = float(interval)
        #: ``(phase, collapsed stack) -> sample count``.
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.sample_count = 0
        self._started_wall = 0.0
        self.elapsed_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "StackProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._stop_event.clear()
        self._started_wall = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-stackprof", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "StackProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.elapsed_seconds += time.perf_counter() - self._started_wall
        return self

    def __enter__(self) -> "StackProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        skip = {threading.get_ident()}
        while not self._stop_event.wait(self.interval):
            self._sample_once(skip)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _sample_once(self, skip_idents: "set[int]") -> None:
        frames = sys._current_frames()
        tracer = self.tracer
        active = tracer.active_spans() if tracer is not None else {}
        with self._lock:
            for ident, frame in frames.items():
                if ident in skip_idents:
                    continue
                stack = _collapse(frame)
                if not stack:
                    continue
                phase = UNATTRIBUTED_PHASE
                spans = active.get(ident)
                if spans:
                    # Innermost span with a phase attribute wins.
                    for span in reversed(spans):
                        value = span.attributes.get("phase")
                        if isinstance(value, str):
                            phase = value
                            break
                key = (phase, stack)
                self._counts[key] = self._counts.get(key, 0) + 1
                self.sample_count += 1

    # ------------------------------------------------------------------ #
    # Reading the profile
    # ------------------------------------------------------------------ #
    def counts(self) -> Dict[Tuple[str, Tuple[str, ...]], int]:
        with self._lock:
            return dict(self._counts)

    def phase_shares(self) -> Dict[str, float]:
        """Fraction of all samples attributed to each phase."""
        with self._lock:
            total = self.sample_count
            if not total:
                return {}
            shares: Dict[str, float] = {}
            for (phase, _stack), count in self._counts.items():
                shares[phase] = shares.get(phase, 0.0) + count
        return {phase: count / total for phase, count in sorted(shares.items())}

    def share_of(self, substring: str, phase: Optional[str] = None) -> float:
        """Leaf-frame (own-time) sample share of frames matching ``substring``.

        Matches the innermost frame only (own time, not cumulative).
        Restrict to one phase by passing ``phase``.
        """
        with self._lock:
            total = 0
            matched = 0
            for (sample_phase, stack), count in self._counts.items():
                if phase is not None and sample_phase != phase:
                    continue
                total += count
                if substring in stack[-1]:
                    matched += count
        return matched / total if total else 0.0

    # ------------------------------------------------------------------ #
    # Exports
    # ------------------------------------------------------------------ #
    def collapsed(self, include_phase: bool = True) -> str:
        """Semicolon-collapsed stack lines, sorted, one ``stack count`` per line.

        With ``include_phase`` the phase label leads the stack as a synthetic
        root frame (``phase:expand;...``), so flamegraphs group by phase.
        """
        with self._lock:
            items = sorted(self._counts.items())
        lines: List[str] = []
        for (phase, stack), count in items:
            frames = (f"phase:{phase}",) + stack if include_phase else stack
            lines.append(f"{';'.join(frames)} {count}")
        return "\n".join(lines)

    def write_collapsed(self, path: str, include_phase: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed(include_phase))
            handle.write("\n")

    def __repr__(self) -> str:
        running = self._thread is not None
        return (
            f"StackProfiler(interval={self.interval}, running={running}, "
            f"samples={self.sample_count})"
        )

