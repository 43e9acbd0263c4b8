"""A zero-dependency metrics registry: counters, gauges, histograms.

The registry is the quantitative half of the telemetry layer (spans are the
structural half): instrumented code records *how much* work happened --
nodes expanded, DP cells computed, pruning cutoffs, buffer-pool hits and
misses, backend task latencies, queue depths -- and the registry renders or
snapshots it on demand.

Design constraints, in order:

* **Cheap enough to leave on.**  Instruments are resolved once (by name) and
  then updated with one lock-protected arithmetic operation; hot loops
  resolve their instruments up front and never touch the registry dict.
* **Mergeable.**  Worker processes cannot share a registry with the parent,
  so a registry snapshots to plain dicts and merges snapshots back in --
  counters and histograms add, gauges take the latest value.
* **Fixed histogram buckets.**  Bucket boundaries are part of the instrument
  identity, so merged histograms from different processes always line up.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default latency buckets in seconds: ~exponential from 1 ms to ~16 s.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.002,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
)


class Counter:
    """A monotonically increasing count (events, cells, hits)."""

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": "counter", "value": self._value}

    def merge(self, snapshot: Dict[str, object]) -> None:
        with self._lock:
            self._value += int(snapshot.get("value", 0))

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A point-in-time value that can go both ways (queue depth, hit rate)."""

    __slots__ = ("name", "description", "_value", "_max", "_lock")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if self._value > self._max:
                self._max = self._value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    @property
    def max_value(self) -> float:
        """The high-water mark since creation (peak queue depth etc.)."""
        return self._max

    def snapshot(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self._value, "max": self._max}

    def merge(self, snapshot: Dict[str, object]) -> None:
        # Last write wins for the level; the high-water mark is a true max.
        with self._lock:
            self._value = float(snapshot.get("value", self._value))
            self._max = max(self._max, float(snapshot.get("max", 0.0)))

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """Observations bucketed at fixed boundaries (latency distributions).

    ``boundaries`` are upper-inclusive bucket edges; one implicit overflow
    bucket catches everything above the last edge.  Mean comes from the
    tracked sum/count; quantiles can be read off the cumulative counts with
    :meth:`quantile` (resolution is the bucket width, which is the deal one
    accepts for mergeable fixed buckets).
    """

    __slots__ = ("name", "description", "boundaries", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        description: str = "",
    ) -> None:
        if not boundaries:
            raise ValueError("a histogram needs at least one bucket boundary")
        ordered = tuple(float(edge) for edge in boundaries)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.name = name
        self.description = description
        self.boundaries = ordered
        self._counts = [0] * (len(ordered) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        Nearest-rank definition: the bucket containing observation number
        ``ceil(q * count)`` (at least 1), so ``q=0`` reports the bucket of
        the smallest observation -- never the edge of an empty leading
        bucket -- and ``q=1`` the bucket of the largest.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                if index < len(self.boundaries):
                    return self.boundaries[index]
                # Overflow bucket: the boundary no longer bounds; report the
                # mean of what landed there as the best available estimate.
                return self._sum / self._count
        return self.boundaries[-1]

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """``(upper_edge, count)`` pairs; ``None`` edge is the overflow bucket."""
        edges: List[Optional[float]] = list(self.boundaries) + [None]
        return list(zip(edges, self._counts))

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "boundaries": list(self.boundaries),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        if tuple(snapshot.get("boundaries", ())) != self.boundaries:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge a snapshot with "
                "different bucket boundaries"
            )
        with self._lock:
            for index, count in enumerate(snapshot.get("counts", ())):
                self._counts[index] += int(count)
            self._sum += float(snapshot.get("sum", 0.0))
            self._count += int(snapshot.get("count", 0))

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count}, mean={self.mean:.6f})"


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the instrument's type (and a histogram's boundaries); a
    later call under the same name with a different type raises, because a
    silent type change would corrupt every existing reader.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind: type, name: str, *arguments: object) -> Any:
        # Instruments are never removed, so a hit needs no lock -- the common
        # case by far: instrumented code looks its counters up per event.
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = self._instruments[name] = kind(name, *arguments)
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        description: str = "",
    ) -> Histogram:
        return self._get_or_create(Histogram, name, boundaries, description)

    # ------------------------------------------------------------------ #
    # Introspection, snapshotting, merging
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[object]:
        return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict state of every instrument (JSON- and pickle-safe)."""
        with self._lock:
            return {
                name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())
            }

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a snapshot (typically from a worker process) into this registry."""
        for name, state in snapshot.items():
            kind = state.get("type")
            if kind == "counter":
                self.counter(name).merge(state)
            elif kind == "gauge":
                self.gauge(name).merge(state)
            elif kind == "histogram":
                self.histogram(
                    name, boundaries=state.get("boundaries", DEFAULT_LATENCY_BUCKETS)
                ).merge(state)
            else:
                raise ValueError(f"metric {name!r}: unknown instrument type {kind!r}")

    def render(self) -> str:
        """A human-readable dump, one instrument per line (CLI ``--metrics``)."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                lines.append(f"{name} = {instrument.value}")
            elif isinstance(instrument, Gauge):
                lines.append(
                    f"{name} = {instrument.value:g} (max {instrument.max_value:g})"
                )
            elif isinstance(instrument, Histogram):
                lines.append(
                    f"{name}: count={instrument.count} mean={instrument.mean:.6f}s "
                    f"p50<={instrument.quantile(0.5):g} p99<={instrument.quantile(0.99):g}"
                )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"
