"""Buffer pool with a clock (second-chance) replacement policy.

The paper's OASIS implementation "reads disk pages from a buffer pool, which
uses a simple clock replacement policy" (Section 4.2), and Figures 7-8 study
how the pool size affects query time and per-component hit ratios.  This
module reproduces that component:

* pages are keyed by ``(region, block number)`` so the three suffix-tree
  regions (symbols, internal nodes, leaves) share one pool but their hit
  ratios can be reported separately, exactly as in Figure 8;
* replacement is the classic clock algorithm: a reference bit per frame, a
  rotating hand, victims are frames whose bit is clear.  Frames are created
  as pages arrive -- a pool larger than its file never holds more frames
  than the file has blocks -- in the order the hand would walk an empty
  pool, so the eviction sequence is that of a preallocated pool;
* a *request* is one :meth:`BufferPool.get_page` call, and the disk cursor
  makes one per page a cursor call touches, however many records it decodes
  from it: ``hits`` (and the Figure 8 hit ratios) count page requests, not
  records, while ``misses`` and ``evictions`` do not depend on batching;
* an optional *simulated miss latency* lets experiments charge a fixed cost
  per physical read, so the 2003-era disk behaviour is visible even though a
  modern OS page cache hides real read latency.
"""

from __future__ import annotations

import enum
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only (storage sits below obs)
    from repro.obs.metrics import Counter
    from repro.obs.trace import Tracer

from repro.storage.blocks import BlockFile


class Region(enum.IntEnum):
    """The three components of the suffix-tree disk image (Section 3.4)."""

    SYMBOLS = 0
    INTERNAL_NODES = 1
    LEAF_NODES = 2


@dataclass
class BufferPoolStatistics:
    """Hit/miss/eviction counters, overall and per region."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    per_region_hits: Dict[Region, int] = field(
        default_factory=lambda: {region: 0 for region in Region}
    )
    per_region_misses: Dict[Region, int] = field(
        default_factory=lambda: {region: 0 for region in Region}
    )
    simulated_io_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from the pool (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def region_hit_ratio(self, region: Region) -> float:
        """Hit ratio for one suffix-tree component (the Figure 8 quantity)."""
        total = self.per_region_hits[region] + self.per_region_misses[region]
        return self.per_region_hits[region] / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.simulated_io_seconds = 0.0
        for region in Region:
            self.per_region_hits[region] = 0
            self.per_region_misses[region] = 0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict summary convenient for reports."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
            "symbols_hit_ratio": self.region_hit_ratio(Region.SYMBOLS),
            "internal_hit_ratio": self.region_hit_ratio(Region.INTERNAL_NODES),
            "leaf_hit_ratio": self.region_hit_ratio(Region.LEAF_NODES),
            "simulated_io_seconds": self.simulated_io_seconds,
        }


class _Frame:
    """One buffer frame: a cached page plus its clock reference bit."""

    __slots__ = ("key", "data", "referenced")

    def __init__(self, key: Tuple[Region, int], data: bytes) -> None:
        self.key = key
        self.data = data
        self.referenced = True


class BufferPool:
    """A fixed-capacity page cache over a :class:`BlockFile`.

    Parameters
    ----------
    block_file:
        The backing device.
    capacity_bytes:
        Total pool size in bytes; the pool holds at most
        ``capacity_bytes // block_size`` frames (at least one), created on
        demand.
    region_offsets:
        Maps each :class:`Region` to the block number at which it starts in
        the file; page requests are addressed as (region, block-within-region)
        and translated here.
    simulated_miss_latency:
        Seconds charged (accumulated in the statistics, and optionally slept)
        for every physical read.  Defaults to 0.
    sleep_on_miss:
        When ``True`` the pool really sleeps for the simulated latency; by
        default it only accounts for it, which keeps experiments fast while
        still letting them report disk-bound timings.
    """

    def __init__(
        self,
        block_file: BlockFile,
        capacity_bytes: int,
        region_offsets: Dict[Region, int],
        simulated_miss_latency: float = 0.0,
        sleep_on_miss: bool = False,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if simulated_miss_latency < 0:
            raise ValueError("simulated_miss_latency must be non-negative")
        self.block_size = block_file.block_size
        self.frame_count = max(1, capacity_bytes // self.block_size)
        self.capacity_bytes = self.frame_count * self.block_size
        # A miss is one positional read through the file's descriptor, at a
        # byte offset resolved here; blocks written so far are made visible.
        block_file.flush()
        self._file = block_file
        self._region_bytes = {
            region: start * self.block_size for region, start in region_offsets.items()
        }
        self.simulated_miss_latency = simulated_miss_latency
        self.sleep_on_miss = sleep_on_miss

        # Frames in clock order, appended until frame_count is reached.
        self._frames: List[_Frame] = []
        self._page_table: Dict[Tuple[Region, int], _Frame] = {}
        self._clock_hand = 0
        self.statistics = BufferPoolStatistics()
        # Telemetry is attached (not constructed here) so the pool stays
        # dependency-free; instruments are resolved once in instrument().
        self._tracer: Optional["Tracer"] = None
        self._metric_hits: Optional["Counter"] = None
        self._metric_misses: Optional["Counter"] = None
        self._metric_evictions: Optional["Counter"] = None
        # The pool is shared by every concurrent query execution: the table
        # and frame metadata are guarded by one lock, while the physical read
        # (a positional pread, and the simulated miss latency) happens
        # *outside* it, so concurrent misses overlap as real disk reads would.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def instrument(self, tracer: Optional["Tracer"]) -> None:
        """Attach a :class:`~repro.obs.Tracer`; ``None`` detaches.

        Hit/miss/eviction counters are recorded into ``tracer.metrics``
        (instruments resolved once here, so the page path pays one counter
        increment, not a registry lookup).  When ``tracer.io_spans`` is set,
        each physical read is additionally wrapped in a ``pool.miss`` span
        -- useful for inspecting individual stalls, too voluminous to leave
        on for whole workloads.
        """
        self._tracer = tracer
        if tracer is None:
            self._metric_hits = self._metric_misses = self._metric_evictions = None
            return
        metrics = tracer.metrics
        self._metric_hits = metrics.counter("pool.hits", "buffer-pool page hits")
        self._metric_misses = metrics.counter("pool.misses", "buffer-pool page misses")
        self._metric_evictions = metrics.counter(
            "pool.evictions", "buffer-pool frames evicted by the clock hand"
        )

    # ------------------------------------------------------------------ #
    # Page access
    # ------------------------------------------------------------------ #
    def get_page(self, region: Region, block_in_region: int) -> bytes:
        """Return one page of ``region``, reading it on a miss (thread-safe)."""
        key = (region, block_in_region)
        with self._lock:
            statistics = self.statistics
            frame = self._page_table.get(key)
            if frame is not None:
                frame.referenced = True
                statistics.hits += 1
                statistics.per_region_hits[region] += 1
                if self._metric_hits is not None:
                    self._metric_hits.inc()
                return frame.data
            statistics.misses += 1
            statistics.per_region_misses[region] += 1
            if self.simulated_miss_latency:
                statistics.simulated_io_seconds += self.simulated_miss_latency
        if self._metric_misses is not None:
            self._metric_misses.inc()

        # Two threads missing the same page may both read it; the second
        # install is a harmless refresh.  Keeping the read outside the pool
        # lock is what lets a thread pool overlap its miss stalls.
        tracer = self._tracer
        if tracer is not None and tracer.io_spans:
            with tracer.span(
                "pool.miss", region=int(region), block=block_in_region, phase="pool_io"
            ):
                data = self._read_physical(region, block_in_region)
        else:
            data = self._read_physical(region, block_in_region)
        with self._lock:
            self._install(key, data)
        return data

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _read_physical(self, region: Region, block_in_region: int) -> bytes:
        if self.simulated_miss_latency and self.sleep_on_miss:
            # Sleeping releases the GIL, so concurrent misses stall in
            # parallel -- the behaviour a real multi-client disk system shows.
            time.sleep(self.simulated_miss_latency)
        descriptor = self._file.descriptor
        if descriptor is None:
            raise ValueError("read from a closed block file")
        size = self.block_size
        data = os.pread(descriptor, size, self._region_bytes[region] + block_in_region * size)
        # A short block at the end of the file reads as zero-padded.
        return data if len(data) == size else data.ljust(size, b"\x00")

    def _install(self, key: Tuple[Region, int], data: bytes) -> None:
        """Place a page in a frame chosen by the clock algorithm.

        Callers hold ``self._lock``.  A page already installed by a racing
        reader is refreshed in place instead of being duplicated.
        """
        table = self._page_table
        frame = table.get(key)
        if frame is not None:
            frame.data = data
            frame.referenced = True
            return
        frames = self._frames
        if len(frames) < self.frame_count:
            # Still filling: the next frame is where the hand would stand.
            frame = _Frame(key, data)
            frames.append(frame)
            self._clock_hand = len(frames) % self.frame_count
        else:
            hand = self._clock_hand
            frame = frames[hand]
            while frame.referenced:
                # Second chance: clear the bit and advance the hand.
                frame.referenced = False
                hand = (hand + 1) % self.frame_count
                frame = frames[hand]
            del table[frame.key]
            self.statistics.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
            frame.key = key
            frame.data = data
            frame.referenced = True
            self._clock_hand = (hand + 1) % self.frame_count
        table[key] = frame

    def resource_sample(self) -> Dict[str, float]:
        """Point-in-time occupancy/hit-ratio state for the resource sampler.

        One lock acquisition per call (the sampler ticks a few times per
        second at most); the returned dict is a consistent snapshot.
        """
        with self._lock:
            resident = float(len(self._page_table))
            return {
                "resident_pages": resident,
                "frame_count": float(self.frame_count),
                "occupancy": resident / self.frame_count,
                "hit_ratio": self.statistics.hit_ratio,
            }

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    @property
    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        return len(self._page_table)

    def contains(self, region: Region, block_in_region: int) -> bool:
        """Whether a page is currently resident (used by tests)."""
        return (region, block_in_region) in self._page_table

    def clear(self) -> None:
        """Drop every cached page (statistics are left untouched)."""
        with self._lock:
            self._frames = []
            self._page_table.clear()
            self._clock_hand = 0

    def reset_statistics(self) -> None:
        with self._lock:
            self.statistics.reset()

    def __repr__(self) -> str:
        return (
            f"BufferPool(frames={self.frame_count}, block_size={self.block_size}, "
            f"resident={self.resident_pages}, hit_ratio={self.statistics.hit_ratio:.3f})"
        )
