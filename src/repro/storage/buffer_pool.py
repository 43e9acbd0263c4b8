"""Buffer pool with a clock (second-chance) replacement policy.

The paper's OASIS implementation "reads disk pages from a buffer pool, which
uses a simple clock replacement policy" (Section 4.2), and Figures 7-8 study
how the pool size affects query time and per-component hit ratios.  This
module reproduces that component:

* pages are keyed by their absolute block number in the image; each frame
  remembers which of the three suffix-tree regions (symbols, internal nodes,
  leaves) its page belongs to, so the regions share one pool but their hit
  ratios can be reported separately, exactly as in Figure 8;
* replacement is the classic clock algorithm: a reference bit per frame, a
  rotating hand, victims are frames whose bit is clear.  Frames are created
  as pages arrive -- a pool larger than its file never holds more frames
  than the file has blocks -- in the order the hand would walk an empty
  pool, so the eviction sequence is that of a preallocated pool;
* a *reader* is a generator that yields the block number of each page it
  needs and is sent that page; :meth:`BufferPool.serve` runs one to the end
  as one transaction.  It holds the pool lock across each run of resident
  pages and leaves it only for a miss's ``os.pread``, installing the page in
  the lock hold that resumes the run.  :meth:`BufferPool.get_page` is a
  transaction of one request, so hit/miss accounting lives in one place;
* a *request* is one page a reader yields: ``hits`` (and the Figure 8 hit
  ratios) count page requests, not records, while ``misses`` and
  ``evictions`` do not depend on how requests are grouped into readers;
* a short read is an error: the builder writes whole blocks, so only a cut
  file reads short, and a zero-padded page would decode as wrong records.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotation-only (storage sits below obs)
    from repro.obs.metrics import Counter
    from repro.obs.trace import Tracer

from repro.storage.blocks import BlockFile
from repro.storage.layout import Region

_Result = TypeVar("_Result")

#: A page reader: yields the absolute block number of each page it needs, is
#: sent that page's bytes, and returns its result (see :meth:`BufferPool.serve`).
PageReader = Generator[int, bytes, _Result]


def _per_region() -> List[int]:
    return [0] * len(Region)


@dataclass
class BufferPoolStatistics:
    """Hit/miss/eviction counters, overall and per region.

    ``per_region_hits`` and ``per_region_misses`` are indexed by
    :class:`Region`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    per_region_hits: List[int] = field(default_factory=_per_region)
    per_region_misses: List[int] = field(default_factory=_per_region)

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
        # In place: a running transaction holds these lists.
        self.per_region_hits[:] = _per_region()
        self.per_region_misses[:] = _per_region()

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
        }


class _Frame:
    """One buffer frame: a cached page, its region and its clock reference bit."""

    __slots__ = ("block", "region", "data", "referenced")

    def __init__(self, block: int, region: Region, data: bytes) -> None:
        self.block = block
        self.region = region
        self.data = data
        self.referenced = True


def _one_page(block: int) -> PageReader[bytes]:
    return (yield block)


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
        the file: :meth:`get_page` addresses a page as (region,
        block-within-region), and a page's region is the one it falls in.
    """

    def __init__(
        self,
        block_file: BlockFile,
        capacity_bytes: int,
        region_offsets: Dict[Region, int],
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.block_size = block_file.block_size
        self.frame_count = max(1, capacity_bytes // self.block_size)
        self.capacity_bytes = self.frame_count * self.block_size
        # A miss is one positional read through the file's descriptor;
        # blocks written so far are made visible.
        block_file.flush()
        self._file = block_file
        self._region_starts = dict(region_offsets)
        # By start block: a block belongs to the last region starting at or
        # before it (the first region also takes any blocks before it).
        by_start = sorted((start, region) for region, start in region_offsets.items())
        self._sorted_starts = [0] + [start for start, _ in by_start[1:]]
        self._sorted_regions = [region for _, region in by_start]

        # Frames in clock order, appended until frame_count is reached.
        self._frames: List[_Frame] = []
        self._page_table: Dict[int, _Frame] = {}
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
        # (a positional pread) happens *outside* it, so concurrent misses
        # overlap as real disk reads would.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def instrument(self, tracer: Optional["Tracer"]) -> None:
        """Attach a :class:`~repro.obs.Tracer`; ``None`` detaches.

        Hit/miss/eviction counters are recorded into ``tracer.metrics``
        (instruments resolved once here, so a transaction pays one counter
        increment per lock hold, not a registry lookup per page).  When
        ``tracer.io_spans`` is set, each physical read is additionally
        wrapped in a ``pool.miss`` span -- useful for inspecting individual
        stalls, too voluminous to leave on for whole workloads.
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
    def serve(self, reader: PageReader[_Result]) -> _Result:
        """Run ``reader`` to its end as one transaction and return its result.

        Every block the reader yields is one request, answered in the order
        asked.  The lock is held across each run of resident pages -- the
        reader decodes between requests under it, which is CPU work on pages
        already in memory -- and is left only to read a missing page; the
        lock hold that resumes the run installs that page first.  Hits are
        added to the counters once per hold.
        """
        resume = reader.send
        table = self._page_table
        statistics = self.statistics
        region_hits = statistics.per_region_hits
        block = 0
        region = Region.SYMBOLS
        page: Optional[bytes] = None  # sending None starts the reader
        while True:
            with self._lock:
                hits = 0
                try:
                    if page is not None:
                        self._install(block, region, page)
                    block = resume(page)
                    frame = table.get(block)
                    while frame is not None:
                        frame.referenced = True
                        hits += 1
                        region_hits[frame.region] += 1
                        block = resume(frame.data)
                        frame = table.get(block)
                except StopIteration as finished:
                    result: _Result = finished.value
                    return result
                finally:
                    statistics.hits += hits
                    if hits and self._metric_hits is not None:
                        self._metric_hits.inc(hits)
                region = self._region_of(block)
                statistics.misses += 1
                statistics.per_region_misses[region] += 1
            if self._metric_misses is not None:
                self._metric_misses.inc()
            # Two threads missing the same page may both read it; the second
            # install is a harmless refresh.  Keeping the read outside the
            # pool lock is what lets a thread pool overlap its miss stalls.
            tracer = self._tracer
            if tracer is not None and tracer.io_spans:
                with tracer.span("pool.miss", region=int(region), block=block, phase="pool_io"):
                    page = self._read_physical(block)
            else:
                page = self._read_physical(block)

    def get_page(self, region: Region, block_in_region: int) -> bytes:
        """Return one page of ``region``: a transaction of one request."""
        return self.serve(_one_page(self._region_starts[region] + block_in_region))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _region_of(self, block: int) -> Region:
        return self._sorted_regions[bisect_right(self._sorted_starts, block) - 1]

    def _read_physical(self, block: int) -> bytes:
        descriptor = self._file.descriptor
        if descriptor is None:
            raise ValueError("read from a closed block file")
        size = self.block_size
        data = os.pread(descriptor, size, block * size)
        if len(data) != size:
            raise ValueError(
                f"{self._file.path}: block {block} reads {len(data)} of {size} bytes "
                "-- the file is cut short"
            )
        return data

    def _install(self, block: int, region: Region, data: bytes) -> None:
        """Place a page in a frame chosen by the clock algorithm.

        Callers hold ``self._lock``.  A page already installed by a racing
        reader is refreshed in place instead of being duplicated.
        """
        table = self._page_table
        frame = table.get(block)
        if frame is not None:
            frame.data = data
            frame.referenced = True
            return
        frames = self._frames
        if len(frames) < self.frame_count:
            # Still filling: the next frame is where the hand would stand.
            frame = _Frame(block, region, data)
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
            del table[frame.block]
            self.statistics.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
            frame.block = block
            frame.region = region
            frame.data = data
            frame.referenced = True
            self._clock_hand = (hand + 1) % self.frame_count
        table[block] = frame

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    @property
    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        return len(self._page_table)

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
