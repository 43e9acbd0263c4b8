"""Buffer pool with a clock (second-chance) replacement policy.

The paper's OASIS implementation "reads disk pages from a buffer pool, which
uses a simple clock replacement policy" (Section 4.2), and Figures 7-8 study
how the pool size affects query time and per-component hit ratios.  This
module reproduces that component:

* pages are keyed by their absolute block number in the image; hits and
  misses are counted per suffix-tree region (symbols, internal nodes,
  leaves), so the regions share one pool but their hit ratios can be
  reported separately, exactly as in Figure 8;
* replacement is the classic clock algorithm: a reference bit per frame, a
  rotating hand, victims are frames whose bit is clear.  Frames are created
  as pages arrive -- a pool larger than its file never holds more frames
  than the file has blocks -- in the order the hand would walk an empty
  pool, so the eviction sequence is that of a preallocated pool;
* a frame is never changed once installed, but for its reference bit: an
  install puts a *new* frame in the victim's clock slot.  So a hit is a
  lock-free ``table.get(block)`` -- a frame taken from the table holds its
  own block's bytes even if it is evicted a moment later -- and the lock is
  taken only to install a page after its ``os.pread`` (:meth:`BufferPool.miss`,
  the read itself runs outside it) and to add one cursor call's hits
  (:meth:`BufferPool.add_hits`);
* a *request* is one page a cursor call asks for: ``hits`` (and the Figure 8
  hit ratios) count page requests, not records, while ``misses`` and
  ``evictions`` do not depend on how requests are grouped into calls;
* a short read is an error: the builder writes whole blocks, so only a cut
  file reads short, and a zero-padded page would decode as wrong records.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.blocks import BlockFile
from repro.storage.layout import Region


#: The regions as plain ints, for the hot path: an ``IntEnum`` list index
#: costs a call to its ``__index__``.
REGION_SYMBOLS, REGION_INTERNAL, REGION_LEAVES = (int(region) for region in Region)


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
    """One installed page and its clock reference bit, the only field that changes."""

    __slots__ = ("block", "data", "referenced")

    def __init__(self, block: int, data: bytes) -> None:
        self.block = block
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
        the file: :meth:`get_page` addresses a page as (region,
        block-within-region).
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
        # Frames in clock order, appended until frame_count is reached.
        self._frames: List[_Frame] = []
        #: Resident frames by absolute block.  Read without the lock: a hit
        #: is ``table.get(block)``, then ``frame.referenced = True``.
        self.table: Dict[int, _Frame] = {}
        self._clock_hand = 0
        self.statistics = BufferPoolStatistics()
        # Guards the clock, the table's writes and the counters against the
        # one other thread: a ``search_many(workers=N)`` batch thread on a
        # disk engine.  Never held across a read; nothing re-enters it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Page access
    # ------------------------------------------------------------------ #
    def miss(self, block: int, region: int) -> _Frame:
        """Read absolute ``block`` of ``region`` and install it: one miss.

        The ``os.pread`` runs outside the lock.  The lock hold after it
        counts the miss (a failed read's too) and installs the page in a new
        frame; if another thread installed the block meanwhile, that frame
        is referenced and returned instead.
        """
        data: Optional[bytes] = None
        try:
            data = self._read_physical(block)
        finally:
            with self._lock:
                statistics = self.statistics
                statistics.misses += 1
                statistics.per_region_misses[region] += 1
                if data is not None:
                    frame = self.table.get(block) or self._install(block, data)
                    frame.referenced = True
        return frame

    def add_hits(self, symbols: int, internal: int, leaves: int) -> None:
        """Add one cursor call's hits, per region, to the counters."""
        total = symbols + internal + leaves
        if not total:
            return
        with self._lock:
            statistics = self.statistics
            statistics.hits += total
            region_hits = statistics.per_region_hits
            region_hits[REGION_SYMBOLS] += symbols
            region_hits[REGION_INTERNAL] += internal
            region_hits[REGION_LEAVES] += leaves

    def get_page(self, region: Region, block_in_region: int) -> bytes:
        """Return one page of ``region``: a call of one request."""
        block = self._region_starts[region] + block_in_region
        frame = self.table.get(block)
        if frame is None:
            return self.miss(block, region).data
        frame.referenced = True
        hits = _per_region()
        hits[region] = 1
        self.add_hits(*hits)
        return frame.data

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
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

    def _install(self, block: int, data: bytes) -> _Frame:
        """Put a new frame for ``block`` in the slot the clock picks; the caller holds the lock."""
        frame = _Frame(block, data)
        frames = self._frames
        if len(frames) < self.frame_count:
            # Still filling: the next frame is where the hand would stand.
            frames.append(frame)
            self._clock_hand = len(frames) % self.frame_count
        else:
            hand = self._clock_hand
            victim = frames[hand]
            while victim.referenced:
                # Second chance: clear the bit and advance the hand.
                victim.referenced = False
                hand = (hand + 1) % self.frame_count
                victim = frames[hand]
            del self.table[victim.block]
            self.statistics.evictions += 1
            frames[hand] = frame
            self._clock_hand = (hand + 1) % self.frame_count
        self.table[block] = frame
        return frame

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    @property
    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        return len(self.table)

    def clear(self) -> None:
        """Drop every cached page (statistics are left untouched)."""
        with self._lock:
            self._frames = []
            self.table.clear()
            self._clock_hand = 0

    def reset_statistics(self) -> None:
        with self._lock:
            self.statistics.reset()

    def __repr__(self) -> str:
        return (
            f"BufferPool(frames={self.frame_count}, block_size={self.block_size}, "
            f"resident={self.resident_pages}, hit_ratio={self.statistics.hit_ratio:.3f})"
        )
