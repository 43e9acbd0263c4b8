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
  rotating hand, victims are frames whose bit is clear.  Frames fill as
  pages arrive, in the order the hand would walk an empty pool, so the
  eviction sequence is that of a preallocated pool; a pool larger than its
  file never holds more frames than the file has blocks;
* the pool's state is flat, so that C can read and write it in place:
  ``pages`` (one ``bytes`` per frame, in clock order), ``blocks`` (the block
  in each frame, or -1), ``referenced`` (the reference bits), ``slot_of``
  (each block's frame, or -1), ``counters`` (the hand, the filled count,
  the statistics) and ``spare`` (one item: the page the last eviction
  freed, or None).  A request is :meth:`BufferPool.page`.  Where the
  compiled step builds (``repro/core/_column_step.c``), ``pool.page`` is its
  C body, which the disk cursor's node step runs too: a hit sets the bit and
  counts; a miss counts, releases the GIL around its ``pread``, then looks
  the block up again -- another thread may have installed it meanwhile --,
  runs the clock and installs.  All of it but the read holds the GIL, so
  the C body takes no lock.  The Python body below is its twin, for hosts
  where it does not build: the same steps under the pool's lock, the read
  outside it;
* an install puts the page's ``bytes`` in the victim's frame.  A page is
  written into only after the pool evicted it and nothing but the pool
  holds it: the C body keeps such a victim as the spare and reads the next
  miss into it instead of allocating, so bytes a caller holds keep their
  block's content after the frame is evicted.  The Python body cannot write
  into ``bytes`` and leaves the spare empty; reuse changes no frame, bit,
  hand, counter or returned content, so the two bodies stay twins;
* a *request* is one page a cursor call asks for: ``hits`` (and the Figure 8
  hit ratios) count page requests, not records, while ``misses`` and
  ``evictions`` do not depend on how requests are grouped into calls;
* a short read is an error: the builder writes whole blocks, so only a cut
  file reads short, and a zero-padded page would decode as wrong records.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from typing import Dict, List, Optional, Tuple

from repro.storage.blocks import BlockFile
from repro.storage.layout import Region


#: The regions as plain ints, for the hot path: an ``IntEnum`` list index
#: costs a call to its ``__index__``.
REGION_SYMBOLS, REGION_INTERNAL, REGION_LEAVES = (int(region) for region in Region)

#: The slots of :attr:`BufferPool.counters`, as ``_column_step.c`` numbers
#: them: per-region hits and misses are ``REGION_HITS + region`` and
#: ``REGION_MISSES + region``; the time inside ``pread`` is in nanoseconds.
HAND, FILLED, HITS, MISSES, EVICTIONS, REGION_HITS = range(6)
REGION_MISSES = REGION_HITS + len(Region)
READ_NANOSECONDS = REGION_MISSES + len(Region)
COUNTERS = READ_NANOSECONDS + 1


class BufferPoolStatistics:
    """Hit/miss/eviction counters, overall and per region: a live view of a
    pool's :attr:`~BufferPool.counters`.

    ``per_region_hits`` and ``per_region_misses`` are indexed by
    :class:`Region`; ``read_seconds`` is the wall time spent inside ``pread``.
    """

    __slots__ = ("counters",)

    def __init__(self, counters: Optional[array] = None) -> None:
        self.counters = array("q", bytes(8 * COUNTERS)) if counters is None else counters

    @property
    def hits(self) -> int:
        return self.counters[HITS]

    @property
    def misses(self) -> int:
        return self.counters[MISSES]

    @property
    def evictions(self) -> int:
        return self.counters[EVICTIONS]

    @property
    def per_region_hits(self) -> List[int]:
        return self.counters[REGION_HITS:REGION_MISSES].tolist()

    @property
    def per_region_misses(self) -> List[int]:
        return self.counters[REGION_MISSES:READ_NANOSECONDS].tolist()

    @property
    def read_seconds(self) -> float:
        return self.counters[READ_NANOSECONDS] / 1e9

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from the pool (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def region_hit_ratio(self, region: Region) -> float:
        """Hit ratio for one suffix-tree component (the Figure 8 quantity)."""
        hits = self.counters[REGION_HITS + region]
        total = hits + self.counters[REGION_MISSES + region]
        return hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every statistic; the clock's hand and filled count stay."""
        for slot in range(HITS, COUNTERS):
            self.counters[slot] = 0

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
            "read_seconds": self.read_seconds,
        }


class BufferPool:
    """A fixed-capacity page cache over a :class:`BlockFile`.

    Parameters
    ----------
    block_file:
        The backing device; the pool serves the blocks it holds when the
        pool is built.
    capacity_bytes:
        Total pool size in bytes; the pool holds at most
        ``capacity_bytes // block_size`` frames (at least one).
    """

    def __init__(self, block_file: BlockFile, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.block_size = block_file.block_size
        self.frame_count = max(1, capacity_bytes // self.block_size)
        self.capacity_bytes = self.frame_count * self.block_size
        self._file = block_file
        # Counting the blocks flushes the file: blocks written so far are
        # visible to a miss, one positional read through its descriptor.
        file_blocks = block_file.block_count
        frames = max(1, min(self.frame_count, file_blocks))
        self.pages: List[Optional[bytes]] = [None] * frames
        self.blocks = array("q", [-1]) * frames
        self.referenced = bytearray(frames)
        self.slot_of = array("i", [-1]) * file_blocks
        self.counters = array("q", bytes(8 * COUNTERS))
        #: The C body's spare page, read into by its next miss.
        self.spare: List[Optional[bytes]] = [None]
        self.statistics = BufferPoolStatistics(self.counters)
        #: What the C body reads and writes, in its order.
        self.state: Tuple[object, ...] = (
            block_file, self.block_size, self.pages, self.blocks, self.referenced,
            self.slot_of, self.counters, self.spare,
        )
        # Guards the Python body against the one other thread: a
        # ``search_many(workers=N)`` batch thread on a disk engine.  Never
        # held across a read; nothing re-enters it.
        self._lock = threading.Lock()
        from repro.core.kernels import _compiled_step  # storage sits below core

        step = _compiled_step()
        if not isinstance(step, str):
            self.page = functools.partial(step.page, self.state)  # type: ignore[method-assign]

    def page(self, block: int, region: int) -> bytes:
        """Absolute ``block``, a page of ``region``: one request.

        A hit sets the frame's reference bit.  A miss reads the block outside
        the lock, then counts (a failed read too), and installs the page
        unless another thread installed the block meanwhile.
        """
        counters = self.counters
        with self._lock:
            slot = self.slot_of[block] if 0 <= block < len(self.slot_of) else -1
            if slot >= 0:
                self.referenced[slot] = 1
                counters[HITS] += 1
                counters[REGION_HITS + region] += 1
                return self.pages[slot]  # type: ignore[return-value]
        data, nanoseconds = b"", 0
        try:
            data, nanoseconds = self._read_physical(block)
        finally:
            with self._lock:
                counters[READ_NANOSECONDS] += nanoseconds
                counters[MISSES] += 1
                counters[REGION_MISSES + region] += 1
                if len(data) == self.block_size and block < len(self.slot_of):
                    slot = self.slot_of[block]
                    self.referenced[slot if slot >= 0 else self._install(block, data)] = 1
        if len(data) != self.block_size:
            raise ValueError(
                f"{self._file.path}: block {block} reads {len(data)} of {self.block_size} "
                "bytes -- the file is cut short"
            )
        if block >= len(self.slot_of):
            raise ValueError(
                f"{self._file.path}: block {block} is past the {len(self.slot_of)} blocks "
                "the pool was built over"
            )
        return data

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _read_physical(self, block: int) -> Tuple[bytes, int]:
        """One ``pread`` of ``block``, and the nanoseconds inside it."""
        descriptor = self._file.descriptor
        if descriptor is None:
            raise ValueError("read from a closed block file")
        started = time.perf_counter_ns()
        data = os.pread(descriptor, self.block_size, block * self.block_size)
        return data, time.perf_counter_ns() - started

    def _install(self, block: int, data: bytes) -> int:
        """Put ``block`` in the frame the clock picks, and return the frame; the caller holds the lock."""
        counters, referenced, blocks = self.counters, self.referenced, self.blocks
        frames = len(blocks)
        slot = counters[FILLED]
        if slot < frames:
            # Still filling: the next frame is where the hand would stand.
            counters[FILLED] = slot + 1
        else:
            slot = counters[HAND]
            while referenced[slot]:
                # Second chance: clear the bit and advance the hand.
                referenced[slot] = 0
                slot = (slot + 1) % frames
            self.slot_of[blocks[slot]] = -1
            counters[EVICTIONS] += 1
        counters[HAND] = (slot + 1) % frames
        blocks[slot] = block
        self.pages[slot] = data
        self.slot_of[block] = slot
        return slot

    # ------------------------------------------------------------------ #
    # Management
    # ------------------------------------------------------------------ #
    @property
    def resident_pages(self) -> int:
        """Number of pages currently cached."""
        return self.counters[FILLED]

    def clear(self) -> None:
        """Drop every cached page (statistics are left untouched).

        The buffers are emptied in place: the C body may hold them.
        """
        with self._lock:
            for slot in range(self.counters[FILLED]):
                self.slot_of[self.blocks[slot]] = -1
                self.blocks[slot] = -1
                self.pages[slot] = None
                self.referenced[slot] = 0
            self.spare[0] = None
            self.counters[HAND] = self.counters[FILLED] = 0

    def reset_statistics(self) -> None:
        with self._lock:
            self.statistics.reset()

    def __repr__(self) -> str:
        return (
            f"BufferPool(frames={self.frame_count}, block_size={self.block_size}, "
            f"resident={self.resident_pages}, hit_ratio={self.statistics.hit_ratio:.3f})"
        )
