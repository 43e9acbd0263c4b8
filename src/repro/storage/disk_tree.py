"""DiskSuffixTree: cursor-style traversal of the on-disk image.

Every node, arc-symbol and leaf access goes through the buffer pool, so the
access pattern of a search (the hit ratios of Figure 8, the degradation of
Figure 7) is observable.  The class implements the same
:class:`~repro.suffixtree.cursor.SuffixTreeCursor` interface as the in-memory
tree, so the OASIS engine runs on either representation unchanged.

The unit of work is a *page*, not a record.  One straight-line decoder,
``_read``, serves ``children()``, ``siblings()`` and ``arc_symbols()`` (and,
through ``children()``, ``leaf_positions()`` and ``sequences_below()``).  It
asks for each page it touches once, in the order a record-at-a-time reader
would first reach it, and decodes in place: the parent record, the
contiguous internal- and leaf-sibling runs of image format v2 (re-fetching
only where a run crosses a block; the paper's leaf chain is gone, see
:mod:`repro.storage.layout`), then each arc, sliced as ``bytes`` from its
symbol pages.  So ``siblings()`` makes exactly the requests of
``children()`` followed by one ``arc_symbols()`` per child.  A request
(``hits + misses``) is one page touched by one decoder stage, not one
record, while misses and evictions are exactly those of reading record by
record: a repeated request for the page just requested changes nothing in a
clock pool.  ``close()`` drops the frames, so every call on a closed cursor
raises the ``ValueError`` of a read from a closed file.  A record that
points past its region -- a child pointer past the internal records, a leaf
index past the leaf records, an arc past the symbols, a suffix past the last
sequence end -- is an ``IndexError``, raised before any request past the
region, as the in-memory tree raises it.

The search itself calls neither ``siblings()`` nor ``sequences_below()``
under the compiled kernel.  It takes :attr:`DiskSuffixTree.node_records`, a
*page source* -- the pool's flat state, each region's first block, page
payload and record count, the sequence ends -- and the kernel's C frontier
decodes each expanded node from pool pages itself: the same requests, in
the same order, as ``siblings()``, but a handle built only for a child it
keeps; and walks each hit's leaves with the requests of
``leaf_positions()``, in its order.  Both run one clock: the C frontier's
requests and ``pool.page``, which ``_read`` calls, are the same C code over
the same buffers wherever it builds (:mod:`repro.storage.buffer_pool`).
``siblings()`` and ``sequences_below()`` serve the ``live`` and
``reference`` kernels, dense columns and cursor proxies.

An image is refused at open by the checks the in-memory tree runs too
(:func:`~repro.storage.layout.check_image`): another format, a cut file
(:class:`~repro.storage.layout.ImageFormatError`) or another database.

Node handles are small immutable tuples::

    ("I", internal_index, arc_start, arc_length, depth)
    ("L", suffix_start,   arc_start, arc_length, depth)

carrying exactly the information the paper's representation makes available
locally: an internal node's arc length is its depth minus its parent's depth,
and a leaf's arc runs from ``suffix_start + parent depth`` to the end of the
suffix's sequence.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from functools import cached_property
from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.sequences.database import SequenceDatabase
from repro.storage.blocks import BlockFile
from repro.storage.buffer_pool import (
    REGION_INTERNAL,
    REGION_LEAVES,
    REGION_SYMBOLS,
    BufferPool,
    BufferPoolStatistics,
)
from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES
from repro.storage.layout import (
    INTERNAL_STRUCT,
    LAST_SIBLING_BIT,
    LEAF_STRUCT,
    NO_POINTER,
    VALUE_MASK,
    check_image,
)
from repro.suffixtree.cursor import Sibling, SuffixTreeCursor

PathLike = Union[str, os.PathLike]

NodeHandle = Tuple[str, int, int, int, int]

_unpack_internal = INTERNAL_STRUCT.unpack_from
_unpack_leaf = LEAF_STRUCT.unpack_from
_INTERNAL_SIZE = INTERNAL_STRUCT.size
_LEAF_SIZE = LEAF_STRUCT.size


class DiskSuffixTree(SuffixTreeCursor):
    """A read-only suffix tree backed by a Section-3.4 disk image.

    The engines open one only for a pool smaller than its image
    (:func:`repro.storage.open_image`); an image that fits its pool is read
    into a :class:`~repro.suffixtree.generalized.GeneralizedSuffixTree`
    instead.  Figures 7/8 construct it directly, to sweep the pool.

    Parameters
    ----------
    path:
        Path of the image written by :func:`repro.storage.build_disk_image`.
    database:
        The sequence database the image was built from (provides the alphabet
        and the global-to-local position mapping; symbol *content* is always
        read from the image through the buffer pool).
    buffer_pool_bytes:
        Buffer pool capacity; the paper's experiments vary this from 32 MB to
        512 MB (Figure 7).
    """

    def __init__(
        self,
        path: PathLike,
        database: SequenceDatabase,
        buffer_pool_bytes: int = DEFAULT_BUFFER_POOL_BYTES,
    ) -> None:
        database.freeze()
        self._database = database
        self.layout = check_image(path, database)
        self._file = BlockFile(path, block_size=self.layout.block_size)
        self.pool = BufferPool(self._file, capacity_bytes=buffer_pool_bytes)
        # One past each terminal, ascending: suffix p ends at the first entry > p.
        self._sequence_ends = database.sequence_starts[1:] + [self.layout.symbol_count]
        # Payload bytes of a record page (whole records; the rest is padding).
        self._internal_page_bytes = self.layout.internal_records_per_block * INTERNAL_STRUCT.size
        self._leaf_page_bytes = self.layout.leaf_records_per_block * LEAF_STRUCT.size
        # The pool is keyed by absolute block: region start + block in region.
        self._symbols_start = self.layout.symbols_start_block
        self._internal_start = self.layout.internal_start_block
        self._leaves_start = self.layout.leaves_start_block

    @cached_property
    def node_records(self) -> Tuple[Any, ...]:
        """The page source the compiled kernel decodes an expanded node from.

        ``(pool.state, regions, sequence ends)``: ``regions`` is one ``(first
        block, page payload bytes, record count)`` per
        :class:`~repro.storage.layout.Region`, in its order, and the ends are
        an ``array('I')``.  The C step checks the file is open, then asks
        the pool for the pages :meth:`siblings` asks for, in the same order,
        through the C body of :meth:`BufferPool.page`.
        """
        layout = self.layout
        regions = (
            (self._symbols_start, layout.block_size, layout.symbol_count),
            (self._internal_start, self._internal_page_bytes, layout.internal_count),
            (self._leaves_start, self._leaf_page_bytes, layout.leaf_slots),
        )
        return (self.pool.state, regions, array("I", self._sequence_ends))

    # ------------------------------------------------------------------ #
    # Cursor interface
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SequenceDatabase:
        return self._database

    @property
    def root(self) -> NodeHandle:
        return ("I", 0, 0, 0, 0)

    def is_leaf(self, node: NodeHandle) -> bool:
        return node[0] == "L"

    def children(self, node: NodeHandle) -> List[NodeHandle]:
        return self._read(node if node[0] == "I" else None, [], False)

    def siblings(self, node: NodeHandle) -> List[Sibling]:
        return self._read(node if node[0] == "I" else None, [], True)

    def arc(self, node: NodeHandle) -> Tuple[int, int]:
        return node[2], node[3]

    def arc_symbols(self, node: NodeHandle) -> bytes:
        return self._read(None, [node], True)[0][1]

    def string_depth(self, node: NodeHandle) -> int:
        return node[4]

    def suffix_start(self, node: NodeHandle) -> int:
        if node[0] != "L":
            raise TypeError("suffix_start is only defined for leaves")
        return node[1]

    def leaf_positions(self, node: NodeHandle) -> Iterator[int]:
        stack: List[NodeHandle] = [node]
        while stack:
            current = stack.pop()
            if current[0] == "L":
                yield current[1]
            else:
                stack.extend(reversed(self.children(current)))

    # ------------------------------------------------------------------ #
    # The decoder: what one cursor call asks of the pool, page by page
    # ------------------------------------------------------------------ #
    def _read(self, node: Optional[NodeHandle], handles: List[NodeHandle], with_arcs: bool) -> List[Any]:
        """Internal ``node``'s children appended to ``handles``; ``with_arcs``, as siblings.

        Reads the parent record, then its internal run and its leaf run, then
        the arcs of ``handles`` in order, one :meth:`BufferPool.page` request
        per page; a closed cursor raises before any request, whether the page
        is resident or not, and a record that points past its region raises
        ``IndexError`` before any request past it.
        """
        if self._file.descriptor is None:
            raise ValueError("read from a closed block file")
        layout = self.layout
        page = self.pool.page
        if node is not None:
            depth = node[4]
            page_bytes = self._internal_page_bytes
            first_block = self._internal_start
            internal_count = layout.internal_count
            if not 0 <= node[1] < internal_count:
                raise IndexError("a node index past the internal records")
            block, offset = divmod(node[1] * _INTERNAL_SIZE, page_bytes)
            data: Optional[bytes] = page(first_block + block, REGION_INTERNAL)
            _, _, child_index, leaf_index = _unpack_internal(data, offset)

            # Internal children: one contiguous run of records, decoded page
            # by page up to the record that carries the last-sibling bit.
            # ``data`` is None where the run needs its next page.
            if child_index != NO_POINTER:
                symbol_count = layout.symbol_count
                child_block, offset = divmod(child_index * _INTERNAL_SIZE, page_bytes)
                if child_block != block:
                    block, data = child_block, None
                while True:
                    if child_index >= internal_count:
                        raise IndexError("a child pointer past the internal records")
                    if data is None:
                        data = page(first_block + block, REGION_INTERNAL)
                    word, symbol_ptr, _, _ = _unpack_internal(data, offset)
                    child_depth = word & VALUE_MASK
                    if child_depth < depth or symbol_ptr + child_depth - depth > symbol_count:
                        raise IndexError("an arc past the symbol array")
                    handles.append(("I", child_index, symbol_ptr, child_depth - depth, child_depth))
                    if word & LAST_SIBLING_BIT:
                        break
                    child_index += 1
                    offset += _INTERNAL_SIZE
                    if offset == page_bytes:
                        block, offset, data = block + 1, 0, None

            # Leaf children: one contiguous run of suffix starts, the same way.
            if leaf_index != NO_POINTER:
                page_bytes = self._leaf_page_bytes
                first_block = self._leaves_start
                leaf_count = layout.leaf_slots
                ends = self._sequence_ends
                block, offset = divmod(leaf_index * _LEAF_SIZE, page_bytes)
                data = None
                while True:
                    if leaf_index >= leaf_count:
                        raise IndexError("a leaf index past the leaf records")
                    if data is None:
                        data = page(first_block + block, REGION_LEAVES)
                    (word,) = _unpack_leaf(data, offset)
                    start = word & VALUE_MASK
                    position = bisect_right(ends, start)
                    if position == len(ends):
                        raise IndexError("a suffix past the last sequence end")
                    length = ends[position] - start
                    if length < depth:
                        raise IndexError("an arc past the symbol array")
                    handles.append(("L", start, start + depth, length - depth, length))
                    if word & LAST_SIBLING_BIT:
                        break
                    leaf_index += 1
                    offset += _LEAF_SIZE
                    if offset == page_bytes:
                        block, offset, data = block + 1, 0, None
        if not with_arcs:
            return handles

        # Arcs: each sliced as ``bytes`` from the symbol pages it covers.
        block_size = layout.block_size
        first_block = self._symbols_start
        siblings: List[Sibling] = []
        for handle in handles:
            arc = b""
            if handle[3] > 0:
                block, offset = divmod(handle[2], block_size)
                block += first_block
                end = offset + handle[3]
                while True:
                    data = page(block, REGION_SYMBOLS)
                    if end <= block_size:
                        break
                    arc += data[offset:]
                    block, offset, end = block + 1, 0, end - block_size
                # Most arcs lie in one page: they are one slice, not a concatenation.
                arc = arc + data[offset:end] if arc else data[offset:end]
            siblings.append((handle, arc, handle[0] == "L"))
        return siblings

    # ------------------------------------------------------------------ #
    # Statistics and lifecycle
    # ------------------------------------------------------------------ #
    @property
    def statistics(self) -> BufferPoolStatistics:
        """Buffer pool statistics (hits, misses, per-region ratios)."""
        return self.pool.statistics

    @property
    def internal_node_count(self) -> int:
        return self.layout.internal_count

    @property
    def bytes_per_symbol(self) -> float:
        """Index space utilisation (the paper reports 12.5 bytes/symbol)."""
        # The space table divides by database symbols excluding terminals.
        return self.layout.index_size_bytes / max(1, self._database.total_symbols)

    def reset_statistics(self) -> None:
        self.pool.reset_statistics()

    def close(self) -> None:
        self._file.close()
        self.pool.clear()

    def __enter__(self) -> "DiskSuffixTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DiskSuffixTree(path={self._file.path!r}, "
            f"internal={self.layout.internal_count}, "
            f"pool_frames={self.pool.frame_count})"
        )
