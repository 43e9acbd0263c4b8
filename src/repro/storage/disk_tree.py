"""DiskSuffixTree: cursor-style traversal of the on-disk image.

Every node, arc-symbol and leaf access goes through the buffer pool, so the
access pattern of a search (the hit ratios of Figure 8, the degradation of
Figure 7) is observable.  The class implements the same
:class:`~repro.suffixtree.cursor.SuffixTreeCursor` interface as the in-memory
tree, so the OASIS engine runs on either representation unchanged.

The unit of work is a *page*, not a record.  Each cursor call runs a
*reader* -- a generator that yields the blocks it needs and is sent their
pages -- which the pool serves as one transaction (:meth:`BufferPool.serve`).
A reader asks for each page it touches once, in the order a record-at-a-time
reader would first reach it, and decodes in place.  There is one decoder per
kind of data.  ``_children_reader`` decodes a node's sibling list: the parent
record, the contiguous internal-sibling run and the contiguous leaf-sibling
run of image format v2, each re-fetching only where it crosses a block (the
paper's leaf chain, one page per leaf, is gone: see
:mod:`repro.storage.layout`).  ``_arcs_reader`` slices arcs as ``bytes``
from the symbol pages, joined eagerly when an arc crosses pages.
``children()`` runs the first, ``arc_symbols()`` the second for one node,
and ``siblings()`` -- the search's one call per expanded node -- the first
and then the second over every child.  So ``siblings()`` makes exactly the
requests of ``children()`` followed by one ``arc_symbols()`` per child, in
that order.  A pool *request* (``hits + misses``) is one page touched by one
reader stage, not one record, while misses and evictions are exactly those
of reading record by record: a repeated request for the page just requested
changes nothing in a clock pool.

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
from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Tuple, Union

from repro.sequences.database import SequenceDatabase
from repro.storage.blocks import BlockFile
from repro.storage.buffer_pool import BufferPool, BufferPoolStatistics, PageReader
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

if TYPE_CHECKING:  # pragma: no cover - annotation-only (storage sits below obs)
    from repro.obs.trace import Tracer

PathLike = Union[str, os.PathLike]

NodeHandle = Tuple[str, int, int, int, int]


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
        self.pool = BufferPool(
            self._file,
            capacity_bytes=buffer_pool_bytes,
            region_offsets=self.layout.region_offsets(),
        )
        # One past each terminal, ascending: suffix p ends at the first entry > p.
        self._sequence_ends = database.sequence_starts[1:] + [self.layout.symbol_count]
        # Payload bytes of a record page (whole records; the rest is padding).
        self._internal_page_bytes = self.layout.internal_records_per_block * INTERNAL_STRUCT.size
        self._leaf_page_bytes = self.layout.leaf_records_per_block * LEAF_STRUCT.size
        # A reader yields absolute block numbers: region start + block in region.
        self._symbols_start = self.layout.symbols_start_block
        self._internal_start = self.layout.internal_start_block
        self._leaves_start = self.layout.leaves_start_block

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
        if node[0] != "I":
            return []
        return self.pool.serve(self._children_reader(node, with_arcs=False))

    def siblings(self, node: NodeHandle) -> List[Sibling]:
        if node[0] != "I":
            return []
        return self.pool.serve(self._children_reader(node, with_arcs=True))

    def arc(self, node: NodeHandle) -> Tuple[int, int]:
        return node[2], node[3]

    def arc_symbols(self, node: NodeHandle) -> bytes:
        if node[3] <= 0:
            return b""
        return self.pool.serve(self._arcs_reader((node,)))[0][1]

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
    # Readers: what one cursor call asks of the pool, decoded page by page
    # ------------------------------------------------------------------ #
    def _children_reader(self, node: NodeHandle, with_arcs: bool) -> PageReader[List[Any]]:
        """The children of internal ``node``: handles, or siblings ``with_arcs``.

        Reads the parent record, then its internal run and its leaf run;
        ``with_arcs``, the arc stage then runs over the children in order.
        """
        depth = node[4]
        unpack_internal = INTERNAL_STRUCT.unpack_from
        record_size = INTERNAL_STRUCT.size
        page_bytes = self._internal_page_bytes
        first_block = self._internal_start
        block, offset = divmod(node[1] * record_size, page_bytes)
        page = yield first_block + block
        _, _, child_index, leaf_index = unpack_internal(page, offset)
        handles: List[NodeHandle] = []

        # Internal children: one contiguous run of records, decoded page by
        # page up to the record that carries the last-sibling bit.
        if child_index != NO_POINTER:
            child_block, offset = divmod(child_index * record_size, page_bytes)
            if child_block != block:
                block = child_block
                page = yield first_block + block
            while True:
                word, symbol_ptr, _, _ = unpack_internal(page, offset)
                child_depth = word & VALUE_MASK
                handles.append(("I", child_index, symbol_ptr, child_depth - depth, child_depth))
                if word & LAST_SIBLING_BIT:
                    break
                child_index += 1
                offset += record_size
                if offset == page_bytes:
                    block += 1
                    offset = 0
                    page = yield first_block + block

        # Leaf children: one contiguous run of suffix starts, the same way.
        if leaf_index != NO_POINTER:
            unpack_leaf = LEAF_STRUCT.unpack_from
            record_size = LEAF_STRUCT.size
            page_bytes = self._leaf_page_bytes
            first_block = self._leaves_start
            ends = self._sequence_ends
            block, offset = divmod(leaf_index * record_size, page_bytes)
            page = yield first_block + block
            while True:
                (word,) = unpack_leaf(page, offset)
                start = word & VALUE_MASK
                length = ends[bisect_right(ends, start)] - start
                handles.append(("L", start, start + depth, length - depth, length))
                if word & LAST_SIBLING_BIT:
                    break
                offset += record_size
                if offset == page_bytes:
                    block += 1
                    offset = 0
                    page = yield first_block + block

        if not with_arcs:
            return handles
        return (yield from self._arcs_reader(handles))

    def _arcs_reader(self, handles: Iterable[NodeHandle]) -> PageReader[List[Sibling]]:
        """``(handle, arc, is_leaf)`` per handle, each arc sliced from its symbol pages."""
        block_size = self.layout.block_size
        first_block = self._symbols_start
        siblings: List[Sibling] = []
        for handle in handles:
            length = handle[3]
            arc = b""
            if length > 0:
                block, offset = divmod(handle[2], block_size)
                end = offset + length
                page = yield first_block + block
                if end <= block_size:
                    arc = page[offset:end]
                else:
                    # The arc crosses a page: join the pages it covers, eagerly.
                    chunks = [page[offset:]]
                    while end > block_size:
                        block += 1
                        end -= block_size
                        page = yield first_block + block
                        chunks.append(page[:end])
                    arc = b"".join(chunks)
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

    def instrument(self, tracer: Optional["Tracer"]) -> None:
        """Attach a tracer to the buffer pool (see :meth:`BufferPool.instrument`)."""
        self.pool.instrument(tracer)

    def close(self) -> None:
        self._file.close()

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
