"""The object-tree image writer: the byte-identity oracle of ``build_disk_image``.

Before the tree was built as flat record arrays straight from sorted suffixes
and LCPs (:mod:`repro.suffixtree.build`), it was a tree of node objects,
and a level-order walk over it *was* the image builder.  Both are kept here,
as the independent implementation the record arrays are compared against,
byte for byte: :func:`object_tree` is the classic stack-based conversion of a
suffix array into node objects, and :func:`write_image_from_object_tree` the
walk that numbers the internal nodes and lays out the leaf records.

Both builders share one suffix sorter, so that sorter is held to the naive
sort, the direct LCP comparison and the rank check of
:func:`verify_suffix_array` below.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.sequences.database import SequenceDatabase
from repro.storage.blocks import BLOCK_SIZE_DEFAULT, BlockFile
from repro.storage.layout import (
    DiskLayout,
    INTERNAL_STRUCT,
    LAST_SIBLING_BIT,
    LEAF_STRUCT,
    NO_POINTER,
    VALUE_MASK,
)
from repro.suffixtree.build import sorted_suffixes

PathLike = Union[str, os.PathLike]


class InternalNode:
    """A branching node (or the root): its arc ``[edge_start, edge_end)``, depth, children."""

    def __init__(self, edge_start: int, edge_end: int, depth: int):
        self.edge_start, self.edge_end, self.depth = edge_start, edge_end, depth
        #: In lexical order of their arcs.
        self.children: List[Union["InternalNode", "LeafNode"]] = []


class LeafNode:
    """One suffix: where it starts, and its arc ``[edge_start, edge_end)``."""

    def __init__(self, suffix_start: int, edge_start: int, edge_end: int):
        self.suffix_start, self.edge_start, self.edge_end = suffix_start, edge_start, edge_end


def object_tree(database: SequenceDatabase) -> InternalNode:
    """The root of ``database``'s suffix tree, built as node objects.

    Suffixes are inserted in sorted order, and the stack always holds the
    rightmost path of the tree built so far.  For each new suffix, nodes
    deeper than its LCP with the previous suffix are popped; if the LCP falls
    strictly inside the last popped node's arc, that arc is split by a new
    internal node.  The new suffix then hangs off the stack top as a leaf.
    """
    positions, lcps = sorted_suffixes(database)
    ends = database.sequence_starts[1:] + [database.total_symbols_with_terminals]
    root = InternalNode(0, 0, 0)
    stack: List[Tuple[Union[InternalNode, LeafNode], int]] = [(root, 0)]
    for position, common in zip(positions.tolist(), lcps.tolist()):
        suffix_end = ends[bisect_right(ends, position)]
        assert common < suffix_end - position, "terminals make every suffix distinct"
        popped: Optional[Union[InternalNode, LeafNode]] = None
        while stack[-1][1] > common:
            popped = stack.pop()[0]
        top, top_depth = stack[-1]
        assert isinstance(top, InternalNode)
        if top_depth < common:
            assert popped is not None
            split = InternalNode(popped.edge_start, popped.edge_start + common - top_depth, common)
            top.children[top.children.index(popped)] = split
            popped.edge_start = split.edge_end
            split.children.append(popped)
            stack.append((split, common))
            top, top_depth = split, common
        top.children.append(LeafNode(position, position + top_depth, suffix_end))
        stack.append((top.children[-1], suffix_end - position))
    return root


def object_tree_shape(database: SequenceDatabase) -> Tuple[List[Tuple[bytes, int]], int]:
    """The object tree as :func:`tree_shape` describes a cursor's tree."""
    codes = database.concatenated_codes
    leaves, internal = [], 0
    stack: List[Tuple[Union[InternalNode, LeafNode], bytes]] = [(object_tree(database), b"")]
    while stack:
        node, label = stack.pop()
        label += codes[node.edge_start : node.edge_end]
        if isinstance(node, LeafNode):
            leaves.append((label, node.suffix_start))
        else:
            internal += 1
            stack.extend((child, label) for child in node.children)
    return sorted(leaves), internal


def tree_shape(cursor) -> Tuple[List[Tuple[bytes, int]], int]:
    """A canonical description of a tree: sorted (path label, suffix start) of
    every leaf, and the number of internal nodes (which makes it compact)."""
    leaves, internal = [], 0
    stack = [(cursor.root, b"")]
    while stack:
        node, label = stack.pop()
        label += cursor.arc_symbols(node)
        if cursor.is_leaf(node):
            leaves.append((label, cursor.suffix_start(node)))
        else:
            internal += 1
            stack.extend((child, label) for child in cursor.children(node))
    return sorted(leaves), internal


def naive_suffix_array(codes) -> List[int]:
    """Start positions of the suffixes of ``codes``, sorted by comparing them whole."""
    codes = np.asarray(codes).tolist()
    return sorted(range(len(codes)), key=lambda position: codes[position:])


def longest_common_prefix(codes, i: int, j: int, limit=None) -> int:
    """Direct (non-amortised) LCP of the suffixes starting at ``i`` and ``j``: the reference."""
    bound = len(codes) - max(i, j)
    if limit is not None:
        bound = min(bound, limit)
    length = 0
    while length < bound and codes[i + length] == codes[j + length]:
        length += 1
    return length


def naive_lcp(codes, sa) -> List[int]:
    """LCP of each suffix of ``sa`` with the one before it, one symbol at a time."""
    codes = np.asarray(codes).tolist()
    pairs = zip(sa[1:], sa[:-1])
    return [0] + [longest_common_prefix(codes, int(i), int(j)) for i, j in pairs]


def verify_suffix_array(codes: np.ndarray, suffix_array: np.ndarray) -> bool:
    """Check that ``suffix_array`` really is the sorted order of all suffixes.

    Runs in O(n) by checking adjacent pairs with the rank trick rather than
    comparing full suffixes, so it is an independent check of the sorter
    alongside :func:`naive_suffix_array`.
    """
    codes = np.asarray(codes)
    suffix_array = np.asarray(suffix_array)
    n = len(codes)
    if sorted(suffix_array.tolist()) != list(range(n)):
        return False
    if n <= 1:
        return True
    rank = np.empty(n, dtype=np.int64)
    rank[suffix_array] = np.arange(n)
    for k in range(1, n):
        i, j = int(suffix_array[k - 1]), int(suffix_array[k])
        # Compare suffix i < suffix j by first symbol, then by rank of the
        # remainders (valid because the remainders are themselves suffixes).
        while True:
            if i == n:
                break  # suffix i is empty -> smaller: OK
            if j == n:
                return False
            if codes[i] != codes[j]:
                if codes[i] > codes[j]:
                    return False
                break
            i += 1
            j += 1
            if i < n and j < n:
                if rank[i] > rank[j]:
                    return False
                break
    return True


def write_image_from_object_tree(
    database: SequenceDatabase,
    path: PathLike,
    block_size: int = BLOCK_SIZE_DEFAULT,
) -> DiskLayout:
    """Write the object tree of ``database`` to ``path`` in the Section 3.4 disk layout (format v2).

    Returns the :class:`DiskLayout` header describing the image (the same
    header is stored in block 0 of the file, so the image is self-describing
    apart from the sequence database itself).
    """
    codes = database.concatenated_codes
    symbol_count = len(codes)
    if symbol_count > VALUE_MASK:
        raise ValueError(f"{symbol_count} symbols do not fit the image's 31-bit pointers")

    # ------------------------------------------------------------------ #
    # 1. One level-order walk emits both record arrays.  A node's internal
    #    children take the next identifiers as they are appended to the walk
    #    and its leaf children the next leaf records, so both are contiguous
    #    runs; the last record of each run carries the last-sibling bit.
    # ------------------------------------------------------------------ #
    nodes: List[InternalNode] = [object_tree(database)]
    run_ends: List[int] = [0]
    internal_words: List[int] = []
    leaf_words: List[int] = []
    for node in nodes:  # grows while it is walked
        first_internal, first_leaf = len(nodes), len(leaf_words)
        for child in node.children:
            if isinstance(child, InternalNode):
                nodes.append(child)
            elif isinstance(child, LeafNode):
                leaf_words.append(child.suffix_start)
        if len(nodes) == first_internal:
            first_internal = NO_POINTER
        else:
            run_ends.append(len(nodes) - 1)
        if len(leaf_words) == first_leaf:
            first_leaf = NO_POINTER
        else:
            leaf_words[-1] |= LAST_SIBLING_BIT
        internal_words += (node.depth, node.edge_start, first_internal, first_leaf)
    internal_records = np.array(internal_words, dtype="<u4").reshape(-1, 4)
    internal_records[run_ends, 0] |= LAST_SIBLING_BIT

    # ------------------------------------------------------------------ #
    # 2. Encode the three regions block by block.
    # ------------------------------------------------------------------ #
    layout = DiskLayout(
        block_size=block_size,
        symbol_count=symbol_count,
        internal_count=len(nodes),
        leaf_slots=len(leaf_words),
        sequence_count=len(database),
        symbols_start_block=1,
        internal_start_block=0,  # filled in below
        leaves_start_block=0,
    )
    layout.internal_start_block = layout.symbols_start_block + layout.symbols_block_count
    layout.leaves_start_block = layout.internal_start_block + layout.internal_block_count

    with BlockFile(path, block_size=block_size, create=True) as block_file:
        block_file.write_block(0, layout.pack_header())
        regions = (
            # Symbols: one byte per symbol, block_size symbols per block.
            (layout.symbols_start_block, codes, block_size),
            # Internal nodes and leaves: whole records per block.
            (
                layout.internal_start_block,
                internal_records.tobytes(),
                layout.internal_records_per_block * INTERNAL_STRUCT.size,
            ),
            (
                layout.leaves_start_block,
                np.array(leaf_words, dtype="<u4").tobytes(),
                layout.leaf_records_per_block * LEAF_STRUCT.size,
            ),
        )
        for start_block, data, payload_per_block in regions:
            _write_region(block_file, start_block, data, payload_per_block)
        block_file.flush()

    return layout


def _write_region(
    block_file: BlockFile,
    start_block: int,
    data: bytes,
    payload_per_block: int,
) -> None:
    """Write a region, packing ``payload_per_block`` bytes into each block.

    Records never straddle block boundaries: each block carries a whole number
    of records (``payload_per_block`` bytes) followed by padding.
    """
    block_number = start_block
    for offset in range(0, len(data), payload_per_block):
        chunk = data[offset : offset + payload_per_block]
        block_file.write_block(block_number, chunk)
        block_number += 1
