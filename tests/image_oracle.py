"""The object-tree image writer: the byte-identity oracle of ``build_disk_image``.

Until the image was built straight from sorted suffixes and LCPs
(:mod:`repro.storage.builder`), this walk over ``InternalNode`` / ``LeafNode``
objects *was* the builder: one level-order walk numbers the internal nodes and
lays out the leaf records.  It is kept here, unchanged, as the independent
implementation the flat builder is compared against, byte for byte.

Both builders share one suffix sorter, so that sorter is held to the naive
sort and the direct LCP comparison below.
"""

from __future__ import annotations

import os
from typing import List, Union

import numpy as np

from repro.storage.blocks import BLOCK_SIZE_DEFAULT, BlockFile
from repro.storage.layout import (
    DiskLayout,
    INTERNAL_STRUCT,
    LAST_SIBLING_BIT,
    LEAF_STRUCT,
    NO_POINTER,
    VALUE_MASK,
)
from repro.suffixtree.generalized import GeneralizedSuffixTree
from repro.suffixtree.nodes import InternalNode, LeafNode

PathLike = Union[str, os.PathLike]


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


def write_image_from_object_tree(
    tree: GeneralizedSuffixTree,
    path: PathLike,
    block_size: int = BLOCK_SIZE_DEFAULT,
) -> DiskLayout:
    """Write ``tree`` to ``path`` in the Section 3.4 disk layout (format v2).

    Returns the :class:`DiskLayout` header describing the image (the same
    header is stored in block 0 of the file, so the image is self-describing
    apart from the sequence database itself).
    """
    database = tree.database
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
    nodes: List[InternalNode] = [tree.root]
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
