"""Building the on-disk image straight from sorted suffixes and their LCPs.

:func:`build_disk_image` writes the Section 3.4 arrays, and is the only disk
builder: it is a function of the *database*, never of a tree of node objects.

* :func:`repro.suffixtree.generalized.sorted_suffixes` sorts every suffix at
  once and hands over the suffix positions and their LCPs as two flat arrays
  (the paper's Section 3.4.1 sorts one lexical partition at a time; why this
  does not, :mod:`repro.suffixtree.suffix_array` says);
* one rightmost-path stack pass over plain ints (the loop of
  :mod:`repro.suffixtree.construction` without the objects) appends, per
  internal node, its string depth, its leftmost leaf and its parent, and per
  leaf its parent, to flat 4-byte arrays; the LCPs are then let go;
* NumPy does the rest on those arrays: tree level from the parents, level
  order as one ``lexsort``, leaf records as a stable sort by parent,
  first-child pointers and last-sibling bits from the run boundaries -- so
  that the internal children of a node and its leaf children each end up as
  one contiguous run on disk (format v2, see :mod:`repro.storage.layout`).

Counted with ``tracemalloc`` at 960 108 residues, the sort peaks at 44 bytes
per residue (text included), the LCPs at 53, and the last step, which holds
the record arrays and their sort permutations, at 58; in between, the flat
arrays are about 13 bytes per residue (4 per leaf for its position, 4 for its
parent, 12 per internal node).  ``tests/image_oracle.py`` keeps the walk over
an object tree this replaced, and the test-suite holds the two to the same
bytes.
"""

from __future__ import annotations

import os
from array import array
from typing import Tuple, Union

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
from repro.suffixtree.cursor import SuffixTreeCursor
from repro.suffixtree.generalized import sorted_suffixes

PathLike = Union[str, os.PathLike]


def build_disk_image(
    source: Union[SequenceDatabase, SuffixTreeCursor],
    path: PathLike,
    block_size: int = BLOCK_SIZE_DEFAULT,
) -> DiskLayout:
    """Write the suffix tree of a database to ``path`` in the Section 3.4 layout (format v2).

    ``source`` is the database, or any cursor over it (its ``.database`` is
    what is read; the image does not depend on how that cursor was built).

    Returns the :class:`DiskLayout` header describing the image (the same
    header is stored in block 0 of the file, so the image is self-describing
    apart from the sequence database itself).
    """
    database: SequenceDatabase = getattr(source, "database", source)
    codes = database.concatenated_codes
    symbol_count = len(codes)
    if symbol_count > VALUE_MASK:
        raise ValueError(f"{symbol_count} symbols do not fit the image's 31-bit pointers")

    sequence_ends = np.array(database.sequence_starts[1:] + [symbol_count])
    # The sorted suffixes go straight into the call: their LCPs are let go
    # before the record arrays are built.
    internal_records, leaf_records = _level_order_records(
        *_flat_tree(*sorted_suffixes(database), sequence_ends)
    )

    layout = DiskLayout(
        block_size=block_size,
        symbol_count=symbol_count,
        internal_count=len(internal_records),
        leaf_slots=len(leaf_records),
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
                leaf_records.tobytes(),
                layout.leaf_records_per_block * LEAF_STRUCT.size,
            ),
        )
        for start_block, data, payload_per_block in regions:
            _write_region(block_file, start_block, data, payload_per_block)
        block_file.flush()

    return layout


def _flat_tree(
    positions: np.ndarray, lcps: np.ndarray, sequence_ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compact suffix tree of sorted suffixes, as five flat arrays.

    ``positions`` are the suffixes in lexical order and ``lcps[k]`` the
    longest common prefix of ``positions[k]`` with the suffix before it.
    Returns ``(positions, leaf_parent, node_depth, node_leftmost,
    node_parent)``: leaves are numbered in sorted order, internal nodes in
    creation order (the root is node 0, its own parent), and
    ``node_leftmost`` is the number of the leftmost leaf below a node.

    The stack is the rightmost path of the tree built so far.  A node's
    parent is final once the node has left the path -- except that a later
    suffix may still split the arc above the node popped last, which then
    hangs below the new node.
    """
    lengths = sequence_ends[np.searchsorted(sequence_ends, positions, side="right")] - positions
    if (lcps >= lengths).any():
        raise ValueError(
            "a suffix is a prefix of its predecessor; terminal symbols "
            "must make all suffixes distinct"
        )
    del lengths
    if len(lcps) and lcps[0] != 0:
        raise ValueError("the first suffix of all must have LCP 0")
    leaf_parent = array("i")
    node_depth, node_leftmost, node_parent = array("i", [0]), array("i", [0]), array("i", [0])
    path_nodes, path_depths = [0], [0]

    for common in lcps.tolist():
        popped = -1
        while path_depths[-1] > common:
            path_depths.pop()
            popped = path_nodes.pop()
        top = path_nodes[-1]
        if path_depths[-1] < common:
            # The split point falls inside the arc of what was popped last
            # (the previous leaf when no node was): a new node takes over
            # that child and its leftmost leaf.
            new = len(node_depth)
            node_depth.append(common)
            node_parent.append(top)
            if popped < 0:
                node_leftmost.append(len(leaf_parent) - 1)
                leaf_parent[-1] = new
            else:
                node_leftmost.append(node_leftmost[popped])
                node_parent[popped] = new
            path_nodes.append(new)
            path_depths.append(common)
            top = new
        leaf_parent.append(top)

    return (
        positions,
        np.frombuffer(leaf_parent, dtype=np.intc),
        np.frombuffer(node_depth, dtype=np.intc),
        np.frombuffer(node_leftmost, dtype=np.intc),
        np.frombuffer(node_parent, dtype=np.intc),
    )


def _level_order_records(
    positions: np.ndarray,
    leaf_parent: np.ndarray,
    node_depth: np.ndarray,
    node_leftmost: np.ndarray,
    node_parent: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The image's internal and leaf record arrays from :func:`_flat_tree`'s arrays.

    Internal nodes are renumbered in level order, left to right within a
    level, so a node's internal children are consecutive and follow those of
    the node before it; the leaf records are laid out in the order of their
    parents' new numbers, each run in lexical order.
    """
    # Tree level by pointer jumping: ``level`` is the distance to ``hop``,
    # which doubles every round (the root is its own parent at distance 0).
    level = np.ones(len(node_parent), dtype=np.int32)
    level[0] = 0
    hop = node_parent
    while hop.any():
        level = level + level[hop]
        hop = hop[hop]

    # Two nodes with the same leftmost leaf are ancestor and descendant, so
    # (level, leftmost leaf) is a total order: the level-order walk's.
    order = np.lexsort((node_leftmost, level))
    number = np.empty(len(order), dtype=np.uint32)
    number[order] = np.arange(len(order), dtype=np.uint32)

    internal = np.empty((len(order), 4), dtype="<u4")
    internal[:, 0] = node_depth[order]
    internal[:, 1] = positions[node_leftmost[order]] + node_depth[node_parent[order]]
    internal[0, 1] = 0  # the root has no incoming arc
    internal[:, 2:] = NO_POINTER
    internal[0, 0] |= LAST_SIBLING_BIT
    starts, ends, parents = _sibling_runs(number[node_parent[order[1:]]])
    internal[parents, 2] = starts + 1
    internal[ends + 1, 0] |= LAST_SIBLING_BIT

    leaf_number = number[leaf_parent]
    leaf_order = np.argsort(leaf_number, kind="stable")
    leaves = positions[leaf_order].astype("<u4")
    starts, ends, parents = _sibling_runs(leaf_number[leaf_order])
    internal[parents, 3] = starts
    leaves[ends] |= LAST_SIBLING_BIT
    return internal, leaves


def _sibling_runs(parents: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index, last index and parent of each run of equal values in ``parents``."""
    if not len(parents):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
    ends = np.append(starts[1:] - 1, len(parents) - 1)
    return starts, ends, parents[starts]


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
