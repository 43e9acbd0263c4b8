"""Writing the on-disk image: the in-memory tree's record arrays, block by block.

:func:`build_disk_image` is the only disk builder.  The Section 3.4 arrays are
built once, by :meth:`repro.suffixtree.generalized.GeneralizedSuffixTree.build`
(sorted suffixes and their LCPs, one stack pass, NumPy for the level order;
never a node object), and the in-memory engine searches the same arrays.  So
handed a built tree, the image is written from its arrays as they are;
handed a database, the tree is built first.  Each record array lands in
whole records per block, little-endian (format v2, see
:mod:`repro.storage.layout`).  ``tests/image_oracle.py`` keeps the walk over
an object tree this replaced, and the test-suite holds the two to the same
bytes.
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import Union

from repro.sequences.database import SequenceDatabase
from repro.storage.blocks import BLOCK_SIZE_DEFAULT, BlockFile
from repro.storage.layout import DiskLayout, INTERNAL_STRUCT, LEAF_STRUCT, check_block_size
from repro.suffixtree.cursor import SuffixTreeCursor
from repro.suffixtree.generalized import GeneralizedSuffixTree

PathLike = Union[str, os.PathLike]


def build_disk_image(
    source: Union[SequenceDatabase, SuffixTreeCursor],
    path: PathLike,
    block_size: int = BLOCK_SIZE_DEFAULT,
) -> DiskLayout:
    """Write the suffix tree of a database to ``path`` in the Section 3.4 layout (format v2).

    ``source`` is a :class:`GeneralizedSuffixTree`, whose record arrays are
    written without sorting again; the database; or any other cursor over it
    (its ``.database`` is built).  The image does not depend on which.

    Returns the :class:`DiskLayout` header describing the image (the same
    header is stored in block 0 of the file, so the image is self-describing
    apart from the sequence database itself).
    """
    check_block_size(block_size)
    if isinstance(source, GeneralizedSuffixTree):
        tree = source
    else:
        tree = GeneralizedSuffixTree.build(getattr(source, "database", source))
    database = tree.database
    codes = database.concatenated_codes

    layout = DiskLayout(
        block_size=block_size,
        symbol_count=len(codes),
        internal_count=tree.internal_node_count,
        leaf_slots=tree.leaf_count,
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
            (layout.symbols_start_block, memoryview(codes), block_size),
            # Internal nodes and leaves: whole records per block.
            (
                layout.internal_start_block,
                _little_endian(tree.internal_records),
                layout.internal_records_per_block * INTERNAL_STRUCT.size,
            ),
            (
                layout.leaves_start_block,
                _little_endian(tree.leaf_records),
                layout.leaf_records_per_block * LEAF_STRUCT.size,
            ),
        )
        for start_block, data, payload_per_block in regions:
            _write_region(block_file, start_block, data, payload_per_block)
        block_file.flush()

    return layout


def _little_endian(records: array) -> memoryview:
    """The bytes of ``records`` as the image stores them: 4-byte little-endian words."""
    if sys.byteorder == "big":
        records = array(records.typecode, records)
        records.byteswap()
    return memoryview(records).cast("B")


def _write_region(
    block_file: BlockFile,
    start_block: int,
    data: memoryview,
    payload_per_block: int,
) -> None:
    """Write a region, packing ``payload_per_block`` bytes into each block.

    Records never straddle block boundaries: each block carries a whole number
    of records (``payload_per_block`` bytes) followed by padding.  Only one
    block's bytes are copied at a time.
    """
    block_number = start_block
    for offset in range(0, len(data), payload_per_block):
        chunk = bytes(data[offset : offset + payload_per_block])
        block_file.write_block(block_number, chunk)
        block_number += 1
