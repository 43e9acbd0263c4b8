"""On-disk record formats for the three suffix-tree arrays.

Section 3.4 of the paper: the tree is represented by three arrays, each broken
into disk-block-sized chunks:

* **symbols** -- the concatenated database sequences, one byte per symbol;
* **internal nodes** -- fixed-size records stored in level order so that
  siblings are contiguous; each record carries the node depth, a pointer into
  the symbol array for its incoming arc, a pointer to its first child and a
  "last sibling" flag;
* **leaf nodes** -- addressed by suffix start position (the array index *is*
  the ``offset`` into the symbol array), carrying only an explicit sibling
  pointer because leaves cannot be clustered next to their siblings.

Because a node's children can be a mix of internal nodes and leaves, records
here carry two child pointers: the first *internal* child (its siblings are
the following records, up to the one flagged ``last sibling``) and the first
*leaf* child (its siblings are chained through the leaf records' sibling
pointers).  This preserves the paper's layout properties -- internal siblings
contiguous, leaves addressed by suffix position -- while keeping child
enumeration a purely local operation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

from repro.storage.buffer_pool import Region

#: Sentinel for "no child / no sibling" pointers.
NO_POINTER = 0xFFFFFFFF

#: Flag bit: this internal node is the last internal child of its parent.
FLAG_LAST_SIBLING = 0x01

#: Wire formats of an internal-node record (depth, symbol pointer, first
#: internal child, first leaf child, flags) and of a leaf record (next
#: sibling); the disk cursor decodes pages with ``unpack_from`` on these.
INTERNAL_STRUCT = struct.Struct("<IIIIB")
LEAF_STRUCT = struct.Struct("<I")


@dataclass(frozen=True)
class InternalNodeRecord:
    """One fixed-size internal-node record.

    Attributes mirror Section 3.4: ``depth`` (string depth of the node),
    ``symbol_ptr`` (start of the incoming arc in the symbol array; the arc
    length is ``depth - parent depth``), the two first-child pointers and the
    last-sibling flag.
    """

    depth: int
    symbol_ptr: int
    first_internal_child: int
    first_leaf_child: int
    flags: int

    SIZE: ClassVar[int] = INTERNAL_STRUCT.size  # 17 bytes

    def pack(self) -> bytes:
        return INTERNAL_STRUCT.pack(
            self.depth,
            self.symbol_ptr,
            self.first_internal_child,
            self.first_leaf_child,
            self.flags,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "InternalNodeRecord":
        return cls(*INTERNAL_STRUCT.unpack(data[: cls.SIZE]))

    @property
    def is_last_sibling(self) -> bool:
        return bool(self.flags & FLAG_LAST_SIBLING)


@dataclass(frozen=True)
class LeafNodeRecord:
    """One leaf record: only the explicit sibling pointer.

    The leaf's suffix start position is its array index (Section 3.4), so the
    record itself needs nothing else: the incoming arc starts at
    ``suffix_start + parent depth`` and runs to the end of the suffix's
    sequence.
    """

    next_sibling: int

    SIZE: ClassVar[int] = LEAF_STRUCT.size  # 4 bytes

    def pack(self) -> bytes:
        return LEAF_STRUCT.pack(self.next_sibling)

    @classmethod
    def unpack(cls, data: bytes) -> "LeafNodeRecord":
        return cls(*LEAF_STRUCT.unpack(data[: cls.SIZE]))


_HEADER_MAGIC = b"OASISIDX"
_HEADER_STRUCT = struct.Struct("<8sHIQQQQQQQ")


@dataclass
class DiskLayout:
    """Header metadata of a suffix-tree disk image.

    The header occupies block 0 of the image file; the three regions follow,
    each starting on a block boundary.  Records never straddle a block: each
    block holds ``block_size // record size`` whole records, mirroring the
    paper's "broken down into chunks that fit into a disk block".
    """

    block_size: int
    symbol_count: int
    internal_count: int
    leaf_slots: int
    sequence_count: int
    symbols_start_block: int
    internal_start_block: int
    leaves_start_block: int
    version: int = 1

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    @property
    def symbols_per_block(self) -> int:
        return self.block_size

    @property
    def internal_records_per_block(self) -> int:
        return self.block_size // InternalNodeRecord.SIZE

    @property
    def leaf_records_per_block(self) -> int:
        return self.block_size // LeafNodeRecord.SIZE

    def symbol_page(self, position: int) -> Tuple[int, int]:
        """``(block within region, offset within block)`` of a symbol."""
        return position // self.symbols_per_block, position % self.symbols_per_block

    def internal_page(self, index: int) -> Tuple[int, int]:
        per_block = self.internal_records_per_block
        return index // per_block, (index % per_block) * InternalNodeRecord.SIZE

    def leaf_page(self, index: int) -> Tuple[int, int]:
        per_block = self.leaf_records_per_block
        return index // per_block, (index % per_block) * LeafNodeRecord.SIZE

    @property
    def symbols_block_count(self) -> int:
        return _ceil_div(self.symbol_count, self.symbols_per_block)

    @property
    def internal_block_count(self) -> int:
        return _ceil_div(self.internal_count, self.internal_records_per_block)

    @property
    def leaves_block_count(self) -> int:
        return _ceil_div(self.leaf_slots, self.leaf_records_per_block)

    @property
    def total_blocks(self) -> int:
        """Blocks in the whole image, header included."""
        return 1 + self.symbols_block_count + self.internal_block_count + self.leaves_block_count

    @property
    def index_size_bytes(self) -> int:
        """Total image size in bytes (the numerator of the space table)."""
        return self.total_blocks * self.block_size

    @property
    def bytes_per_symbol(self) -> float:
        """Space utilisation in bytes per database symbol (paper: 12.5)."""
        if self.symbol_count == 0:
            return 0.0
        return self.index_size_bytes / self.symbol_count

    def region_offsets(self) -> Dict[Region, int]:
        """Start block of each region, for the buffer pool."""
        return {
            Region.SYMBOLS: self.symbols_start_block,
            Region.INTERNAL_NODES: self.internal_start_block,
            Region.LEAF_NODES: self.leaves_start_block,
        }

    # ------------------------------------------------------------------ #
    # Header serialization
    # ------------------------------------------------------------------ #
    def pack_header(self) -> bytes:
        return _HEADER_STRUCT.pack(
            _HEADER_MAGIC,
            self.version,
            self.block_size,
            self.symbol_count,
            self.internal_count,
            self.leaf_slots,
            self.sequence_count,
            self.symbols_start_block,
            self.internal_start_block,
            self.leaves_start_block,
        )

    @classmethod
    def unpack_header(cls, data: bytes) -> "DiskLayout":
        (
            magic,
            version,
            block_size,
            symbol_count,
            internal_count,
            leaf_slots,
            sequence_count,
            symbols_start,
            internal_start,
            leaves_start,
        ) = _HEADER_STRUCT.unpack(data[: _HEADER_STRUCT.size])
        if magic != _HEADER_MAGIC:
            raise ValueError("not an OASIS suffix-tree image (bad magic)")
        return cls(
            block_size=block_size,
            symbol_count=symbol_count,
            internal_count=internal_count,
            leaf_slots=leaf_slots,
            sequence_count=sequence_count,
            symbols_start_block=symbols_start,
            internal_start_block=internal_start,
            leaves_start_block=leaves_start,
            version=version,
        )


def _ceil_div(numerator: int, denominator: int) -> int:
    return (numerator + denominator - 1) // denominator
