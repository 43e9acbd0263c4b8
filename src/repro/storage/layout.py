"""On-disk record formats for the three suffix-tree arrays (image format v2).

Section 3.4 of the paper: the tree is represented by three arrays, each broken
into disk-block-sized chunks:

* **symbols** -- the concatenated database sequences, one byte per symbol;
* **internal nodes** -- fixed-size records stored in level order so that
  siblings are contiguous; each record carries the node depth, a pointer into
  the symbol array for its incoming arc, a pointer to its first child and a
  "last sibling" flag;
* **leaf nodes** -- in the paper addressed by suffix start position (the array
  index *is* the ``offset`` into the symbol array) and carrying only an
  explicit sibling pointer, "because leaves cannot be clustered".

Format v2 departs from the third.  That chain costs one page per leaf child
(Figure 8's "by their nature random" accesses: 44 % of all physical reads on a
pool of 1/8 of the image), and a search only ever reaches a leaf from its
parent.  So v2 writes one record per *leaf*, in parent (level) order -- suffix
start in the low 31 bits, "last leaf sibling" in bit 31: a node's leaf
children are one contiguous run, read like the internal run, and the array
has no empty slots (the paper's has one per terminal position).

A node's children mix internal nodes and leaves, so an internal record carries
two child pointers -- the first *internal* child and the first *leaf* child,
each the index of a run that ends at the record flagged "last sibling".  Its
own flag is bit 31 of ``depth``, so a record is four 32-bit words: 16 bytes,
128 to a 2 KB block with no padding.  Depths, symbol pointers and suffix
starts are limited to 31 bits (:data:`VALUE_MASK`).

Both trees open an image through :func:`check_image`, the one place an image
is checked before it is searched; the in-memory tree then reads each record
region whole (:meth:`DiskLayout.read_records`), the disk cursor page by page.
"""

from __future__ import annotations

import enum
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Dict, Union

from repro.sequences.database import SequenceDatabase

# The record words (last-sibling bit, value mask, "no such run"): the
# in-memory tree decodes the same records, so they are defined below both.
from repro.suffixtree.cursor import LAST_SIBLING_BIT, NO_POINTER, VALUE_MASK

PathLike = Union[str, os.PathLike]

#: The image format this code writes and reads; there is no second reader.
FORMAT_VERSION = 2

#: Wire formats of an internal-node record (depth | last-sibling bit, symbol
#: pointer, first internal child, first leaf child) and of a leaf record
#: (suffix start | last-sibling bit); the disk cursor decodes pages with
#: ``unpack_from`` on these.
INTERNAL_STRUCT = struct.Struct("<IIII")
LEAF_STRUCT = struct.Struct("<I")


class Region(enum.IntEnum):
    """The three components of the suffix-tree disk image (Section 3.4)."""

    SYMBOLS = 0
    INTERNAL_NODES = 1
    LEAF_NODES = 2


class ImageFormatError(ValueError):
    """Raised when an image was written in a format this code does not read."""


_HEADER_MAGIC = b"OASISIDX"
_HEADER_STRUCT = struct.Struct("<8sHIQQQQQQQ")

#: The smallest block an image can have: block 0 holds the whole header.
MIN_BLOCK_SIZE = _HEADER_STRUCT.size
#: The largest: the header records the block size in a u32 field.
MAX_BLOCK_SIZE = 2**32 - 1


def check_block_size(block_size: int) -> None:
    """Refuse (``ValueError``) a block the image header cannot hold or record."""
    if block_size < MIN_BLOCK_SIZE:
        raise ValueError(
            f"block size {block_size} is below the minimum of {MIN_BLOCK_SIZE} bytes "
            "(block 0 of an image holds its header)"
        )
    if block_size > MAX_BLOCK_SIZE:
        raise ValueError(
            f"block size {block_size} is above the maximum of {MAX_BLOCK_SIZE} bytes "
            "(the image header records it in 32 bits)"
        )


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
    #: Records in the leaf array: one per leaf node of the tree.
    leaf_slots: int
    sequence_count: int
    symbols_start_block: int
    internal_start_block: int
    leaves_start_block: int

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    @property
    def symbols_per_block(self) -> int:
        return self.block_size

    @property
    def internal_records_per_block(self) -> int:
        return self.block_size // INTERNAL_STRUCT.size

    @property
    def leaf_records_per_block(self) -> int:
        return self.block_size // LEAF_STRUCT.size

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

    def read_records(self, handle: BinaryIO, region: Region) -> array:
        """A record region of the image open as ``handle``, as native ``array('I')`` words.

        The inverse of :func:`repro.storage.build_disk_image`: whole records
        per block, little-endian words.  When records fill their blocks (a
        block size that is a multiple of the record size, 2048 by default)
        the region is one ``fromfile``; otherwise it is one read, and each
        block's padding is cut out.
        """
        start, count, record_size, per_block = {
            Region.INTERNAL_NODES: (
                self.internal_start_block,
                self.internal_count,
                INTERNAL_STRUCT.size,
                self.internal_records_per_block,
            ),
            Region.LEAF_NODES: (
                self.leaves_start_block,
                self.leaf_slots,
                LEAF_STRUCT.size,
                self.leaf_records_per_block,
            ),
        }[region]
        words = array("I")
        payload = per_block * record_size
        handle.seek(start * self.block_size)
        if payload == self.block_size:
            # Straight into the array: ``fromfile`` would hold the region a
            # second time, as ``bytes``, while it copies it in.
            words = array("I", [0]) * (count * record_size // words.itemsize)
            view = memoryview(words).cast("B")
            read = handle.readinto(view)
            view.release()
            if read != count * record_size:
                raise ImageFormatError(
                    f"suffix-tree image {handle.name} reads {read} of "
                    f"{count * record_size} bytes of its {region.name.lower()} "
                    "region: the file is truncated; rebuild the index"
                )
        else:
            data = handle.read(_ceil_div(count, per_block) * self.block_size)
            blocks = range(0, len(data), self.block_size)
            words.frombytes(
                b"".join(data[offset : offset + payload] for offset in blocks)[: count * record_size]
            )
        if sys.byteorder == "big":
            words.byteswap()
        return words

    # ------------------------------------------------------------------ #
    # Header serialization
    # ------------------------------------------------------------------ #
    def pack_header(self) -> bytes:
        return _HEADER_STRUCT.pack(
            _HEADER_MAGIC,
            FORMAT_VERSION,
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
    def read_header(cls, path: PathLike) -> "DiskLayout":
        """The layout of the image file at ``path`` (reads only its header)."""
        with open(path, "rb") as handle:
            data = handle.read(_HEADER_STRUCT.size)
        return cls.unpack_header(data.ljust(_HEADER_STRUCT.size, b"\x00"))

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
        if version != FORMAT_VERSION:
            raise ImageFormatError(
                f"suffix-tree image is format v{version}, this code reads only "
                f"v{FORMAT_VERSION}: rebuild the index"
            )
        return cls(
            block_size=block_size,
            symbol_count=symbol_count,
            internal_count=internal_count,
            leaf_slots=leaf_slots,
            sequence_count=sequence_count,
            symbols_start_block=symbols_start,
            internal_start_block=internal_start,
            leaves_start_block=leaves_start,
        )


def check_image(path: PathLike, database: SequenceDatabase) -> DiskLayout:
    """The layout of the image at ``path``, once it is known to serve ``database``.

    The one set of open checks both trees run on an image, whichever serves
    it: the header's magic and format version, a file shorter than its header
    says (:class:`ImageFormatError`, "truncated": the builder writes whole
    blocks, so only a cut file is short) and a symbol count other than the
    database's (``ValueError``).
    """
    layout = DiskLayout.read_header(path)
    size = os.path.getsize(path)
    if size < layout.index_size_bytes:
        raise ImageFormatError(
            f"suffix-tree image {os.fspath(path)} is {size} bytes, its header "
            f"describes {layout.index_size_bytes}: the file is truncated; "
            "rebuild the index"
        )
    total = database.total_symbols_with_terminals
    if layout.symbol_count != total:
        raise ValueError(
            "disk image does not match the database: "
            f"{layout.symbol_count} symbols on disk vs {total} in the database"
        )
    return layout


def _ceil_div(numerator: int, denominator: int) -> int:
    return (numerator + denominator - 1) // denominator
