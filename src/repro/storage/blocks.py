"""Fixed-size block file: the raw device the suffix tree image lives on.

The paper's implementation reads the suffix tree through 2 KB disk pages.  A
:class:`BlockFile` models exactly that: a file addressed only in whole blocks,
with read/write counters so higher layers (the buffer pool and, ultimately,
the experiments of Figures 7-8) can observe the physical access pattern.
"""

from __future__ import annotations

import os
from typing import Optional, Union

PathLike = Union[str, os.PathLike]

#: Block size used in the paper's experiments (Section 4.2).
BLOCK_SIZE_DEFAULT = 2048


class BlockFile:
    """A file read and written in fixed-size blocks.

    Parameters
    ----------
    path:
        Path of the backing file.
    block_size:
        Size of every block in bytes; the paper uses 2048.
    create:
        When ``True`` the file is created/truncated for writing; otherwise it
        is opened read-only and must already exist.
    """

    def __init__(
        self, path: PathLike, block_size: int = BLOCK_SIZE_DEFAULT, create: bool = False
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.path = os.fspath(path)
        self.block_size = block_size
        self.reads = 0
        self.writes = 0
        self._writable = create
        self._handle = open(self.path, "w+b" if create else "rb")
        #: The open file's descriptor, ``None`` once closed: the buffer pool
        #: preads through it directly, one system call per miss.
        self.descriptor: Optional[int] = self._handle.fileno()

    # ------------------------------------------------------------------ #
    # Block access
    # ------------------------------------------------------------------ #
    @property
    def block_count(self) -> int:
        """Number of whole blocks currently in the file."""
        self._handle.flush()
        size = os.fstat(self._handle.fileno()).st_size
        return (size + self.block_size - 1) // self.block_size

    def read_block(self, block_number: int) -> bytes:
        """Read one block; short blocks at the end of file are zero-padded.

        One positional ``os.pread``: there is no shared file offset, so
        concurrent readers need no lock.  (``reads`` counts calls of this
        method; the buffer pool preads through :attr:`descriptor` itself
        and counts its own ``misses``.)
        """
        if block_number < 0:
            raise ValueError("block_number must be non-negative")
        if self._writable:
            self._handle.flush()
        data = os.pread(self._handle.fileno(), self.block_size, block_number * self.block_size)
        self.reads += 1
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        return data

    def write_block(self, block_number: int, data: bytes) -> None:
        """Write one block (data shorter than a block is zero-padded)."""
        if len(data) > self.block_size:
            raise ValueError(
                f"data of length {len(data)} does not fit in a {self.block_size}-byte block"
            )
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        self._handle.seek(block_number * self.block_size)
        self._handle.write(data)
        self.writes += 1

    def append_bytes(self, data: bytes) -> int:
        """Append raw bytes starting at the next block boundary.

        Returns the block number at which the data begins.  Used by the image
        builder to lay regions out back to back on block boundaries.
        """
        start_block = self.block_count
        for offset in range(0, len(data), self.block_size):
            self.write_block(start_block + offset // self.block_size, data[offset : offset + self.block_size])
        return start_block

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if self.descriptor is not None:
            self._handle.close()
            self.descriptor = None

    def __enter__(self) -> "BlockFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"BlockFile(path={self.path!r}, block_size={self.block_size}, "
            f"blocks={self.block_count})"
        )
