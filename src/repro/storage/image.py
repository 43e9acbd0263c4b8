"""Opening a disk image: the one rule for which tree serves it.

Section 3.4 makes the three record arrays the index and puts a buffer pool in
front of them only for when they do not fit in memory.  So an image that fits
its pool budget is read whole into a
:class:`~repro.suffixtree.generalized.GeneralizedSuffixTree` (no pool, no
page decoding) when a search first needs it, and only a pool smaller than its image gets the clock pool
and the :class:`~repro.storage.disk_tree.DiskSuffixTree` in front of it.
The disk cursor's module is imported only then.
"""

from __future__ import annotations

import os
from typing import Union

from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import SuffixTreeCursor
from repro.suffixtree.generalized import GeneralizedSuffixTree

PathLike = Union[str, os.PathLike]

#: 256 MB: the paper's default buffer pool size (Section 4.2).
DEFAULT_BUFFER_POOL_BYTES = 256 * 1024 * 1024


def open_image(
    path: PathLike, database: SequenceDatabase, pool_bytes: int = DEFAULT_BUFFER_POOL_BYTES
) -> SuffixTreeCursor:
    """The tree of the image at ``path``: read into memory if it fits ``pool_bytes``.

    An image no larger than the pool is read by
    :meth:`GeneralizedSuffixTree.from_image`; a larger one is searched
    through a :class:`~repro.storage.disk_tree.DiskSuffixTree` with a pool of
    ``pool_bytes``.  Both refuse a broken image with the same error.
    """
    if os.path.getsize(path) <= pool_bytes:
        return GeneralizedSuffixTree.from_image(path, database)
    from repro.storage.disk_tree import DiskSuffixTree

    return DiskSuffixTree(path, database, buffer_pool_bytes=pool_bytes)
