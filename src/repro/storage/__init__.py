"""Disk-resident suffix tree: block layout, buffer pool, and disk cursor.

Section 3.4 of the paper describes how the suffix tree is laid out on disk so
that OASIS stays efficient when the index does not fit in memory:

* three arrays -- symbols, internal nodes, leaf nodes -- each written out in
  fixed-size disk blocks (2 KB in the paper's experiments);
* internal nodes stored in level order so that siblings are contiguous
  (a node expansion touches all of its children);
* leaf nodes addressed by suffix start position, with explicit sibling links;
* all reads go through a buffer pool with a clock replacement policy.

This package reproduces that design with one departure (image format v2, see
:mod:`repro.storage.layout`): the leaf array holds one record per leaf in
parent order, so a node's leaf children are contiguous like its internal
children and the sibling chain is gone.  The on-disk image is a real file; the
buffer pool tracks hits and misses per region (the quantities plotted in
Figures 7 and 8); the Figure 7 experiment charges a 2003-era disk latency per
miss itself, since the OS page cache hides real read latency.

The pool is only for an image that does not fit it.  :func:`open_image` is
the one rule every engine opens an image by: an image no larger than its pool
budget is read whole into the in-memory
:class:`~repro.suffixtree.generalized.GeneralizedSuffixTree` by the first
search that needs it, and only a smaller pool gets the :class:`DiskSuffixTree` and its clock pool.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.blocks import BlockFile, BLOCK_SIZE_DEFAULT
    from repro.storage.buffer_pool import BufferPool, BufferPoolStatistics
    from repro.storage.layout import DiskLayout, ImageFormatError, Region
    from repro.storage.builder import build_disk_image
    from repro.storage.disk_tree import DiskSuffixTree
    from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES, open_image
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.storage.blocks": ("BlockFile", "BLOCK_SIZE_DEFAULT"),
            "repro.storage.buffer_pool": ("BufferPool", "BufferPoolStatistics"),
            "repro.storage.layout": ("DiskLayout", "ImageFormatError", "Region"),
            "repro.storage.builder": ("build_disk_image",),
            "repro.storage.disk_tree": ("DiskSuffixTree",),
            "repro.storage.image": ("DEFAULT_BUFFER_POOL_BYTES", "open_image"),
        },
    )

__all__ = [
    "BlockFile",
    "BLOCK_SIZE_DEFAULT",
    "BufferPool",
    "BufferPoolStatistics",
    "Region",
    "DiskLayout",
    "ImageFormatError",
    "build_disk_image",
    "DiskSuffixTree",
    "DEFAULT_BUFFER_POOL_BYTES",
    "open_image",
]
