"""Sharded index subsystem: one persistent suffix tree, searched by root partitions.

The paper (Section 3.4.1) partitions *one* suffix tree by its root's
children; so does this package.  A shard is a set of the root's children of
one tree.  The pieces, bottom-up:

* :class:`ShardedIndexBuilder` writes one Section-3.4 disk image of the
  whole database (straight from its sorted suffixes, on flat arrays) and a
  self-describing ``catalog.json`` next to it that records how many
  partitions a process scatter splits the root into;
* :class:`ShardCatalog` is that manifest: the image, the partition count,
  the sequence and residue counts and the scoring-configuration fingerprint,
  with loud :class:`CatalogMismatchError` / :class:`CatalogFormatError`
  failures instead of silently wrong results;
* :class:`ShardedEngine` is the :class:`~repro.core.engine.OasisEngine`
  that :meth:`OasisEngine.open <repro.core.engine.OasisEngine.open>` (the
  one opener of a directory) makes, plus a scatter: its own search of the
  whole tree (``serial``) or one task per partition (``processes[:N]``),
  hit-for-hit identical to a monolithic engine over the same database.

:class:`ShardSpec` and :func:`shard_pool_budgets` stay until ROADMAP item 1
moves ``bench_e2e``'s ``traced_engine`` onto the engine's own cursors.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sharding.builder import ShardedIndexBuilder
    from repro.sharding.catalog import (
        CATALOG_FILENAME,
        CatalogError,
        CatalogFormatError,
        CatalogMismatchError,
        ShardCatalog,
        ShardEntry,
        config_fingerprint,
        database_digest,
    )
    from repro.sharding.engine import (
        ShardedEngine,
        ShardedQueryExecution,
        root_partitions,
        shard_pool_budgets,
    )
    from repro.sharding.planner import ShardSpec
    from repro.sharding.remote import ShardSearchTask
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.sharding.builder": ("ShardedIndexBuilder",),
            "repro.sharding.catalog": (
                "CATALOG_FILENAME",
                "CatalogError",
                "CatalogFormatError",
                "CatalogMismatchError",
                "ShardCatalog",
                "ShardEntry",
                "config_fingerprint",
                "database_digest",
            ),
            "repro.sharding.engine": (
                "ShardedEngine",
                "ShardedQueryExecution",
                "root_partitions",
                "shard_pool_budgets",
            ),
            "repro.sharding.planner": ("ShardSpec",),
            "repro.sharding.remote": ("ShardSearchTask",),
        },
    )

__all__ = [
    "CATALOG_FILENAME",
    "CatalogError",
    "CatalogFormatError",
    "CatalogMismatchError",
    "ShardCatalog",
    "ShardEntry",
    "ShardSearchTask",
    "ShardSpec",
    "ShardedEngine",
    "ShardedIndexBuilder",
    "ShardedQueryExecution",
    "config_fingerprint",
    "database_digest",
    "root_partitions",
    "shard_pool_budgets",
]
