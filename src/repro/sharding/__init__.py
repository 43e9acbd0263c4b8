"""Sharded index subsystem: persistent multi-shard disk indexes.

The pieces, bottom-up:

* :class:`ShardPlanner` splits one :class:`~repro.sequences.SequenceDatabase`
  into N contiguous, balanced sub-databases (by residues or sequence count);
* :class:`ShardedIndexBuilder` builds one Section-3.4 disk image per shard
  (straight from its sorted suffixes, on flat arrays) and writes a
  self-describing
  ``catalog.json`` manifest next to them;
* :class:`ShardCatalog` is that manifest: shard paths, sequence-id ranges,
  residue counts and the scoring-configuration fingerprint, with loud
  :class:`CatalogMismatchError` failures instead of silently wrong results;
* :class:`ShardedEngine` opens a catalog and answers ``search`` /
  ``search_online`` / ``search_many`` by scatter-gather over the shards,
  producing results hit-for-hit identical to a monolithic
  :class:`~repro.core.engine.OasisEngine` over the same database.
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
        shard_pool_budgets,
    )
    from repro.sharding.planner import ShardPlan, ShardPlanner, ShardSpec
    from repro.sharding.remote import ShardBuildTask, ShardSearchTask
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
                "shard_pool_budgets",
            ),
            "repro.sharding.planner": ("ShardPlan", "ShardPlanner", "ShardSpec"),
            "repro.sharding.remote": ("ShardBuildTask", "ShardSearchTask"),
        },
    )

__all__ = [
    "CATALOG_FILENAME",
    "CatalogError",
    "CatalogFormatError",
    "CatalogMismatchError",
    "ShardBuildTask",
    "ShardCatalog",
    "ShardEntry",
    "ShardPlan",
    "ShardPlanner",
    "ShardSearchTask",
    "ShardSpec",
    "ShardedEngine",
    "ShardedIndexBuilder",
    "ShardedQueryExecution",
    "config_fingerprint",
    "database_digest",
    "shard_pool_budgets",
]
