"""Batch search over a shared suffix-tree index.

The engine's query layer is reentrant -- every search runs as its own
:class:`~repro.core.oasis.QueryExecution` -- and a batch is a loop over
those executions: :func:`search_many` (what every engine's ``search_many``
calls) runs the queries on the calling thread or a pool of threads,
captures per-query failures and timeouts, and aggregates the per-query
statistics into a :class:`BatchSearchReport`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.executor import (
        BatchQueryOutcome,
        BatchSearchReport,
        BatchStatistics,
        ShardAggregate,
        search_many,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.parallel.executor": (
                "BatchQueryOutcome",
                "BatchSearchReport",
                "BatchStatistics",
                "ShardAggregate",
                "search_many",
            ),
        },
    )

__all__ = [
    "BatchQueryOutcome",
    "BatchSearchReport",
    "BatchStatistics",
    "ShardAggregate",
    "search_many",
]
