"""Concurrent batch search over a shared suffix-tree index.

The engine's query layer is reentrant -- every search runs as its own
:class:`~repro.core.oasis.QueryExecution` -- and this package supplies the
serving layer on top: :class:`BatchSearchExecutor` fans a workload out across
a thread pool over the shared read-only cursor, yields results as they
complete, aggregates per-query statistics into a :class:`BatchSearchReport`,
and supports per-query timeouts and early abort.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.executor import (
        DEFAULT_WORKERS,
        BatchQueryOutcome,
        BatchSearchExecutor,
        BatchSearchReport,
        BatchStatistics,
        ShardAggregate,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.parallel.executor": (
                "DEFAULT_WORKERS",
                "BatchQueryOutcome",
                "BatchSearchExecutor",
                "BatchSearchReport",
                "BatchStatistics",
                "ShardAggregate",
            ),
        },
    )

__all__ = [
    "DEFAULT_WORKERS",
    "BatchQueryOutcome",
    "BatchSearchExecutor",
    "BatchSearchReport",
    "BatchStatistics",
    "ShardAggregate",
]
