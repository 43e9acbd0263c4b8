"""SearchSurface: the searching surface of every engine, defined once.

The paper's contract is one call -- a query and a threshold in, the strongest
alignment per sequence out, online, in score order -- and the in-memory, disk
and sharded engines are all that call.  Each of them defines ``execute`` (the
one place an engine spells the query options it consumes) and inherits
``search`` / ``search_online`` / ``search_many`` / ``close`` from here, so a
call made against one engine means the same against the others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TypeVar

from repro.core.results import SearchHit, SearchResult

if TYPE_CHECKING:  # pragma: no cover - annotation only (parallel is a layer up)
    from repro.parallel.executor import BatchSearchReport

_Engine = TypeVar("_Engine", bound="SearchSurface")


class SearchSurface:
    """``search`` / ``search_online`` / ``search_many`` / ``close`` over ``execute``.

    Inherited by :class:`~repro.core.oasis.OasisSearch`,
    :class:`~repro.core.engine.OasisEngine` and
    :class:`~repro.sharding.ShardedEngine`.  ``options`` below are the
    inheriting engine's ``execute`` keywords (``min_score`` / ``evalue``,
    ``max_results``, ``compute_alignments``, ...).
    """

    #: Each engine's own factory for the (unstarted) execution of one query:
    #: iterate the execution for the online stream, ``.result()`` collects it.
    execute: Callable[..., Any]

    def search(self, query: str, **options) -> SearchResult:
        """Find the strongest alignment per sequence scoring above a threshold.

        Results are ordered by decreasing score and, when the engine has a
        statistics model, annotated with E-values.
        """
        return self.execute(query, **options).result()

    def search_online(
        self, query: str, tracer=None, sample_interval: Optional[float] = None, **options
    ) -> Iterator[SearchHit]:
        """Stream hits in decreasing score order (abort whenever satisfied).

        With a ``tracer`` and a ``sample_interval``, a background
        :class:`~repro.obs.sampler.ResourceSampler` records RSS / pool /
        queue-depth gauges for exactly the life of the stream -- started
        when iteration starts, stopped when the stream is exhausted *or*
        abandoned (``close()``/GC raises ``GeneratorExit`` into the
        wrapper), so an early-terminated online search never leaks a
        sampling thread.
        """
        execution = self.execute(query, tracer=tracer, **options)
        if tracer is None or sample_interval is None:
            return iter(execution)
        from repro.obs.sampler import ResourceSampler

        def sampled() -> Iterator[SearchHit]:
            with ResourceSampler.for_engine(tracer, self, interval=sample_interval):
                yield from execution

        return sampled()

    def search_many(
        self,
        queries: Iterable[str],
        workers: int = 4,
        timeout: Optional[float] = None,
        backend=None,
        tracer=None,
        **options,
    ) -> "BatchSearchReport":
        """Run a batch of queries over the shared index, results in input order.

        The queries fan out on an execution backend: ``backend`` when given,
        else ``workers`` threads, or the plain serial loop for one worker.
        Threads, not processes: the index and the buffer pool are shared and
        expansion is plain Python under the interpreter lock, so threads
        overlap queries that wait on a disk read, not queries that compute.
        ``timeout`` is a per-query wall-clock budget in seconds; a query
        exceeding it stops early with the hits found so far and is flagged
        ``timed_out``.  On a sharded engine each query in turn scatters on
        the engine's own backend and the report carries per-shard aggregates.

        For streaming consumption (results as they complete), use
        :class:`repro.parallel.BatchSearchExecutor` directly.
        """
        from repro.parallel.executor import BatchSearchExecutor

        return BatchSearchExecutor.for_engine(
            self, workers=workers, timeout=timeout, backend=backend, tracer=tracer, **options
        ).run(queries)

    def instrument(self, tracer) -> None:
        """Attach a tracer to the index's buffer pool (``None`` detaches).

        A disk-backed cursor routes every page request through one pool;
        instrumenting it records pool hit/miss/eviction counters into
        ``tracer.metrics`` (see :meth:`repro.storage.BufferPool.instrument`).
        In-memory cursors have no pool and this is a no-op.
        """
        instrument = getattr(self.cursor, "instrument", None)  # type: ignore[attr-defined]
        if instrument is not None:
            instrument(tracer)

    def close(self) -> None:
        """Close a disk-resident cursor's image file (a no-op in memory)."""
        close = getattr(self.cursor, "close", None)  # type: ignore[attr-defined]
        if close is not None:
            close()

    def __enter__(self: _Engine) -> _Engine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
