"""SearchSurface: the searching surface of every engine, defined once.

The paper's contract is one call -- a query and a threshold in, the strongest
alignment per sequence out, online, in score order -- and the in-memory, disk
and sharded engines are all that call.  What it can say is one value, a
:class:`~repro.core.request.SearchRequest`; the keyword form
(``engine.search(query, evalue=10, max_results=5)``) is spelled here, once,
and builds it.  Each engine defines ``execute_request`` -- what it does with
a request, plus the run-time wiring that is not part of one -- and inherits
the rest, so a call made against one engine means the same against the others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TypeVar, Union

from repro.core.request import SearchRequest
from repro.core.results import SearchHit, SearchResult

if TYPE_CHECKING:  # pragma: no cover - annotation only (parallel is a layer up)
    from repro.parallel.executor import BatchSearchReport

_Engine = TypeVar("_Engine", bound="SearchSurface")

Query = Union[str, SearchRequest]


class SearchSurface:
    """``execute`` / ``search`` / ``search_online`` / ``search_many`` / ``with``.

    Inherited by :class:`~repro.core.engine.OasisEngine` (built, or opened
    from an index directory by :meth:`~repro.core.engine.OasisEngine.open`)
    and its subclass :class:`~repro.sharding.ShardedEngine`.  ``query`` below is the query
    text, with the :class:`SearchRequest` fields as keyword ``options``
    (``min_score`` / ``evalue``, ``max_results``, ``compute_alignments``,
    ``time_budget``), or a ready request.
    """

    #: Each engine's own factory for the (unstarted) execution of one request:
    #: ``execute_request(request, tracer=None)``.
    execute_request: Callable[..., Any]
    #: Each engine's own release of its index (``with`` calls it on exit).
    close: Callable[[], None]

    def execute(self, query: Query, tracer=None, **options):
        """Create the self-contained, reentrant execution of one query.

        Iterate it for the online stream or call ``.result()`` for the batch
        result; any number can run concurrently against the engine's shared
        read-only index.  ``.abort()`` stops it within one frontier advance;
        ``tracer`` (a :class:`~repro.obs.Tracer`) wraps the run in a span.
        """
        if not isinstance(query, SearchRequest):
            query = SearchRequest(query, **options)
        elif options:
            raise TypeError("options belong inside the SearchRequest, not beside it")
        return self.execute_request(query, tracer=tracer)

    def search(self, query: Query, **options) -> SearchResult:
        """Find the strongest alignment per sequence scoring above a threshold.

        Results are ordered by decreasing score and, when the engine has a
        statistics model, annotated with E-values.
        """
        return self.execute(query, **options).result()

    def search_online(self, query: Query, **options) -> Iterator[SearchHit]:
        """Stream hits in decreasing score order (abort whenever satisfied)."""
        return iter(self.execute(query, **options))

    def search_many(
        self,
        queries: Iterable[str],
        workers: int = 1,
        timeout: Optional[float] = None,
        tracer=None,
        **options,
    ) -> "BatchSearchReport":
        """Run a batch of queries over the shared index, results in input order.

        A batch is a loop of :meth:`execute` ``.result()`` calls
        (:func:`repro.parallel.executor.search_many`): on the calling thread
        for one worker, on a pool of ``workers`` threads otherwise.  Where
        the search runs in this process the column step holds the
        interpreter lock, so the threads overlap nothing; on a process
        scatter they overlap the workers' partition tasks.
        ``timeout`` is a per-query wall-clock budget in seconds; a query
        exceeding it stops early with the hits found so far and is flagged
        ``timed_out``.  ``options`` are the request fields every query of the
        batch shares (or ``template=`` a ready request, whose ``time_budget``
        is then the timeout).  On a sharded engine each query in turn
        scatters on the engine's own backend and the report carries
        per-shard aggregates.
        """
        from repro.parallel.executor import search_many

        return search_many(
            self, queries, workers=workers, timeout=timeout, tracer=tracer, **options
        )

    def __enter__(self: _Engine) -> _Engine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
