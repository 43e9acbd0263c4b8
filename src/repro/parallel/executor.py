"""search_many: a batch of queries is a loop over ``engine.execute()``.

The paper's *online* search is one query: Algorithm 1 emits each hit as soon
as it is proven, and the caller can stop that one stream at any point.  A
batch is only a loop over such queries over one shared read-only index: each
query is ``engine.execute(request).result()``, its own self-contained
:class:`~repro.core.oasis.QueryExecution`, and the batch collects the
outcomes in input order into a :class:`BatchSearchReport`.

``workers=1`` (the default, as on the CLI) is that loop on the calling
thread.  ``workers=N`` runs it on a pool of ``N`` threads made for the batch.
The pool buys no speed: the compiled column step holds the interpreter lock
just as the Python step did, and on 60 protein queries over a 100 743-residue
database (2 cores, medians of 8 alternating rounds) one worker took 2.85 s,
two 3.40 s and four 3.39 s.  It stays while the benchmark reports
``parallel.threads2_speedup``.  Process parallelism lives one layer down, in
the sharded engine's per-partition scatter
(``ShardedEngine.open(..., backend="processes:N")``).

A batch the calling thread leaves early (an exception, or ``KeyboardInterrupt``
on Ctrl-C) aborts every execution still in flight -- each stops at its next
queue pop -- and cancels the queries that have not started.  On a process
scatter an in-flight partition search runs to completion; bound it with
``timeout`` if that latency matters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.oasis import OasisSearchStatistics
from repro.core.request import SearchRequest
from repro.core.results import SearchResult
from repro.obs.logsetup import get_logger

logger = get_logger(__name__)


def _fan_out_spec(workers: int) -> str:
    # A pool of one thread is a loop: it runs as one.
    return "serial" if workers == 1 else f"threads:{workers}"


@dataclass
class BatchQueryOutcome:
    """Everything the batch knows about one of its queries."""

    index: int
    query: str
    result: Optional[SearchResult] = None
    exception: Optional[BaseException] = None
    elapsed_seconds: float = 0.0
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.exception is None

    @property
    def error(self) -> Optional[str]:
        """Human-readable failure description (None when the query succeeded)."""
        if self.exception is None:
            return None
        return f"{type(self.exception).__name__}: {self.exception}"


@dataclass
class ShardAggregate:
    """Per-shard work aggregated over every query of a batch.

    Populated only when the queries ran on a sharded engine (each merged
    result then carries a ``shard_stats`` row per shard); a batch over a
    monolithic engine reports no shard aggregates.
    """

    shard: int
    queries: int = 0
    hits: int = 0
    columns_expanded: int = 0
    nodes_expanded: int = 0
    #: Sum of per-query, per-shard elapsed times (serial-equivalent work).
    query_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "shard": self.shard,
            "queries": self.queries,
            "hits": self.hits,
            "columns_expanded": self.columns_expanded,
            "nodes_expanded": self.nodes_expanded,
            "query_seconds": self.query_seconds,
        }


@dataclass
class BatchStatistics:
    """Aggregate counters over one batch run (sums of per-query statistics)."""

    queries: int = 0
    succeeded: int = 0
    failed: int = 0
    timed_out: int = 0
    aborted: int = 0
    total_hits: int = 0
    #: The successful queries' ``SearchResult.statistics``, merged: every
    #: counter summed, the queue peak the largest, ``elapsed_seconds`` the
    #: batch's wall clock.  For an index searched in this process the
    #: ``buffer_*`` counts are the pool's own change over the batch instead:
    #: queries sharing the pool on threads see each other's pages, so their
    #: deltas overlap, while the pool counts each page once.
    search: OasisSearchStatistics = field(default_factory=OasisSearchStatistics)
    #: Sum of per-query elapsed times (the serial-equivalent work).
    query_seconds: float = 0.0
    #: Wall-clock time of the whole batch.
    wall_seconds: float = 0.0
    workers: int = 1
    #: Per-shard aggregates, keyed by shard index (sharded engines only).
    shards: Dict[int, ShardAggregate] = field(default_factory=dict)

    @property
    def backend(self) -> str:
        """Spec of the fan-out the batch ran on: ``"serial"`` or ``"threads:N"``."""
        return _fan_out_spec(self.workers)

    @property
    def throughput(self) -> float:
        """Queries run (failed ones included) per wall-clock second."""
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "aborted": self.aborted,
            "total_hits": self.total_hits,
            "search": self.search.as_dict(),
            "query_seconds": self.query_seconds,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "backend": self.backend,
            "throughput": self.throughput,
            "shards": [
                self.shards[index].as_dict() for index in sorted(self.shards)
            ],
        }


@dataclass
class BatchSearchReport:
    """The full outcome of one batch: per-query outcomes plus aggregates.

    ``outcomes`` are in *input order* whatever the fan-out, so a threaded
    run is directly comparable to the serial loop over the same queries.
    """

    outcomes: List[BatchQueryOutcome] = field(default_factory=list)
    statistics: BatchStatistics = field(default_factory=BatchStatistics)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[Tuple[str, Optional[SearchResult]]]:
        for outcome in self.outcomes:
            yield outcome.query, outcome.result

    def results(self) -> List[SearchResult]:
        """Per-query results in input order (raises if any query failed)."""
        self.raise_first_error()
        return [outcome.result for outcome in self.outcomes]  # type: ignore[misc]

    def failures(self) -> List[BatchQueryOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def raise_first_error(self) -> None:
        """Re-raise the exception of the first query that failed."""
        for outcome in self.outcomes:
            if outcome.exception is not None:
                raise outcome.exception

    @classmethod
    def build(
        cls,
        outcomes: List[BatchQueryOutcome],
        wall_seconds: float,
        workers: int,
    ) -> "BatchSearchReport":
        statistics = BatchStatistics(wall_seconds=wall_seconds, workers=workers)
        searched: List[OasisSearchStatistics] = []
        for outcome in outcomes:
            statistics.queries += 1
            statistics.query_seconds += outcome.elapsed_seconds
            if outcome.timed_out:
                statistics.timed_out += 1
            if not outcome.ok:
                statistics.failed += 1
                continue
            statistics.succeeded += 1
            result = outcome.result
            assert result is not None
            statistics.total_hits += len(result)
            if result.parameters.get("aborted"):
                statistics.aborted += 1
            if isinstance(result.statistics, OasisSearchStatistics):
                searched.append(result.statistics)
            # Sharded engines annotate each merged result with one row per
            # shard; fold them into per-shard batch aggregates.
            for row in result.parameters.get("shard_stats", ()):
                shard = int(row.get("shard", 0))
                aggregate = statistics.shards.get(shard)
                if aggregate is None:
                    aggregate = statistics.shards[shard] = ShardAggregate(shard=shard)
                aggregate.queries += 1
                aggregate.hits += int(row.get("hits", 0))
                aggregate.columns_expanded += int(row.get("columns_expanded", 0))
                aggregate.nodes_expanded += int(row.get("nodes_expanded", 0))
                aggregate.query_seconds += float(row.get("elapsed_seconds", 0.0))
        statistics.search = OasisSearchStatistics.merged(searched, wall_seconds)
        return cls(outcomes=outcomes, statistics=statistics)

    def format_summary(self) -> str:
        """One-paragraph human-readable summary (used by the CLI)."""
        stats = self.statistics
        parts = [
            f"{stats.queries} queries in {stats.wall_seconds:.3f}s "
            f"({stats.throughput:.2f} q/s, {stats.workers} workers, {stats.backend})",
            f"{stats.total_hits} hits, {stats.search.columns_expanded} DP columns expanded",
        ]
        if stats.shards:
            per_shard = ", ".join(
                f"#{aggregate.shard}: {aggregate.hits} hits/"
                f"{aggregate.columns_expanded} cols"
                for _, aggregate in sorted(stats.shards.items())
            )
            parts.append(f"{len(stats.shards)} shards ({per_shard})")
        if stats.timed_out:
            parts.append(f"{stats.timed_out} timed out")
        if stats.failed:
            parts.append(f"{stats.failed} failed")
        return "; ".join(parts)

    def format_metrics(self) -> str:
        """The ``search --metrics`` dump: one ``name = value`` line each.

        The merged ``SearchResult.statistics`` field by field (its
        ``elapsed_seconds`` is the batch's, so it is named ``wall_seconds``),
        the batch's query counts, then exact percentiles of the queries'
        ``elapsed_seconds``.
        """
        stats = self.statistics
        values: Dict[str, object] = stats.search.as_dict()
        values["wall_seconds"] = values.pop("elapsed_seconds")
        values.update(
            queries=stats.queries,
            hits=stats.total_hits,
            timed_out=stats.timed_out,
            aborted=stats.aborted,
            failed=stats.failed,
        )
        elapsed = sorted(outcome.elapsed_seconds for outcome in self.outcomes)
        for percent in (50, 90, 99):
            values[f"elapsed_seconds_p{percent}"] = percentile(elapsed, percent)
        return "\n".join(
            f"{name} = {value:.6f}" if isinstance(value, float) else f"{name} = {value}"
            for name, value in values.items()
        )


def percentile(ordered: List[float], percent: float) -> float:
    """The exact ``percent``-th percentile of sorted values (0.0 when empty).

    Linear interpolation between the two closest ranks, as NumPy's default.
    """
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * percent / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def search_many(
    engine,
    queries: Iterable[str],
    workers: int = 1,
    timeout: Optional[float] = None,
    tracer=None,
    template: Optional[SearchRequest] = None,
    **options,
) -> BatchSearchReport:
    """Run ``engine.execute(query).result()`` for every query; outcomes in input order.

    ``options`` are :class:`~repro.core.request.SearchRequest` fields (one of
    ``min_score`` / ``evalue``, plus ``max_results`` etc.), checked here,
    once; ``timeout`` is the request's ``time_budget``.  A ready request
    passed as ``template`` stands in for both.  A query that raises is one
    failed outcome; the batch goes on.  With a ``tracer`` the batch is one
    ``batch`` span, every query span parented under it by explicit id (a
    query may run on a pool thread).  A batch left early (Ctrl-C) re-raises
    with the report of the queries that finished as the exception's
    ``batch_report``, so its numbers can still be printed on the way out.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if template is None:
        template = SearchRequest.template(time_budget=timeout, **options)
    elif options or timeout is not None:
        raise TypeError("options and timeout belong inside the template request")
    query_list = [str(query) for query in queries]
    buffer_pool = getattr(engine, "buffer_pool", None)
    pool_start = _pool_counts(buffer_pool)
    backend = _fan_out_spec(workers)
    logger.debug("batch of %d queries on %s", len(query_list), backend)
    span = None
    parent: Optional[str] = None
    if tracer is not None:
        span = tracer.span("batch", backend=backend, queries=len(query_list), phase="batch")
        tracer._push(span)
        parent = span.span_id
    # Executions running now, and whether the batch was left early: a query
    # that starts after the abort pass sees the flag and stops at once.
    running: set = set()
    abandoned = False

    def run_one(index: int, query: str) -> BatchQueryOutcome:
        start = time.perf_counter()
        try:
            execution = engine.execute(replace(template, query=query), tracer=tracer)
            execution.trace_parent = parent
            running.add(execution)
            try:
                if abandoned:
                    execution.abort()
                result = execution.result()
            finally:
                running.discard(execution)
        except Exception as error:  # noqa: BLE001 - captured per query
            return BatchQueryOutcome(
                index, query, exception=error, elapsed_seconds=time.perf_counter() - start
            )
        return BatchQueryOutcome(
            index,
            query,
            result=result,
            elapsed_seconds=time.perf_counter() - start,
            timed_out=bool(result.parameters.get("timed_out", False)),
        )

    outcomes: List[BatchQueryOutcome] = []
    start = time.perf_counter()

    def report() -> BatchSearchReport:
        built = BatchSearchReport.build(
            outcomes, wall_seconds=time.perf_counter() - start, workers=workers
        )
        if buffer_pool is not None:
            # The pool's own change counts each page once, however many
            # queries shared it.
            search = built.statistics.search
            end = _pool_counts(buffer_pool)
            search.buffer_hits, search.buffer_misses, search.buffer_evictions = (
                after - before for after, before in zip(end, pool_start)
            )
        return built

    threads = None
    try:
        try:
            if workers == 1:
                for index, query in enumerate(query_list):
                    outcomes.append(run_one(index, query))
            else:
                # Imported here: a one-worker batch loads no thread pool.
                from concurrent.futures import ThreadPoolExecutor

                threads = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="oasis-batch"
                )
                futures = [
                    threads.submit(run_one, index, query)
                    for index, query in enumerate(query_list)
                ]
                for future in futures:
                    outcomes.append(future.result())
        finally:
            if len(outcomes) < len(query_list):
                abandoned = True
                for execution in list(running):
                    execution.abort()
            if threads is not None:
                threads.shutdown(wait=True, cancel_futures=True)
            if span is not None:
                span.set_attribute("completed", len(outcomes))
                if abandoned:
                    span.set_attribute("abandoned", True)
                tracer._pop(span)
                span.finish()
    except BaseException as error:
        setattr(error, "batch_report", report())
        raise
    return report()


def _pool_counts(pool) -> Tuple[int, int, int]:
    """A buffer pool's own hits, misses and evictions (zeros without one)."""
    if pool is None:
        return (0, 0, 0)
    statistics = pool.statistics
    return (statistics.hits, statistics.misses, statistics.evictions)
