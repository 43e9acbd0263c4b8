"""BatchSearchExecutor: concurrent batch search over one shared index.

The paper's premise is *online* search -- clients watch hits stream in and
abort early -- and a production deployment serves many such clients at once
over a single index.  This module supplies the serving layer: an executor
that fans a workload of queries out over the shared read-only suffix-tree
cursor, yields ``(query, SearchResult)`` pairs as they complete,
aggregates per-query statistics into a batch report, and supports per-query
timeouts and early abort.

The per-query fan-out runs on the pluggable execution-backend layer
(:mod:`repro.exec`): ``serial`` for clean single-threaded timings (and for
any batch of width one), ``threads:N`` for concurrent serving.  In-process
backends only: the per-query runner closes over live engine state and the
batch-wide cancellation event, neither of which crosses a process
boundary, so a ``processes`` backend is rejected loudly here -- process
parallelism lives one layer down, in the sharded engine's per-shard
scatter (``ShardedEngine.open(..., backend="processes:N")``), where work
ships as plain picklable tasks.  Every query runs as its own
self-contained :class:`~repro.core.oasis.QueryExecution`, so concurrent
searches never touch each other's queues or statistics; cancellation and
timeouts are cooperative (checked at every queue pop), which is what makes
aborting a batch safe at any moment.  One nuance when the queries run on a
process-scatter engine: shard tasks the worker pool has not started are
cancelled on abort, but an in-flight remote shard search cannot be
interrupted cooperatively and runs to completion -- bound it with
``timeout`` if abort latency matters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.oasis import OasisSearchStatistics
from repro.core.request import SearchRequest
from repro.core.results import SearchResult
from repro.exec import BackendSpec, ExecutionBackend, resolve_backend
from repro.obs.logsetup import get_logger

logger = get_logger(__name__)

#: Default fan-out width; matches the paper-era "handful of concurrent
#: clients" and keeps the GIL contention of CPU-bound phases modest.
DEFAULT_WORKERS = 4

#: Signature of the per-query callable the executor drives: it receives the
#: query text, an optional wall-clock budget in seconds, an optional
#: cancellation event and the id of the batch span to parent the query's
#: span under (``None`` when the batch is not traced), and returns the
#: finished result.
QueryRunner = Callable[
    [str, Optional[float], Optional[threading.Event], Optional[str]], SearchResult
]


@dataclass
class BatchQueryOutcome:
    """Everything the executor knows about one query of a batch."""

    index: int
    query: str
    result: Optional[SearchResult] = None
    exception: Optional[BaseException] = None
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    aborted: bool = False

    @property
    def ok(self) -> bool:
        return self.exception is None and self.result is not None

    @property
    def error(self) -> Optional[str]:
        """Human-readable failure description (None when the query succeeded)."""
        if self.exception is not None:
            return f"{type(self.exception).__name__}: {self.exception}"
        if self.result is None:
            return "aborted before completion"
        return None


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
    columns_expanded: int = 0
    nodes_expanded: int = 0
    nodes_enqueued: int = 0
    #: Sum of per-query elapsed times (the serial-equivalent work).
    query_seconds: float = 0.0
    #: Wall-clock time of the whole batch.
    wall_seconds: float = 0.0
    workers: int = 1
    #: Spec of the execution backend the batch ran on (``"threads:4"`` ...).
    backend: str = ""
    #: Per-shard aggregates, keyed by shard index (sharded engines only).
    shards: Dict[int, ShardAggregate] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Completed queries per wall-clock second."""
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """``query_seconds / (wall_seconds * workers)`` -- 1.0 is perfect."""
        denominator = self.wall_seconds * max(1, self.workers)
        return self.query_seconds / denominator if denominator > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "aborted": self.aborted,
            "total_hits": self.total_hits,
            "columns_expanded": self.columns_expanded,
            "nodes_expanded": self.nodes_expanded,
            "nodes_enqueued": self.nodes_enqueued,
            "query_seconds": self.query_seconds,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "backend": self.backend,
            "throughput": self.throughput,
            "parallel_efficiency": self.parallel_efficiency,
            "shards": [
                self.shards[index].as_dict() for index in sorted(self.shards)
            ],
        }


@dataclass
class BatchSearchReport:
    """The full outcome of one batch: per-query outcomes plus aggregates.

    ``outcomes`` are in *input order* regardless of completion order, so a
    parallel run is directly comparable to the serial loop over the same
    queries.
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

    def result_for(self, query: str) -> Optional[SearchResult]:
        for outcome in self.outcomes:
            if outcome.query == query:
                return outcome.result
        return None

    def failures(self) -> List[BatchQueryOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def raise_first_error(self) -> None:
        """Raise for the first query that produced no result.

        Re-raises the query's own exception when there is one; a query
        skipped by an abort has none, so it raises ``RuntimeError`` instead
        (``results()`` must never hand back a list with ``None`` holes).
        """
        for outcome in self.outcomes:
            if outcome.exception is not None:
                raise outcome.exception
            if outcome.result is None:
                raise RuntimeError(
                    f"query {outcome.query!r} {outcome.error or 'did not complete'}"
                )

    @classmethod
    def build(
        cls,
        outcomes: List[BatchQueryOutcome],
        wall_seconds: float,
        workers: int,
        backend: str = "",
    ) -> "BatchSearchReport":
        ordered = sorted(outcomes, key=lambda outcome: outcome.index)
        statistics = BatchStatistics(
            wall_seconds=wall_seconds, workers=workers, backend=backend
        )
        for outcome in ordered:
            statistics.queries += 1
            statistics.query_seconds += outcome.elapsed_seconds
            if outcome.timed_out:
                statistics.timed_out += 1
            if outcome.aborted:
                statistics.aborted += 1
            if not outcome.ok:
                statistics.failed += 1
                continue
            statistics.succeeded += 1
            result = outcome.result
            assert result is not None
            statistics.total_hits += len(result)
            statistics.columns_expanded += result.columns_expanded
            per_query = result.statistics
            if isinstance(per_query, OasisSearchStatistics):
                statistics.nodes_expanded += per_query.nodes_expanded
                statistics.nodes_enqueued += per_query.nodes_enqueued
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
        return cls(outcomes=ordered, statistics=statistics)

    def format_summary(self) -> str:
        """One-paragraph human-readable summary (used by the CLI)."""
        stats = self.statistics
        backend = f", {stats.backend}" if stats.backend else ""
        parts = [
            f"{stats.queries} queries in {stats.wall_seconds:.3f}s "
            f"({stats.throughput:.2f} q/s, {stats.workers} workers{backend})",
            f"{stats.total_hits} hits, {stats.columns_expanded} DP columns expanded",
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
        if stats.aborted:
            parts.append(f"{stats.aborted} aborted")
        if stats.failed:
            parts.append(f"{stats.failed} failed")
        return "; ".join(parts)


class BatchSearchExecutor:
    """Fan a batch of queries across an execution backend over one index.

    Parameters
    ----------
    run_query:
        ``(query, time_budget, cancel_event, trace_parent) -> SearchResult``.
        The budget and event implement per-query timeouts and batch-wide
        abort; runners that cannot honour them may ignore them (they then
        stop only between queries).  Use :meth:`for_engine` /
        :meth:`for_adapter` instead of building this callable by hand.
    workers:
        Fan-out width when ``backend`` does not name one.
    timeout:
        Optional per-query wall-clock budget in seconds, passed to every
        ``run_query`` call.
    backend:
        Execution backend for the per-query fan-out: a spec string
        (``"serial"`` / ``"threads:N"``), a :class:`~repro.exec.BackendSpec`,
        or a live :class:`~repro.exec.ExecutionBackend` (then shared across
        runs and caller-owned).  Spec-described backends are created fresh
        per run and closed afterwards.  Defaults to ``threads:workers``, or
        to ``serial`` for one worker (a pool of one thread is a loop).
        In-process kinds only -- the runner closes over engine state and
        the cancel event, which cannot cross processes; for process
        parallelism use the sharded engine's scatter backend instead.
    """

    def __init__(
        self,
        run_query: QueryRunner,
        workers: int = DEFAULT_WORKERS,
        timeout: Optional[float] = None,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        tracer=None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self._run_query = run_query
        self.timeout = timeout
        #: Telemetry: each run is wrapped in a ``batch`` span, the fan-out
        #: backend records task latency / queue depth, and runners built by
        #: :meth:`for_engine` parent their per-query spans under the batch
        #: span, whose id every runner receives as its fourth argument.
        self.tracer = tracer
        self._batch_parent: Optional[str] = None
        self._shared_backend: Optional[ExecutionBackend] = None
        if isinstance(backend, ExecutionBackend):
            self._shared_backend = backend
            self._backend_spec = BackendSpec(backend.kind, backend.workers)
        else:
            if backend is None:
                # A pool of one thread is a loop: run it as one.
                backend = "serial" if workers == 1 else f"threads:{int(workers)}"
            if isinstance(backend, str):
                backend = BackendSpec.parse(backend)
            self._backend_spec = backend
        if self._backend_spec.kind == "processes":
            raise ValueError(
                "BatchSearchExecutor cannot fan queries out over processes: "
                "the per-query runner closes over in-process engine state "
                "and the batch cancel event.  Use a process scatter backend "
                "on the sharded engine instead "
                "(ShardedEngine.open(..., backend='processes:N'))"
            )
        if self._backend_spec.kind == "serial":
            self.workers = 1
        else:
            self.workers = int(self._backend_spec.workers or workers)
        self._cancel = threading.Event()
        self._aborted = False

    @property
    def backend_spec(self) -> str:
        """Declarative spec of the fan-out backend (recorded in reports)."""
        if self._shared_backend is not None:
            return self._shared_backend.spec
        if self._backend_spec.kind == "serial":
            return "serial"
        return f"{self._backend_spec.kind}:{self.workers}"

    def _acquire_backend(self) -> Tuple[ExecutionBackend, bool]:
        """The backend for one run plus whether this run must close it."""
        if self._shared_backend is not None:
            return self._shared_backend, False
        backend, _ = resolve_backend(
            self._backend_spec, default_workers=self.workers
        )
        return backend, True

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def for_engine(
        cls,
        engine,
        workers: int = DEFAULT_WORKERS,
        timeout: Optional[float] = None,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        tracer=None,
        template: Optional[SearchRequest] = None,
        **options,
    ) -> "BatchSearchExecutor":
        """Executor over an engine (anything with the searching surface).

        ``options`` are :class:`~repro.core.request.SearchRequest` fields
        (one of ``min_score`` / ``evalue``, plus ``max_results`` etc.),
        checked here, once; ``timeout`` is the request's ``time_budget``.
        A ready request passed as ``template`` stands in for both.  Every
        query of a run is that template with its own ``query``.
        """
        if template is None:
            template = SearchRequest.template(time_budget=timeout, **options)
        elif options or timeout is not None:
            raise TypeError("options and timeout belong inside the template request")

        def run_query(
            query: str,
            time_budget: Optional[float],
            cancel_event: Optional[threading.Event],
            trace_parent: Optional[str],
        ) -> SearchResult:
            execution = engine.execute(
                replace(template, query=query), cancel_event=cancel_event, tracer=tracer
            )
            # The query may run on a pool thread; parent its span under the
            # batch span by explicit id rather than thread-local nesting.
            execution.trace_parent = trace_parent
            return execution.result()

        return cls(
            run_query,
            workers=workers,
            timeout=template.time_budget,
            backend=backend,
            tracer=tracer,
        )

    @classmethod
    def for_adapter(
        cls,
        adapter,
        workers: int = DEFAULT_WORKERS,
        timeout: Optional[float] = None,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        tracer=None,
    ) -> "BatchSearchExecutor":
        """Executor over a workload :class:`~repro.workloads.engines.EngineAdapter`.

        ``tracer`` wraps the run in a batch span and instruments the fan-out
        backend; per-query spans need the engine path (:meth:`for_engine`),
        since adapters own their search invocation.
        """

        def run_query(
            query: str,
            time_budget: Optional[float],
            cancel_event: Optional[threading.Event],
            trace_parent: Optional[str],
        ) -> SearchResult:
            return adapter.run_with_budget(
                query, time_budget=time_budget, cancel_event=cancel_event
            )

        return cls(
            run_query, workers=workers, timeout=timeout, backend=backend, tracer=tracer
        )

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def abort(self) -> None:
        """Stop all batch work: pending queries are skipped, in-flight ones
        stop cooperatively at their next queue pop.

        Aborting is terminal for the executor -- it also covers runs that
        have not started yet, so an abort racing a ``run()`` call cannot be
        lost.  (Abandoning a :meth:`map` stream, by contrast, only cancels
        that run.)
        """
        self._aborted = True
        self._cancel.set()

    def map(self, queries: Iterable[str]) -> Iterator[Tuple[str, SearchResult]]:
        """Yield ``(query, SearchResult)`` pairs as they complete.

        Completion order, not input order.  Abandoning the iterator aborts
        the rest of the batch (pending queries are cancelled, running ones
        stop cooperatively).  Per-query exceptions are re-raised; use
        :meth:`run` for a fault-tolerant collected report.
        """
        for outcome in self.run_iter(queries):
            if outcome.exception is not None:
                raise outcome.exception
            if outcome.result is not None:
                yield outcome.query, outcome.result

    def run_iter(self, queries: Iterable[str]) -> Iterator[BatchQueryOutcome]:
        """Yield one :class:`BatchQueryOutcome` per query, in completion order."""
        query_list = [str(query) for query in queries]
        if not self._aborted:
            # Fresh cancellation scope per run, so a previous run abandoned
            # mid-stream does not poison the next one.
            self._cancel = threading.Event()
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.span(
                "batch", backend=self.backend_spec, queries=len(query_list), phase="batch"
            )
            tracer._push(span)
            self._batch_parent = span.span_id
        backend, owned = self._acquire_backend()
        if tracer is not None:
            backend.instrument(tracer)
        logger.debug(
            "batch of %d queries on %s", len(query_list), self.backend_spec
        )
        stream = backend.map_unordered(self._execute_task, list(enumerate(query_list)))
        completed = 0
        try:
            for outcome in stream:
                completed += 1
                yield outcome
        finally:
            if completed < len(query_list):
                # The consumer abandoned the stream (or a task raised):
                # stop in-flight queries cooperatively, then let the stream's
                # own cleanup cancel tasks that never started.
                self._cancel.set()
            stream.close()
            if owned:
                backend.close()
            elif tracer is not None:
                # A shared backend outlives this run; detach its instruments.
                backend.instrument(None)
            if span is not None:
                span.set_attribute("completed", completed)
                if completed < len(query_list):
                    span.set_attribute("abandoned", True)
                self._batch_parent = None
                tracer._pop(span)
                span.finish()

    def run(self, queries: Iterable[str]) -> BatchSearchReport:
        """Run the whole batch and collect a report (input-order outcomes).

        Per-query failures are captured in the outcomes rather than raised,
        so one bad query cannot take down a batch; call
        ``report.raise_first_error()`` (or ``report.results()``) to surface
        them.
        """
        start = time.perf_counter()
        outcomes = list(self.run_iter(queries))
        wall_seconds = time.perf_counter() - start
        return BatchSearchReport.build(
            outcomes,
            wall_seconds=wall_seconds,
            workers=self.workers,
            backend=self.backend_spec,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _execute_task(self, task: Tuple[int, str]) -> BatchQueryOutcome:
        return self._execute_one(*task)

    def _execute_one(self, index: int, query: str) -> BatchQueryOutcome:
        if self._aborted or self._cancel.is_set():
            return BatchQueryOutcome(index=index, query=query, aborted=True)
        start = time.perf_counter()
        try:
            result = self._run_query(query, self.timeout, self._cancel, self._batch_parent)
        except Exception as error:  # noqa: BLE001 - captured per query
            return BatchQueryOutcome(
                index=index,
                query=query,
                exception=error,
                elapsed_seconds=time.perf_counter() - start,
            )
        return BatchQueryOutcome(
            index=index,
            query=query,
            result=result,
            elapsed_seconds=time.perf_counter() - start,
            timed_out=bool(result.parameters.get("timed_out", False)),
            aborted=bool(result.parameters.get("aborted", False)),
        )

    def __repr__(self) -> str:
        timeout = f", timeout={self.timeout}" if self.timeout is not None else ""
        return f"BatchSearchExecutor(backend={self.backend_spec!r}{timeout})"
