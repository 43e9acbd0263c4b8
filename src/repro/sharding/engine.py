"""ShardedEngine: scatter-gather search over a set of per-shard indexes.

Each shard is a full :class:`~repro.core.engine.OasisEngine` over its slice
of the database (in-memory trees for :meth:`ShardedEngine.build`, disk images
behind buffer pools for :meth:`ShardedEngine.open`).  A query is fanned out
across the shards on the engine's scatter backend and the per-shard
:class:`~repro.core.results.SearchResult` objects -- the same shape whether a
shard ran on this thread, on a pool thread or in a worker process -- are
merged into one globally ordered result.

Correctness of the merge rests on three invariants:

* every shard prunes against the **global** E-value threshold: all shards
  share one :class:`~repro.core.evalue.SelectivityConverter` built from the
  whole database (a process worker gets its model and database size in the
  task), so Equation 3 yields the same ``min_score`` everywhere and
  Equation 2 annotates every hit with the E-value the monolithic engine would
  have computed;
* a sequence lives in exactly one shard, so the union of per-shard hit sets
  *is* the monolithic hit set (per-sequence best scores are a property of the
  sequence, not of the index layout), with shard-local sequence indices
  remapped to global ones through the catalog's contiguous ranges;
* every engine orders hits canonically
  (:func:`~repro.core.results.hit_order_key`), so the merged, re-sorted hit
  list is byte-for-byte identical to the monolithic one.

The parity test in ``tests/test_sharding.py`` checks all three at once.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from bisect import bisect_right
from concurrent.futures import BrokenExecutor
from concurrent.futures import wait as futures_wait
from typing import Iterator, List, Optional, Union

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.oasis import OasisSearchStatistics, QueryExecution, open_span
from repro.core.results import SearchHit, SearchResult, hit_order_key
from repro.core.surface import SearchSurface
from repro.exec import BackendSpec, ExecutionBackend, resolve_backend
from repro.obs.logsetup import get_logger
from repro.scoring.gaps import FixedGapModel, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sharding.builder import ShardedIndexBuilder
from repro.sharding.catalog import ShardCatalog, config_fingerprint
from repro.sharding.planner import ShardPlanner, ShardSpec, slice_shard
from repro.sharding.remote import (
    ShardOutcome,
    ShardSearchTask,
    label_shard_execution,
    run_shard_search,
)
from repro.storage.blocks import BLOCK_SIZE_DEFAULT
from repro.storage.disk_tree import DEFAULT_BUFFER_POOL_BYTES, DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree

PathLike = Union[str, os.PathLike]

logger = get_logger(__name__)


class ShardedQueryExecution:
    """One query scattered across every shard, gathered into one result.

    Mirrors the :class:`~repro.core.oasis.QueryExecution` surface the batch
    executor relies on: iterate it for the online stream (a lazy k-way merge
    of the per-shard streams, globally ordered because each shard emits in
    canonical order) or call :meth:`result` to run all shards concurrently on
    the engine's shard pool and collect the merged batch result.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        executions: List[QueryExecution],
        query: str,
        max_results: Optional[int],
        time_budget: Optional[float] = None,
        tracer=None,
    ):
        self.engine = engine
        self.executions = executions
        self.query = query
        self.max_results = max_results
        self.time_budget = time_budget
        self.tracer = tracer
        #: Explicit parent for the query span (a batch executor sets it so
        #: queries running on pool threads still nest under the batch span).
        self.trace_parent: Optional[str] = None
        self._iterator: Optional[Iterator[SearchHit]] = None
        self._collected: List[SearchHit] = []
        self._start_time: Optional[float] = None
        self._wall_seconds = 0.0
        self._result: Optional[SearchResult] = None

    # ------------------------------------------------------------------ #
    # Flags and statistics
    # ------------------------------------------------------------------ #
    @property
    def timed_out(self) -> bool:
        return any(execution.timed_out for execution in self.executions)

    @property
    def aborted(self) -> bool:
        return any(execution.aborted for execution in self.executions)

    @property
    def statistics(self) -> OasisSearchStatistics:
        """Work counters summed over all shards (queue peak is the max)."""
        return OasisSearchStatistics.merged(
            [execution.statistics for execution in self.executions], self._wall_seconds
        )

    def _open_query_span(self, **attributes):
        """Open the ``query`` span (if traced) and parent the shard spans under it.

        Shard executions may run on pool threads or in worker processes, so
        their spans find the query span by explicit id, not by thread-local
        nesting; they are labelled here, before any of them starts.
        """
        attributes.update(shards=len(self.executions), phase="scatter")
        span = open_span(self.tracer, "query", self.trace_parent, attributes)
        if span is not None:
            for shard, execution in enumerate(self.executions):
                label_shard_execution(execution, shard, span.span_id)
        return span

    def abort(self) -> None:
        for execution in self.executions:
            execution.abort()

    def _pin_deadline(self) -> None:
        """Share one absolute deadline across all shard executions.

        A per-execution relative budget would restart whenever a shard task
        leaves the pool queue, granting a loaded batch up to
        ``shard_count x budget`` per query; pinning ``now + budget`` before
        anything is submitted keeps the budget a true per-query wall clock.
        """
        if self.time_budget is None:
            return
        deadline = time.perf_counter() + self.time_budget
        for execution in self.executions:
            execution.set_deadline(deadline)

    # ------------------------------------------------------------------ #
    # Streaming (online) interface
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[SearchHit]:
        if self._iterator is None:
            self._iterator = self._generate()
        return self._iterator

    def __next__(self) -> SearchHit:
        return next(iter(self))

    def _shard_stream(self, shard: int, execution: QueryExecution) -> Iterator[SearchHit]:
        offset = self.engine.sequence_offset(shard)
        for hit in execution:
            hit.sequence_index += offset
            yield hit

    def _generate(self) -> Iterator[SearchHit]:
        """Lazy k-way merge of the shard streams, globally strongest-first.

        The shard executions run interleaved on the calling thread (the
        paper's online consumption model); only :meth:`result` uses the shard
        pool.  Each shard stream is sorted by the canonical hit order, so the
        merge is too.
        """
        self._start_time = time.perf_counter()
        self._pin_deadline()
        span = self._open_query_span(streaming=True)
        streams = [
            self._shard_stream(shard, execution)
            for shard, execution in enumerate(self.executions)
        ]
        try:
            emitted = 0
            for hit in heapq.merge(*streams, key=hit_order_key):
                self._collected.append(hit)
                yield hit
                emitted += 1
                if self.max_results is not None and emitted >= self.max_results:
                    return
        finally:
            self._wall_seconds = time.perf_counter() - self._start_time
            for stream in streams:
                stream.close()
            # Closing the wrappers does not close the shard executions
            # themselves; do it explicitly so their statistics are finalised
            # and an abandoned merge cannot silently resume work later.
            for execution in self.executions:
                execution.close()
            if span is not None:
                span.set_attribute("hits", len(self._collected))
                self.tracer._pop(span)
                span.finish()

    def close(self) -> None:
        """Abandon the merged stream (and with it every shard stream)."""
        if self._iterator is not None:
            self._iterator.close()

    def _merge_hits(self, shard_results: List[SearchResult]) -> List[SearchHit]:
        """Remap shard-local hits to global indices and order canonically."""
        hits: List[SearchHit] = []
        for shard, result in enumerate(shard_results):
            offset = self.engine.sequence_offset(shard)
            for hit in result.hits:
                hit.sequence_index += offset
                hits.append(hit)
        hits.sort(key=hit_order_key)
        if self.max_results is not None:
            hits = hits[: self.max_results]
        return hits

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #
    def result(self) -> SearchResult:
        """Run every shard (concurrently, unless already streaming) and merge.

        Memoised: the remap mutates the shard executions' hit objects in
        place, so the merge must run exactly once -- repeated calls return
        the same object, as :meth:`QueryExecution.result` effectively does.
        """
        if self._result is not None:
            return self._result
        start = time.perf_counter()
        if self._iterator is not None:
            # The consumer started streaming: finish draining that stream
            # (hits were collected as they were emitted) rather than
            # re-running the shards.
            for _ in self._iterator:
                pass
            hits = list(self._collected)
        else:
            tracer = self.tracer
            span = self._open_query_span()
            try:
                self._pin_deadline()
                shard_results = self.engine._scatter(self.executions)
                self._wall_seconds = time.perf_counter() - start
                if span is None:
                    hits = self._merge_hits(shard_results)
                else:
                    with tracer.span(
                        "merge", parent_id=span.span_id, phase="merge"
                    ) as merge_span:
                        hits = self._merge_hits(shard_results)
                        merge_span.set_attribute("hits", len(hits))
            finally:
                if span is not None:
                    span.set_attribute("timed_out", self.timed_out)
                    span.set_attribute("aborted", self.aborted)
                    tracer._pop(span)
                    span.finish()

        # Per-shard hit counts reflect the *merged* result: with max_results,
        # a shard's emitted top-k may exceed what survives the global
        # truncation, and the per-shard rows must sum to len(hits).
        survived = [0] * len(self.executions)
        offsets = self.engine._offsets
        for hit in hits:
            survived[bisect_right(offsets, hit.sequence_index) - 1] += 1

        shard_stats = [
            {
                "shard": shard,
                "hits": survived[shard],
                "columns_expanded": execution.statistics.columns_expanded,
                "nodes_expanded": execution.statistics.nodes_expanded,
                "elapsed_seconds": execution.statistics.elapsed_seconds,
                "timed_out": execution.timed_out,
                "aborted": execution.aborted,
            }
            for shard, execution in enumerate(self.executions)
        ]

        merged = SearchResult(
            query=self.query.upper(),
            engine="oasis-sharded",
            hits=hits,
            elapsed_seconds=self._wall_seconds,
            columns_expanded=sum(
                execution.statistics.columns_expanded for execution in self.executions
            ),
            parameters={
                "min_score": self.executions[0].min_score,
                "matrix": self.engine.matrix.name,
                "gap": self.engine.gap_model.per_symbol,
                "max_results": self.max_results,
                "shards": len(self.executions),
                "shard_stats": shard_stats,
            },
            statistics=self.statistics,
        )
        if self.timed_out:
            merged.parameters["timed_out"] = True
        if self.aborted:
            merged.parameters["aborted"] = True
        self._result = merged
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedQueryExecution(query={self.query!r}, "
            f"shards={len(self.executions)})"
        )


#: Raised whenever a process scatter backend meets an engine with no catalog.
_PROCESS_NEEDS_CATALOG = (
    "a process scatter backend needs a persistent sharded index: "
    "worker processes open shard images from the catalog, which "
    "an in-memory engine does not have -- build one with "
    "ShardedIndexBuilder / build_on_disk and use ShardedEngine.open"
)


def _backend_kind(backend: "Union[str, BackendSpec, ExecutionBackend, None]") -> Optional[str]:
    """The kind a backend description resolves to, without creating anything."""
    if backend is None:
        return None
    if isinstance(backend, str):
        backend = BackendSpec.parse(backend)
    return backend.kind


def shard_pool_budgets(
    total_bytes: int, shard_residues: List[int], block_size: int
) -> List[int]:
    """Split one buffer-pool budget across shards, proportionally to size.

    Each shard gets a share of ``total_bytes`` proportional to its residue
    count (the catalog records them): index bytes and page working sets both
    scale with residues, so proportional shares keep every shard's hit ratio
    in the same regime where an even split would starve the big shards.
    Every shard is floored at one frame (``block_size`` bytes) -- a pool
    smaller than one block cannot hold a single page, so with a tiny total
    budget the floor deliberately oversubscribes rather than handing any
    shard a zero-frame pool.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if not shard_residues:
        raise ValueError("at least one shard is required")
    total_residues = sum(shard_residues)
    if total_residues <= 0:
        # Degenerate catalog (cannot happen for real indexes; every shard
        # holds at least one non-empty sequence): fall back to an even split.
        even = total_bytes // len(shard_residues)
        return [max(block_size, even)] * len(shard_residues)
    return [
        max(block_size, total_bytes * residues // total_residues)
        for residues in shard_residues
    ]


class ShardedEngine(SearchSurface):
    """Scatter-gather OASIS search over N per-shard indexes.

    Use :meth:`build` for an in-memory sharded engine, or
    :meth:`ShardedIndexBuilder.build` + :meth:`open` for the persistent form.
    The engine defines ``execute`` and inherits the searching surface
    (``search`` / ``search_online`` / ``search_many``) that
    :class:`~repro.core.engine.OasisEngine` inherits, so every consumer of
    an engine -- the batch executor, the workload adapters, the CLI -- can
    run sharded without changes.

    ``backend`` selects the scatter strategy for ``search`` /
    :meth:`ShardedQueryExecution.result`: a spec string (``"serial"``,
    ``"threads:N"``, ``"processes:N"``), a
    :class:`~repro.exec.BackendSpec`, or a live
    :class:`~repro.exec.ExecutionBackend` (then caller-owned).  The default
    is a thread pool of one thread per shard -- right for disk-resident
    shards, whose miss stalls overlap.  A process backend escapes the GIL
    for CPU-bound (fully cached / in-memory regime) scatter: each task
    carries only ``(catalog directory, shard id, query, parameters)``, the
    worker process lazily opens its shard image read-only from the catalog,
    and the shard's :class:`~repro.core.results.SearchResult` travels back
    for the same merge the in-process shards go through.  It therefore
    requires a persistent index (a catalog directory); the streaming path
    (``search_online``) always runs in-process regardless of backend.
    """

    def __init__(
        self,
        shards: List[OasisEngine],
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = FixedGapModel(-1),
        converter: Optional[SelectivityConverter] = None,
        catalog: Optional[ShardCatalog] = None,
        directory: Optional[str] = None,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        shard_buffer_bytes: Optional[List[int]] = None,
        simulated_miss_latency: float = 0.0,
        sleep_on_miss: bool = False,
    ):
        if not shards:
            raise ValueError("a ShardedEngine needs at least one shard")
        self.shards = list(shards)
        self._database = database
        self.matrix = matrix
        self.gap_model = gap_model
        self.converter = converter or SelectivityConverter(matrix, database)
        self.catalog = catalog
        self.directory = directory
        # One thread per shard unless told otherwise (also the width of a
        # bare "threads" / "processes" spec).
        self._backend, self._backend_owned = resolve_backend(
            backend, f"threads:{len(self.shards)}", len(self.shards)
        )
        if self._backend.kind == "processes" and self.directory is None:
            if self._backend_owned:
                self._backend.close()
            raise ValueError(_PROCESS_NEEDS_CATALOG)
        #: Per-shard buffer-pool budgets in bytes (persistent engines only).
        #: Process workers open their shard with the same budget, latency
        #: and sleep flag the parent gave that shard, so worker-side pools
        #: and I/O simulation match the parent's cursors.
        self.shard_buffer_bytes = (
            list(shard_buffer_bytes) if shard_buffer_bytes is not None else None
        )
        self.simulated_miss_latency = float(simulated_miss_latency)
        self.sleep_on_miss = bool(sleep_on_miss)
        #: Global sequence index of each shard's first sequence.
        self._offsets = self._compute_offsets()
        self._closed = False

    def _compute_offsets(self) -> List[int]:
        if self.catalog is not None:
            return [entry.start_sequence for entry in self.catalog.shards]
        offsets, position = [], 0
        for shard in self.shards:
            offsets.append(position)
            position += len(shard.database)
        return offsets

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = FixedGapModel(-1),
        shard_count: int = 2,
        by: str = "residues",
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        kernel=None,
    ) -> "ShardedEngine":
        """Split the database and build one in-memory index per shard.

        ``backend`` only accepts in-process kinds here (``serial`` /
        ``threads``): process scatter needs a catalog directory for its
        workers to open.
        """
        if _backend_kind(backend) == "processes":
            # Reject before the expensive per-shard tree construction; the
            # engine constructor would raise the same error afterwards.
            raise ValueError(_PROCESS_NEEDS_CATALOG)
        plan = ShardPlanner(shard_count, by=by).plan(database)
        logger.info(
            "building in-memory sharded engine for %s (%d shards)",
            database.name,
            len(plan.specs),
        )
        converter = SelectivityConverter(
            matrix, database, effective_database_size=database.total_symbols
        )
        shards = [
            OasisEngine(
                GeneralizedSuffixTree.build(sub_database),
                matrix,
                gap_model,
                converter=converter,
                kernel=kernel,
            )
            for sub_database in plan.sub_databases(database)
        ]
        return cls(shards, database, matrix, gap_model, converter=converter, backend=backend)

    @classmethod
    def build_on_disk(
        cls,
        database: SequenceDatabase,
        directory: PathLike,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = FixedGapModel(-1),
        shard_count: int = 2,
        by: str = "residues",
        block_size: int = BLOCK_SIZE_DEFAULT,
        build_backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        **open_kwargs,
    ) -> "ShardedEngine":
        """Build a persistent sharded index directory and open it.

        ``build_backend`` fans the per-shard construction out (each shard
        image is independent); ``backend`` in ``open_kwargs`` selects the
        scatter strategy of the returned engine.
        """
        ShardedIndexBuilder(
            matrix,
            gap_model,
            shard_count=shard_count,
            by=by,
            block_size=block_size,
            backend=build_backend,
        ).build(database, directory)
        return cls.open(
            directory, database=database, matrix=matrix, gap_model=gap_model, **open_kwargs
        )

    @classmethod
    def open(
        cls,
        directory: PathLike,
        database: Optional[SequenceDatabase] = None,
        matrix: Optional[SubstitutionMatrix] = None,
        gap_model: Optional[GapModel] = None,
        buffer_pool_bytes: int = DEFAULT_BUFFER_POOL_BYTES,
        simulated_miss_latency: float = 0.0,
        sleep_on_miss: bool = False,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        kernel=None,
    ) -> "ShardedEngine":
        """Open a persistent sharded index from its catalog.

        The catalog makes the directory self-contained: when ``matrix`` /
        ``gap_model`` / ``database`` are omitted they are restored from the
        recorded configuration and the bundled FASTA.  When they *are* given
        they must match what the index was built with --
        :class:`~repro.sharding.catalog.CatalogMismatchError` otherwise.

        ``buffer_pool_bytes`` is the total budget, divided across the shard
        buffer pools proportionally to each shard's catalog-recorded residue
        count (a shard's index size and page working set both scale with its
        residues, so an even split starves big shards while small ones idle),
        with a floor of one frame (``block_size`` bytes) per shard so no pool
        ever rounds down to zero frames.
        """
        from repro.scoring.data import load_matrix
        from repro.sequences.fasta import read_fasta

        directory = str(directory)
        catalog = ShardCatalog.load(directory)
        logger.info(
            "opening sharded index at %s (%d shards, pool budget %d bytes)",
            directory,
            len(catalog.shards),
            buffer_pool_bytes,
        )

        if matrix is None:
            matrix = load_matrix(catalog.matrix_name)
        if gap_model is None:
            gap_model = FixedGapModel(catalog.gap_penalty)
        catalog.check_fingerprint(
            config_fingerprint(matrix.name, gap_model.per_symbol, catalog.block_size)
        )

        if database is None:
            database_path = catalog.database_path(directory)
            database = read_fasta(database_path, name=catalog.database_name)
        catalog.check_database(database)

        if _backend_kind(backend) == "processes" and not os.path.exists(
            catalog.database_path(directory)
        ):
            # Fail at open, not on every query: worker processes restore the
            # sequences from the bundled FASTA, which an index built with
            # write_database=False does not carry.
            raise ValueError(
                "a process scatter backend needs a self-contained index "
                "directory, but this one has no bundled database.fasta "
                "(built with write_database=False) for the worker processes "
                "to load -- rebuild with the FASTA included or open with an "
                "in-process backend (serial / threads:N)"
            )

        converter = SelectivityConverter(
            matrix, database, effective_database_size=database.total_symbols
        )
        shard_budgets = shard_pool_budgets(
            buffer_pool_bytes,
            [entry.residues for entry in catalog.shards],
            catalog.block_size,
        )
        shards: List[OasisEngine] = []
        try:
            for entry, shard_budget in zip(catalog.shards, shard_budgets):
                sub_database = slice_shard(
                    database,
                    ShardSpec(
                        index=entry.index,
                        start_sequence=entry.start_sequence,
                        stop_sequence=entry.stop_sequence,
                        residues=entry.residues,
                    ),
                )
                cursor = DiskSuffixTree(
                    catalog.shard_image_path(directory, entry),
                    sub_database,
                    buffer_pool_bytes=shard_budget,
                    simulated_miss_latency=simulated_miss_latency,
                    sleep_on_miss=sleep_on_miss,
                )
                shards.append(
                    OasisEngine(
                        cursor, matrix, gap_model, converter=converter, kernel=kernel
                    )
                )
            engine = cls(
                shards,
                database,
                matrix,
                gap_model,
                converter=converter,
                catalog=catalog,
                directory=directory,
                backend=backend,
                shard_buffer_bytes=shard_budgets,
                simulated_miss_latency=simulated_miss_latency,
                sleep_on_miss=sleep_on_miss,
            )
        except Exception:
            for shard in shards:
                shard.close()
            raise
        return engine

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SequenceDatabase:
        """The full (global) database the shards jointly index."""
        return self._database

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def sequence_offset(self, shard: int) -> int:
        """Global index of the shard's first sequence (for hit remapping)."""
        return self._offsets[shard]

    def min_score_for(self, query: str, evalue: float) -> int:
        """Equation 3 against the *global* database size."""
        return self.converter.min_score_for_evalue(evalue, len(query))

    # ------------------------------------------------------------------ #
    # Searching
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: str,
        min_score: Optional[int] = None,
        evalue: Optional[float] = None,
        max_results: Optional[int] = None,
        compute_alignments: bool = False,
        time_budget: Optional[float] = None,
        cancel_event: Optional[threading.Event] = None,
        tracer=None,
    ) -> ShardedQueryExecution:
        """Create one (unstarted) per-shard execution per shard.

        Every shard resolves the same selectivity: they share the global
        converter, so an ``evalue`` maps to one global ``min_score`` and each
        shard prunes against the global threshold, not its own size.
        """
        if self._closed:
            raise RuntimeError("ShardedEngine is closed")
        executions = [
            shard.execute(
                query,
                min_score=min_score,
                evalue=evalue,
                # Each shard keeps at most the global top-k: a hit outside a
                # shard's own top-k can never be in the merged top-k.
                max_results=max_results,
                compute_alignments=compute_alignments,
                time_budget=time_budget,
                cancel_event=cancel_event,
                tracer=tracer,
            )
            for shard in self.shards
        ]
        return ShardedQueryExecution(
            self, executions, query, max_results, time_budget=time_budget, tracer=tracer
        )

    def instrument(self, tracer) -> None:
        """Attach a tracer to every shard's buffer pool (``None`` detaches).

        Only this engine's own cursors are instrumented; process-backend
        workers hold their own cursors and instrument them per task from the
        :class:`~repro.obs.TraceContext` shipped inside it.
        """
        for shard in self.shards:
            shard.instrument(tracer)

    # ------------------------------------------------------------------ #
    # Scatter backend
    # ------------------------------------------------------------------ #
    @property
    def backend_spec(self) -> str:
        """Declarative spec of the scatter backend (``"threads:4"`` etc.)."""
        return self._backend.spec

    def _scatter(self, executions: List[QueryExecution]) -> List[SearchResult]:
        """Run per-shard executions concurrently on the scatter backend."""
        if self._closed:
            # A closed engine must not run searches over closed shard
            # cursors (or silently resurrect a backend it already shut).
            raise RuntimeError("ShardedEngine is closed")
        tracer = executions[0].tracer if executions else None
        if tracer is not None and tracer.flight is not None:
            flight = tracer.flight
            for shard_index, execution in enumerate(executions):
                flight.event(
                    "shard_dispatched",
                    shard=shard_index,
                    query=execution.query[:32],
                    backend=self.backend_spec,
                )
        if self._backend.kind == "processes":
            # Always take the remote path, even for one shard, so a process
            # engine exercises exactly one code path (and its parity is
            # testable at every shard count).
            return self._scatter_processes(executions)
        if len(executions) == 1:
            return [executions[0].result()]
        futures = [
            self._backend.submit(execution.result) for execution in executions
        ]
        return [future.result() for future in futures]

    def _scatter_processes(self, executions: List[QueryExecution]) -> List[SearchResult]:
        """Ship each shard's share of the query to a worker process.

        Workers receive only ``(catalog directory, shard id, query,
        parameters)`` -- the parameters including the global E-value model
        and database size -- and return the shard's :class:`SearchResult`;
        the parent takes its statistics and flags over into the local
        :class:`QueryExecution` it already created, so the merge in
        :meth:`ShardedQueryExecution.result` is oblivious to how the shard
        results were produced.

        The query's pinned monotonic deadline is translated into one
        absolute wall-clock (``time.time()``) deadline shared by every
        shard task: the wall clock crosses process boundaries, so a task
        that queued behind others sees only the time actually left -- the
        budget stays a true per-query wall clock, exactly as on the
        in-process paths.  Cancellation (batch abort, abandoned stream) is
        honoured for shard tasks that have not started; an in-flight remote
        search cannot be interrupted cooperatively and runs to completion
        (bound it with a time budget).
        """
        first = executions[0]
        deadline_epoch: Optional[float] = None
        if first._deadline is not None:
            # Epoch translation for cross-process deadlines, not a duration.
            deadline_epoch = time.time() + (  # repro: allow[monotonic-time]
                first._deadline - time.perf_counter()
            )
        trace_context = None
        if first.tracer is not None:
            # Workers continue the parent's trace: same trace_id, shard spans
            # parented under the parent's query span.
            trace_context = first.tracer.context(parent_id=first.trace_parent)
        logger.debug(
            "scattering query %r across %d shards via %s",
            first.query,
            len(executions),
            self.backend_spec,
        )
        tasks = [
            ShardSearchTask(
                directory=str(self.directory),
                shard_index=shard_index,
                query=first.query,
                min_score=first.min_score,
                max_results=first.max_results,
                compute_alignments=first.compute_alignments,
                deadline_epoch=deadline_epoch,
                buffer_pool_bytes=(
                    self.shard_buffer_bytes[shard_index]
                    if self.shard_buffer_bytes is not None
                    else DEFAULT_BUFFER_POOL_BYTES
                ),
                simulated_miss_latency=self.simulated_miss_latency,
                sleep_on_miss=self.sleep_on_miss,
                fingerprint=(
                    self.catalog.fingerprint if self.catalog is not None else None
                ),
                database_digest=(
                    self.catalog.database_digest if self.catalog is not None else ""
                ),
                trace=trace_context,
                kernel=self.shards[shard_index].kernel,
                statistics_model=first.statistics_model,
                database_size=first.database_size,
            )
            for shard_index in range(len(executions))
        ]
        futures = [self._backend.submit(run_shard_search, task) for task in tasks]
        cancel = first._cancel_event
        if cancel is not None:
            # Poll instead of blocking outright, so a batch abort can still
            # cancel the shard tasks the pool has not started yet.
            pending = set(futures)
            while pending:
                done, pending = futures_wait(pending, timeout=0.05)
                if pending and cancel.is_set():
                    for future in pending:
                        future.cancel()
                    break
        results = []
        try:
            for execution, future in zip(executions, futures):
                if future.cancelled():
                    execution.aborted = True
                    results.append(
                        SearchResult(
                            query=execution.query.upper(),
                            engine="oasis",
                            hits=[],
                            statistics=execution.statistics,
                        )
                    )
                else:
                    results.append(self._adopt(execution, future.result()))
        except BrokenExecutor:
            # A dead worker breaks the whole pool: replace it before
            # propagating, so one crash fails one query (a per-query error
            # in a batch report), not every query for the engine's life.
            reset = getattr(self._backend, "reset", None)
            if reset is not None:
                reset()
            raise
        return results

    @staticmethod
    def _adopt(execution: QueryExecution, outcome: ShardOutcome) -> SearchResult:
        """Take a worker's outcome over into the local (never run) execution.

        The hits need nothing: the worker annotated them with the global
        E-values (same statistics model, query length and database size as
        the in-process path -- bit-identical floats on the same machine).
        """
        result, spans, metrics_snapshot = outcome
        if isinstance(result.statistics, OasisSearchStatistics):
            # (A task that expired before it searched has no counters.)
            execution.statistics = result.statistics
        execution.timed_out = bool(result.parameters.get("timed_out"))
        execution.aborted = bool(result.parameters.get("aborted"))
        if execution.tracer is not None:
            # Stitch the worker's spans into the parent's trace and fold its
            # metric counters (search.*, pool.*) into the parent's registry.
            execution.tracer.adopt(spans)
            execution.tracer.metrics.merge_snapshot(metrics_snapshot)
        return result

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the scatter backend down and close disk-resident cursors.

        Backends the engine created from a spec are closed here; a live
        backend passed in by the caller is left running (they own it).
        """
        if self._closed:
            return
        self._closed = True
        if self._backend_owned:
            self._backend.close()
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:
        source = f", directory={self.directory!r}" if self.directory else ""
        return (
            f"ShardedEngine(database={self._database.name!r}, "
            f"shards={self.shard_count}, backend={self.backend_spec!r}{source})"
        )
