"""ShardedEngine: scatter-gather search over a set of per-shard indexes.

Each shard is a full :class:`~repro.core.engine.OasisEngine` over its slice
of the database (in-memory trees for :meth:`ShardedEngine.build`, disk images
behind buffer pools for :meth:`ShardedEngine.open`).  A query is fanned out
across the shards on the engine's scatter backend (``serial``, the default,
or ``processes[:N]``) and the per-shard
:class:`~repro.core.results.SearchResult` objects -- the same shape whether a
shard ran on this thread or in a worker process -- are merged into one
globally ordered result.

Correctness of the merge rests on three invariants:

* every shard prunes against the **global** E-value threshold: all shards
  share one :class:`~repro.core.evalue.SelectivityConverter` built from the
  whole database, through which the request is resolved once (a process
  worker gets the model and database size inside it), so Equation 3 yields the same ``min_score`` everywhere and
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
from repro.core.request import SearchRequest
from repro.core.results import SearchHit, SearchResult, hit_order_key
from repro.core.surface import SearchSurface
from repro.exec import BackendSpec, ExecutionBackend, resolve_backend
from repro.obs.logsetup import get_logger
from repro.scoring.gaps import DEFAULT_GAP_MODEL, FixedGapModel, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sharding.catalog import ShardCatalog, config_fingerprint, slice_shard
from repro.sharding.remote import (
    ShardSearchTask,
    label_shard_execution,
    run_shard_search,
    unsearched,
)
from repro.storage.blocks import BLOCK_SIZE_DEFAULT
from repro.storage.disk_tree import DEFAULT_BUFFER_POOL_BYTES, DiskSuffixTree

PathLike = Union[str, os.PathLike]

logger = get_logger(__name__)


class ShardedQueryExecution:
    """One query scattered across every shard, gathered into one result.

    Mirrors the :class:`~repro.core.oasis.QueryExecution` surface the batch
    executor relies on: iterate it for the online stream (a lazy k-way merge
    of the per-shard streams, globally ordered because each shard emits in
    canonical order) or call :meth:`result` to run all shards on the engine's
    scatter backend and collect the merged batch result.  Either way the
    query ends in :attr:`shard_results` -- one
    :class:`~repro.core.results.SearchResult` per shard, the same shape
    whether the shard ran on this thread or in a worker process -- and the
    statistics, the ``timed_out`` / ``aborted`` flags and the per-shard rows
    are read from those.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        request: SearchRequest,
        cancel_event: Optional[threading.Event] = None,
        tracer=None,
    ):
        self.engine = engine
        #: Resolved against the global database: every shard runs this value.
        self.request = request
        self.cancel_event = cancel_event
        self.tracer = tracer
        #: Explicit parent for the query span (a batch executor sets it so
        #: queries running on pool threads still nest under the batch span).
        self.trace_parent: Optional[str] = None
        #: The shard executions of this process, built when the query starts
        #: to run here (a process scatter builds none).
        self.executions: List[QueryExecution] = []
        self.shard_results: List[SearchResult] = []
        #: The query's one absolute deadline (``time.perf_counter`` timebase).
        self.deadline: Optional[float] = None
        self._abort_requested = False
        self._iterator: Optional[Iterator[SearchHit]] = None
        self._collected: List[SearchHit] = []
        self._wall_seconds = 0.0
        self._result: Optional[SearchResult] = None

    # ------------------------------------------------------------------ #
    # Flags and statistics
    # ------------------------------------------------------------------ #
    @property
    def timed_out(self) -> bool:
        return any(result.parameters.get("timed_out") for result in self.shard_results)

    @property
    def aborted(self) -> bool:
        return any(result.parameters.get("aborted") for result in self.shard_results)

    def _shard_statistics(self) -> List[OasisSearchStatistics]:
        # (A task that expired or was cancelled before it searched has no counters.)
        return [
            result.statistics or OasisSearchStatistics(kernel=shard.kernel)
            for shard, result in zip(self.engine.shards, self.shard_results)
        ]

    @property
    def statistics(self) -> OasisSearchStatistics:
        """Work counters summed over all shards (queue peak is the max)."""
        return OasisSearchStatistics.merged(self._shard_statistics(), self._wall_seconds)

    def _open_query_span(self, **attributes):
        """Open the ``query`` span (``None`` untraced); shard spans name it by id."""
        attributes.update(shards=self.engine.shard_count, phase="scatter")
        return open_span(self.tracer, "query", self.trace_parent, attributes)

    def abort(self) -> None:
        """Stop this process's shard executions at their next queue pop."""
        self._abort_requested = True
        for execution in self.executions:
            execution.abort()

    def _pin_deadline(self) -> None:
        """Fix one absolute deadline for all shards of the query.

        A per-execution relative budget would restart with every shard (or
        whenever a shard task leaves a worker pool's queue), granting up to
        ``shard_count x budget`` per query; pinning ``now + budget`` before
        any shard runs keeps the budget a true per-query wall clock.
        """
        if self.request.time_budget is not None:
            self.deadline = time.perf_counter() + self.request.time_budget

    def start_shards(self, span) -> List[QueryExecution]:
        """Build this process's shard executions, ready to run.

        They share the pinned deadline and find the query span by explicit
        id, not by thread-local nesting.
        """
        for shard_index, shard in enumerate(self.engine.shards):
            execution = shard.execute_request(
                self.request, cancel_event=self.cancel_event, tracer=self.tracer
            )
            execution.set_deadline(self.deadline)
            if span is not None:
                label_shard_execution(execution, shard_index, span.span_id)
            if self._abort_requested:
                execution.abort()
            self.executions.append(execution)
        return self.executions

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
        paper's online consumption model); only :meth:`result` uses the
        scatter backend.  Each shard stream is sorted by the canonical hit
        order, so the merge is too.
        """
        start = time.perf_counter()
        self._pin_deadline()
        span = self._open_query_span(streaming=True)
        streams = [
            self._shard_stream(shard, execution)
            for shard, execution in enumerate(self.start_shards(span))
        ]
        max_results = self.request.max_results
        try:
            for hit in heapq.merge(*streams, key=hit_order_key):
                self._collected.append(hit)
                yield hit
                if max_results is not None and len(self._collected) >= max_results:
                    return
        finally:
            self._wall_seconds = time.perf_counter() - start
            for stream in streams:
                stream.close()
            # Closing the wrappers does not close the shard executions
            # themselves; do it explicitly so their statistics are finalised
            # and an abandoned merge cannot silently resume work later.
            for execution in self.executions:
                execution.close()
            self.shard_results = [execution.result() for execution in self.executions]
            if span is not None:
                span.set_attribute("hits", len(self._collected))
                self.tracer._pop(span)
                span.finish()

    def close(self) -> None:
        """Abandon the merged stream (and with it every shard stream)."""
        if self._iterator is not None:
            self._iterator.close()

    def _merge_hits(self) -> List[SearchHit]:
        """Remap shard-local hits to global indices and order canonically."""
        hits: List[SearchHit] = []
        for shard, result in enumerate(self.shard_results):
            offset = self.engine.sequence_offset(shard)
            for hit in result.hits:
                hit.sequence_index += offset
                hits.append(hit)
        hits.sort(key=hit_order_key)
        # Each shard kept at most the global top-k: a hit outside a shard's
        # own top-k can never be in the merged top-k.
        return hits[: self.request.max_results]

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #
    def result(self) -> SearchResult:
        """Run every shard on the scatter backend (unless streaming) and merge.

        Memoised: the remap mutates the shard results' hit objects in place,
        so the merge must run exactly once -- repeated calls return the same
        object, as :meth:`QueryExecution.result` effectively does.
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
                self.shard_results = self.engine._scatter(self, span)
                self._wall_seconds = time.perf_counter() - start
                if span is None:
                    hits = self._merge_hits()
                else:
                    with tracer.span(
                        "merge", parent_id=span.span_id, phase="merge"
                    ) as merge_span:
                        hits = self._merge_hits()
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
        survived = [0] * self.engine.shard_count
        offsets = self.engine._offsets
        for hit in hits:
            survived[bisect_right(offsets, hit.sequence_index) - 1] += 1

        shard_statistics = self._shard_statistics()
        shard_stats = [
            {
                "shard": shard,
                "hits": survived[shard],
                "columns_expanded": statistics.columns_expanded,
                "nodes_expanded": statistics.nodes_expanded,
                "elapsed_seconds": statistics.elapsed_seconds,
                "timed_out": bool(result.parameters.get("timed_out")),
                "aborted": bool(result.parameters.get("aborted")),
            }
            for shard, (result, statistics) in enumerate(
                zip(self.shard_results, shard_statistics)
            )
        ]

        merged = SearchResult(
            query=self.request.query.upper(),
            engine="oasis-sharded",
            hits=hits,
            elapsed_seconds=self._wall_seconds,
            columns_expanded=sum(row["columns_expanded"] for row in shard_stats),
            parameters={
                "min_score": self.request.min_score,
                "matrix": self.engine.matrix.name,
                "gap": self.engine.gap_model.per_symbol,
                "max_results": self.request.max_results,
                "shards": self.engine.shard_count,
                "shard_stats": shard_stats,
            },
            statistics=OasisSearchStatistics.merged(shard_statistics, self._wall_seconds),
        )
        if self.timed_out:
            merged.parameters["timed_out"] = True
        if self.aborted:
            merged.parameters["aborted"] = True
        self._result = merged
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedQueryExecution(query={self.request.query!r}, "
            f"shards={self.engine.shard_count})"
        )


def check_scatter_backend(
    backend: "Union[str, BackendSpec, ExecutionBackend, None]", persistent: bool
) -> str:
    """The kind a scatter backend description names, without creating anything.

    A scatter is ``serial`` (the default) or ``processes[:N]``; a thread
    scatter lost to the serial loop on every index measured (the search holds
    the interpreter lock), so it is refused.  A process scatter needs a
    ``persistent`` index: its workers open the shard images from the catalog.
    """
    if backend is None:
        return "serial"
    if isinstance(backend, str):
        backend = BackendSpec.parse(backend)
    if backend.kind == "threads":
        raise ValueError(
            f"a shard scatter runs 'serial' or 'processes[:N]', not {str(backend)!r} "
            "(threads ran slower than the serial loop: the search holds the "
            "interpreter lock)"
        )
    if backend.kind == "processes" and not persistent:
        raise ValueError(
            "a process scatter backend needs a persistent sharded index: "
            "worker processes open shard images from the catalog, which "
            "an in-memory engine does not have -- build one with "
            "ShardedIndexBuilder / build_on_disk and use ShardedEngine.open"
        )
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
    The engine defines ``execute_request`` and inherits the searching surface
    (``execute`` / ``search`` / ``search_online`` / ``search_many``) that
    :class:`~repro.core.engine.OasisEngine` inherits, so every consumer of
    an engine -- the batch executor, the workload adapters, the CLI -- can
    run sharded without changes.

    ``backend`` selects the scatter strategy for ``search`` /
    :meth:`ShardedQueryExecution.result`: ``"serial"`` (the default: the
    shards run one after another on the calling thread) or
    ``"processes[:N]"`` (one worker per shard unless ``N`` is given), as a
    spec string, a :class:`~repro.exec.BackendSpec` or a live
    :class:`~repro.exec.ProcessBackend` (then caller-owned).  There is no
    thread scatter: with its images in the page cache the search is
    CPU-bound under the interpreter lock, and on the benchmark's protein
    inputs (4 shards, 60 queries, 2 cores; medians of 10 pairs) ``threads:4``
    took 2.33 s to the serial loop's 1.79 s with a pool that fits, and 5.32 s
    to 3.02 s with a pool of 1/8 of the image.  A process backend escapes
    the GIL: each task carries only the catalog directory, a shard id and
    the request, the worker process lazily opens its shard image read-only
    from the catalog, and the shard's
    :class:`~repro.core.results.SearchResult` travels back for the same
    merge the in-process shards go through.  It therefore
    requires a persistent index (a catalog directory); the streaming path
    (``search_online``) always runs in-process regardless of backend.
    """

    def __init__(
        self,
        shards: List[OasisEngine],
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
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
        check_scatter_backend(backend, persistent=directory is not None)
        # A bare "processes" spec gets one worker per shard.
        self._backend, self._backend_owned = resolve_backend(
            backend, default_workers=len(self.shards)
        )
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
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        shard_count: int = 2,
        by: str = "residues",
        kernel=None,
    ) -> "ShardedEngine":
        """Split the database and build one in-memory index per shard.

        The engine scatters serially: a process scatter needs a catalog
        directory for its workers to open.  The planner and the tree builder
        are imported here, so opening a persistent index never loads them.
        """
        from repro.sharding.planner import ShardPlanner
        from repro.suffixtree.generalized import GeneralizedSuffixTree

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
        return cls(shards, database, matrix, gap_model, converter=converter)

    @classmethod
    def build_on_disk(
        cls,
        database: SequenceDatabase,
        directory: PathLike,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
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
        from repro.sharding.builder import ShardedIndexBuilder

        # Refuse a scatter backend before the build, not after it.
        check_scatter_backend(open_kwargs.get("backend"), persistent=True)
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

        scatter_kind = check_scatter_backend(backend, persistent=True)
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

        if scatter_kind == "processes" and not os.path.exists(
            catalog.database_path(directory)
        ):
            # Fail at open, not on every query: worker processes restore the
            # sequences from the bundled FASTA, which an index built with
            # write_database=False does not carry.
            raise ValueError(
                "a process scatter backend needs a self-contained index "
                "directory, but this one has no bundled database.fasta "
                "(built with write_database=False) for the worker processes "
                "to load -- rebuild with the FASTA included or open with the "
                "serial backend"
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
                cursor = DiskSuffixTree(
                    catalog.shard_image_path(directory, entry),
                    slice_shard(database, entry),
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
    def execute_request(
        self,
        request: SearchRequest,
        cancel_event: Optional[threading.Event] = None,
        tracer=None,
    ) -> ShardedQueryExecution:
        """Resolve the request once, globally, and create its (unstarted) scatter.

        Every shard runs the same resolved request: the converter spans the
        whole database, so an ``evalue`` maps to one global ``min_score`` and
        each shard prunes against the global threshold, not its own size.
        """
        if self._closed:
            raise RuntimeError("ShardedEngine is closed")
        return ShardedQueryExecution(
            self, request.resolved(self.converter), cancel_event=cancel_event, tracer=tracer
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
        """Declarative spec of the scatter backend (``"serial"`` / ``"processes:N"``)."""
        return self._backend.spec

    def _scatter(self, scattered: ShardedQueryExecution, span) -> List[SearchResult]:
        """Run one query's shards on the scatter backend: a result per shard."""
        if self._closed:
            # A closed engine must not run searches over closed shard
            # cursors (or silently resurrect a backend it already shut).
            raise RuntimeError("ShardedEngine is closed")
        if self._backend.kind == "processes":
            # Always take the remote path, even for one shard, so a process
            # engine exercises exactly one code path (and its parity is
            # testable at every shard count).
            return self._scatter_processes(scattered, span)
        return [execution.result() for execution in scattered.start_shards(span)]

    def _scatter_processes(self, scattered: ShardedQueryExecution, span) -> List[SearchResult]:
        """Ship each shard's share of the query to a worker process.

        Workers receive only the catalog directory, a shard id and the
        resolved request -- which carries the global E-value model and
        database size -- and return the shard's :class:`SearchResult`, the
        shape an in-process shard execution hands the merge; no execution is
        built in this process.

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
        request, tracer = scattered.request, scattered.tracer
        deadline_epoch: Optional[float] = None
        if scattered.deadline is not None:
            # Epoch translation for cross-process deadlines, not a duration.
            deadline_epoch = time.time() + (  # repro: allow[monotonic-time]
                scattered.deadline - time.perf_counter()
            )
        trace_context = None
        if tracer is not None:
            # Workers continue the parent's trace: same trace_id, shard spans
            # parented under the parent's query span.
            trace_context = tracer.context(parent_id=span.span_id)
        logger.debug(
            "scattering query %r across %d shards via %s",
            request.query,
            len(self.shards),
            self.backend_spec,
        )
        tasks = [
            ShardSearchTask(
                directory=str(self.directory),
                shard_index=shard_index,
                request=request,
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
                kernel=shard.kernel,
            )
            for shard_index, shard in enumerate(self.shards)
        ]
        futures = [self._backend.submit(run_shard_search, task) for task in tasks]
        cancel = scattered.cancel_event
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
            for future in futures:
                if future.cancelled():
                    results.append(unsearched(request, "aborted"))
                    continue
                # The hits need nothing: the worker annotated them with the
                # global E-values (same statistics model, query length and
                # database size as the in-process path -- bit-identical
                # floats on the same machine).
                result, spans, metrics_snapshot = future.result()
                if tracer is not None:
                    # Stitch the worker's spans into the parent's trace and
                    # fold its metric counters (search.*, pool.*) into the
                    # parent's registry.
                    tracer.adopt(spans)
                    tracer.metrics.merge_snapshot(metrics_snapshot)
                results.append(result)
        except BrokenExecutor:
            # A dead worker breaks the whole pool: replace it before
            # propagating, so one crash fails one query (a per-query error
            # in a batch report), not every query for the engine's life.
            reset = getattr(self._backend, "reset", None)
            if reset is not None:
                reset()
            raise
        return results

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
