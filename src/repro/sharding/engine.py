"""ShardedEngine: the OasisEngine of an index directory, searched whole or by root partitions.

An index (built by :class:`~repro.sharding.ShardedIndexBuilder`) holds one
disk image of the whole database, which :meth:`ShardedEngine.open` opens
with :meth:`OasisEngine.open <repro.core.engine.OasisEngine.open>`.  The
engine is that :class:`~repro.core.engine.OasisEngine`, and its scatter
backend decides how a query's ``result()`` runs:

* ``serial`` (the default), and every streaming search on either backend
  (iterating an execution, ``search_online``), run the inherited
  :class:`~repro.core.oasis.QueryExecution` over the whole tree -- the
  search ``OasisEngine.open``'s engine runs, with one execution, one
  frontier and one ``query`` span;
* ``processes[:N]`` splits the tree as the paper's Section 3.4.1 does: a
  *shard* is a set of the root's children (:func:`root_partitions`, one per
  partition the catalog records).  Each worker searches the whole image, but
  only below the root children whose first symbol its partition owns, and
  returns its :class:`~repro.core.results.SearchResult`; this process
  merges them.

Correctness of the process merge rests on two facts:

* every partition prunes against the same threshold and annotates hits with
  the same E-values: the request is resolved once, in this process, against
  the whole database;
* a sequence may score in several partitions, each reporting its best
  alignment below the root children it owns; the sequence's best score
  overall is the best of those.  The merge keeps each sequence's first hit
  in the canonical order (:func:`~repro.core.results.hit_order_key`), which
  is its best, then cuts at ``max_results``.  The union of the partitions'
  top-k holds the global top-k: a sequence that beats another in the latter's
  best partition beats it there, too.

The parity tests in ``tests/test_sharding.py`` check both.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import wait as futures_wait
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.kernels import ReferenceKernel
from repro.core.oasis import OasisSearchStatistics, QueryExecution, open_span
from repro.core.request import SearchRequest
from repro.core.results import SearchResult, hit_order_key
from repro.obs.logsetup import get_logger
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sharding.catalog import ShardCatalog
from repro.sharding.remote import (
    ShardSearchTask,
    run_shard_search,
    spawn_pool,
    unsearched,
)
from repro.storage.blocks import BLOCK_SIZE_DEFAULT
from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES

if TYPE_CHECKING:  # pragma: no cover - annotation only; made on first scatter
    from concurrent.futures import ProcessPoolExecutor

    from repro.storage.buffer_pool import BufferPool

PathLike = Union[str, os.PathLike]

logger = get_logger(__name__)


def root_partitions(database: SequenceDatabase, count: int) -> List[bytes]:
    """The first symbols of the root children each of ``count`` partitions owns.

    Root child *c* has one leaf below it per residue *c* in the database, so
    the symbol counts balance the partitions without touching the tree: the
    symbols, most frequent first (ties by code), each go to the partition
    with the smallest total so far (ties to the lowest index).  Partition 0
    also owns the terminal-only root children.  A partition may own nothing
    (more partitions than symbols); it is not searched.
    """
    codes = database.concatenated_codes
    alphabet = database.alphabet
    counts = [codes.count(code) for code in range(len(alphabet))]
    owned: List[List[int]] = [[] for _ in range(count)]
    owned[0].append(alphabet.terminal_code)
    totals = [0] * count
    for code in sorted(range(len(alphabet)), key=lambda code: (-counts[code], code)):
        if counts[code] == 0:
            break
        target = min(range(count), key=lambda index: (totals[index], index))
        owned[target].append(code)
        totals[target] += counts[code]
    return [bytes(sorted(symbols)) for symbols in owned]


class ShardedQueryExecution(QueryExecution):
    """One query over an index's tree: the inherited search, or a process scatter.

    Iterating it, and :meth:`result` on the serial backend, are
    :class:`~repro.core.oasis.QueryExecution`'s own run over the whole tree.
    On a ``processes[:N]`` engine, :meth:`result` of a query that has not
    started ships one task per partition to the engine's workers and merges
    their results: this process runs no frontier, and the merge sets
    :attr:`statistics`, :attr:`timed_out`, :attr:`aborted` and
    :attr:`hit_count`.  Either way the result is ``engine="oasis-sharded"``
    with one ``shard_stats`` row per searched tree or partition, and
    repeated calls return the same object.
    """

    engine: "ShardedEngine"
    _result: Optional[SearchResult] = None

    def result(self) -> SearchResult:
        if self._result is not None:
            return self._result
        scattered = None
        if self._iterator is None:
            if self.engine._closed:
                # A closed engine must not search a closed cursor (or
                # silently resurrect a pool it already shut).
                raise RuntimeError("ShardedEngine is closed")
            if self.engine._workers is not None:
                scattered = self._scatter_and_merge()
        result = super().result()
        if scattered:
            # No hit was emitted online in this process.
            del result.parameters["online_log"]
        partitions, survived = scattered or ([result], [len(result.hits)])
        rows = []
        for shard, (partition, hits) in enumerate(zip(partitions, survived)):
            # (A task that expired, was cancelled or owned no root child has no counters.)
            statistics = partition.statistics or OasisSearchStatistics()
            rows.append(
                {
                    "shard": shard,
                    "hits": hits,
                    "columns_expanded": statistics.columns_expanded,
                    "nodes_expanded": statistics.nodes_expanded,
                    "elapsed_seconds": statistics.elapsed_seconds,
                    "timed_out": bool(partition.parameters.get("timed_out")),
                    "aborted": bool(partition.parameters.get("aborted")),
                }
            )
        result.engine = "oasis-sharded"
        result.parameters.update(shards=len(rows), shard_stats=rows)
        self._result = result
        return result

    def _scatter_and_merge(self) -> Tuple[List[SearchResult], List[int]]:
        """Search every partition on the engine's workers and merge the hits.

        Returns the partition results, and how many of the merged hits each
        gave (so the rows sum to the hits).  The query's one absolute
        deadline is pinned before any task runs: a relative budget would
        restart whenever a task leaves the pool's queue, granting up to
        ``partitions x budget`` per query.
        """
        start = time.perf_counter()
        if self._deadline is None and self.request.time_budget is not None:
            self._deadline = start + self.request.time_budget
        tracer = self.tracer
        span = open_span(
            tracer,
            "query",
            self.trace_parent,
            {"shards": self.engine.shard_count, "phase": "scatter"},
        )
        try:
            partitions = self.engine._scatter(self, span)
            # The workers ran the query: no stream may start it here.
            self.close()
            kernel = self.engine.kernel
            self.statistics = OasisSearchStatistics.merged(
                [p.statistics or OasisSearchStatistics(kernel=kernel) for p in partitions],
                time.perf_counter() - start,
            )
            self.timed_out = any(p.parameters.get("timed_out") for p in partitions)
            self.aborted = any(p.parameters.get("aborted") for p in partitions)
            if span is None:
                survived = self._merge(partitions)
            else:
                with tracer.span("merge", parent_id=span.span_id, phase="merge") as merge_span:
                    survived = self._merge(partitions)
                    merge_span.set_attribute("hits", len(self._hits))
        finally:
            if span is not None:
                span.set_attribute("timed_out", self.timed_out)
                span.set_attribute("aborted", self.aborted)
                tracer._pop(span)
                span.finish()
        return partitions, survived

    def _merge(self, partitions: List[SearchResult]) -> List[int]:
        """Keep each sequence once, at its best score, in canonical order, cut
        at ``max_results``; return how many of those hits each partition gave."""
        candidates = sorted(
            ((hit, shard) for shard, partition in enumerate(partitions) for hit in partition.hits),
            key=lambda pair: hit_order_key(pair[0]),
        )
        limit = self.request.max_results
        survived = [0] * len(partitions)
        seen = set()
        for hit, shard in candidates:
            if hit.sequence_index in seen:
                continue
            seen.add(hit.sequence_index)
            self._hits.append(hit)
            survived[shard] += 1
            if len(self._hits) == limit:
                break
        return survived


def check_scatter_backend(backend: Optional[str]) -> Tuple[str, Optional[int]]:
    """The scatter a backend spec names: ``(kind, workers)``, creating nothing.

    A scatter is ``"serial"`` (the default; ``workers`` is ``None``) or
    ``"processes[:N]"`` (``workers`` is ``N``, or ``None`` for a bare
    ``"processes"``).  A thread scatter lost to the serial loop on every
    index measured (the search holds the interpreter lock), so it is refused;
    so is any other spelling, naming the two scatter forms.
    """
    text = "serial" if backend is None else str(backend)
    kind, sep, count = text.strip().lower().partition(":")
    if kind == "threads":
        raise ValueError(
            f"a shard scatter runs 'serial' or 'processes[:N]', not {text!r} "
            "(threads ran slower than the serial loop: the search holds the "
            "interpreter lock)"
        )
    if kind not in ("serial", "processes") or (kind == "serial" and sep):
        raise ValueError(
            f"unknown backend {text!r}: a shard scatter runs 'serial' or 'processes[:N]'"
        )
    if not sep:
        return kind, None
    try:
        workers = int(count)
    except ValueError:
        raise ValueError(
            f"bad worker count in backend spec {text!r}: {count!r} is not an integer"
        ) from None
    if workers < 1:
        raise ValueError("backend workers must be at least 1")
    return kind, workers


def shard_pool_budgets(
    total_bytes: int, shard_residues: List[int], block_size: int
) -> List[int]:
    """Split one buffer-pool budget across images, proportionally to size.

    Stays until ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine`` onto
    the engine's own cursors: an index now holds one image, whose pool gets
    the whole budget.  Each image gets a share of ``total_bytes``
    proportional to its residue count, floored at one frame (``block_size``
    bytes) -- a pool smaller than one block cannot hold a single page.
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


class ShardedEngine(OasisEngine):
    """The :class:`~repro.core.engine.OasisEngine` of an index directory, on a scatter backend.

    :meth:`open` is :meth:`OasisEngine.open
    <repro.core.engine.OasisEngine.open>` plus a scatter; :meth:`build_on_disk`
    builds the directory first.  The engine searches the index's one tree
    through the opened engine's cursor, scoring and kernel, so every search
    it runs in this process is :class:`~repro.core.oasis.QueryExecution`'s.

    ``backend`` selects how ``search`` / :meth:`ShardedQueryExecution.result`
    run a query: ``"serial"`` (the default: that search, on the calling
    thread) or ``"processes[:N]"`` (one task per root partition the catalog
    records, on a pool of ``N`` spawned worker processes -- by default one
    per partition that owns a root child).  The engine owns that pool: it is
    made on the first scatter, replaced when a worker dies, and shut by
    :meth:`close`.  There is no thread scatter: the search is CPU-bound
    under the interpreter lock, and ``threads:4`` took 2.33 s to the serial
    loop's 1.79 s (benchmark protein inputs, 2 cores, medians of 10 pairs).
    Each worker opens the index once, with the same opener and pool budget
    as this process, and serves every partition from it.  The streaming
    path (``search_online``) always runs the search in this process.

    The constructor takes a list of exactly one engine over the index's
    image, whose cursor, kernel and (unless given) converter it adopts, and
    ``shard_buffer_bytes`` a list of its one pool budget: both lists stay
    until ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine`` onto the
    engine's own cursors.
    """

    def __init__(
        self,
        shards: List[OasisEngine],
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        converter: Optional[SelectivityConverter] = None,
        *,
        catalog: ShardCatalog,
        directory: str,
        shard_buffer_bytes: List[int],
        backend: Optional[str] = None,
    ):
        if len(shards) != 1:
            raise ValueError(
                f"a ShardedEngine searches one tree: pass one engine, not {len(shards)}"
            )
        (tree,) = shards
        converter = converter or tree.converter
        super().__init__(tree.cursor, matrix, gap_model, converter, kernel=tree.expansion_kernel)
        self.catalog = catalog
        self.directory = directory
        kind, workers = check_scatter_backend(backend)
        #: The root children (first symbols) each partition owns.
        self.partitions = root_partitions(database, catalog.partitions)
        # Worker processes of a process scatter (None: serial).  A bare
        # "processes" spec gets one per partition that searches.
        self._workers: Optional[int] = None
        if kind == "processes":
            kernel = self.expansion_kernel
            if isinstance(kernel, ReferenceKernel) and not all(kernel.rules.values()):
                # The workers get the kernel by name, and so every rule.
                raise ValueError(
                    "a process scatter backend runs every pruning rule: search a "
                    "ReferenceKernel with a rule off on the serial backend"
                )
            if not os.path.exists(catalog.database_path(directory)):
                # Fail here, not on every query: the workers read the
                # sequences from the bundled FASTA.
                raise ValueError(
                    "a process scatter backend needs a self-contained index "
                    "directory, but this one has no bundled database.fasta "
                    "(built with write_database=False) for the worker processes "
                    "to load -- rebuild with the FASTA included or open with the "
                    "serial backend"
                )
            self._workers = workers or sum(1 for symbols in self.partitions if symbols)
        #: The pool budget in bytes: process workers open the image with it.
        self.buffer_pool_bytes = shard_buffer_bytes[0]
        self._closed = False
        # The process pool, made on first use.  A ``workers=N`` batch
        # scatters from N threads, so making, replacing and shutting it
        # happen under one lock.
        self._pool: Optional["ProcessPoolExecutor"] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, *args, **kwargs) -> "ShardedEngine":
        """Refused: an index engine comes from a catalog directory."""
        raise TypeError(
            "an index engine comes from a catalog directory: use "
            "ShardedEngine.open or ShardedEngine.build_on_disk"
        )

    @classmethod
    def build_on_disk(
        cls,
        database: SequenceDatabase,
        directory: PathLike,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        shard_count: int = 2,
        block_size: int = BLOCK_SIZE_DEFAULT,
        **open_kwargs,
    ) -> "ShardedEngine":
        """Build a persistent index directory of ``shard_count`` partitions and open it.

        ``backend`` in ``open_kwargs`` selects the scatter strategy of the
        returned engine.  The positional order differs from
        :meth:`OasisEngine.build_on_disk
        <repro.core.engine.OasisEngine.build_on_disk>`: here the directory
        comes before ``matrix``, there the image path after it.
        """
        from repro.sharding.builder import ShardedIndexBuilder

        # Refuse a scatter backend before the build, not after it.
        check_scatter_backend(open_kwargs.get("backend"))
        ShardedIndexBuilder(
            matrix, gap_model, shard_count=shard_count, block_size=block_size
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
        backend: Optional[str] = None,
        kernel=None,
    ) -> "ShardedEngine":
        """Open a persistent index from its catalog, to search on ``backend``.

        :meth:`OasisEngine.open <repro.core.engine.OasisEngine.open>` opens
        the directory, with the same arguments: the catalog and its checks,
        the bundled FASTA, the image by the fit rule.  A read tree reads its
        records on first search, so on a ``processes`` scatter, whose
        workers search, this process reads none.
        """
        check_scatter_backend(backend)  # before any file is opened
        tree = OasisEngine.open(
            directory, database, matrix, gap_model, buffer_pool_bytes, kernel=kernel
        )
        catalog = tree.catalog
        assert catalog is not None  # OasisEngine.open records the one it read
        try:
            return cls(
                [tree],
                tree.database,
                tree.matrix,
                tree.gap_model,
                catalog=catalog,
                directory=str(directory),
                shard_buffer_bytes=[max(catalog.block_size, buffer_pool_bytes)],
                backend=backend,
            )
        except Exception:
            tree.close()
            raise

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def buffer_pool(self) -> Optional["BufferPool"]:
        """The pool a ``result()`` reads pages through in this process;
        ``None`` on a process scatter, whose workers read through their own."""
        return super().buffer_pool if self._workers is None else None

    @property
    def shard_count(self) -> int:
        """How many shard results a query's ``result()`` gathers: 1 on the
        serial scatter, one per partition on a process scatter."""
        return 1 if self._workers is None else len(self.partitions)

    @property
    def backend_spec(self) -> str:
        """Declarative spec of the scatter backend (``"serial"`` / ``"processes:N"``)."""
        return "serial" if self._workers is None else f"processes:{self._workers}"

    # ------------------------------------------------------------------ #
    # Searching
    # ------------------------------------------------------------------ #
    def execute_request(self, request: SearchRequest, tracer=None) -> ShardedQueryExecution:
        """Resolve the request once, here, and create its (unstarted) execution.

        Every partition of a process scatter runs the same resolved request,
        so an ``evalue`` maps to one ``min_score`` and every hit gets the
        E-value the monolithic engine gives it.
        """
        if self._closed:
            raise RuntimeError("ShardedEngine is closed")
        return ShardedQueryExecution(self, request.resolved(self.converter), tracer=tracer)

    def _scatter(self, scattered: ShardedQueryExecution, span) -> List[SearchResult]:
        """Ship each partition's share of a query to a worker process.

        Workers receive only the catalog directory, the partition and the
        resolved request, and return the partition's :class:`SearchResult`;
        no frontier runs in this process.  A partition that owns no root
        child gets an empty result without a task.

        The query's pinned monotonic deadline is translated into one
        absolute wall-clock (``time.time()``) deadline shared by every task:
        the wall clock crosses process boundaries, so a task that queued
        behind others sees only the time actually left -- the budget stays
        a true per-query wall clock, exactly as on the in-process path.
        An :meth:`~ShardedQueryExecution.abort` before the scatter submits
        no task, as an abort before the start runs no search on every other
        engine; one during it cancels the tasks that have not started (the
        flag is polled while the tasks run).  An in-flight remote search
        cannot be interrupted cooperatively and runs to completion (bound it
        with a time budget).
        """
        request, tracer = scattered.request, scattered.tracer
        if scattered._abort_requested:
            return [
                unsearched(request, "aborted") if symbols else unsearched(request)
                for symbols in self.partitions
            ]
        deadline_epoch: Optional[float] = None
        if scattered._deadline is not None:
            # Epoch translation for cross-process deadlines, not a duration.
            deadline_epoch = time.time() + (  # repro: allow[monotonic-time]
                scattered._deadline - time.perf_counter()
            )
        trace_context = None
        if tracer is not None:
            # Workers continue the parent's trace: same trace_id, shard spans
            # parented under the parent's query span.
            trace_context = tracer.context(parent_id=span.span_id)
        logger.debug(
            "scattering query %r across %d partitions via %s",
            request.query,
            len(self.partitions),
            self.backend_spec,
        )
        pool = self._process_pool()
        try:
            futures = [
                pool.submit(
                    run_shard_search,
                    ShardSearchTask(
                        directory=self.directory,
                        shard=shard,
                        root_symbols=symbols,
                        request=request,
                        matrix=self.matrix,
                        deadline_epoch=deadline_epoch,
                        buffer_pool_bytes=self.buffer_pool_bytes,
                        fingerprint=self.catalog.fingerprint,
                        database_digest=self.catalog.database_digest,
                        trace=trace_context,
                        kernel=self.kernel,
                    ),
                )
                if symbols
                else None
                for shard, symbols in enumerate(self.partitions)
            ]
            # Poll instead of blocking outright, so an abort of the query
            # can still cancel the tasks the pool has not started yet.
            pending = {future for future in futures if future is not None}
            while pending:
                done, pending = futures_wait(pending, timeout=0.05)
                if pending and scattered._abort_requested:
                    for future in pending:
                        future.cancel()
                    break
            results = []
            for future in futures:
                if future is None:
                    results.append(unsearched(request))
                    continue
                if future.cancelled():
                    results.append(unsearched(request, "aborted"))
                    continue
                result, spans = future.result()
                if tracer is not None:
                    # Stitch the worker's spans into the parent's trace.
                    tracer.adopt(spans)
                results.append(result)
        except BrokenExecutor:
            # A dead worker breaks the whole pool: replace it before
            # propagating, so one crash fails one query (a per-query error
            # in a batch report), not every query for the engine's life.
            self._discard_pool(pool)
            raise
        return results

    def _process_pool(self) -> "ProcessPoolExecutor":
        """The engine's worker pool, made on first use; never after close."""
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("ShardedEngine is closed")
            if self._pool is None:
                self._pool = spawn_pool(self._workers or 1)
            return self._pool

    def _discard_pool(self, broken: "ProcessPoolExecutor") -> None:
        """Drop a broken pool; the next scatter makes a fresh one.

        Only if it is still the current pool: the other threads of a batch
        that saw the same crash must not discard the replacement.
        """
        with self._pool_lock:
            if self._pool is not broken:
                return
            self._pool = None
        # Outside the lock, and without waiting: a broken pool makes no
        # progress, and a stall here must not hold up the other scatters.
        broken.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down and close the tree's cursor."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            # Joins every worker: far too slow to hold the lock across.
            pool.shutdown(wait=True)
        super().close()

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(database={self.database.name!r}, "
            f"partitions={self.catalog.partitions}, backend={self.backend_spec!r}, "
            f"directory={self.directory!r})"
        )
