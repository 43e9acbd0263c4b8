"""The OASIS search driver: Algorithms 1 and 2 of the paper.

:class:`QueryExecution` runs a best-first (A*) search over a suffix tree
cursor.  The priority queue is ordered by the optimistic bound ``f``; a node
is only expanded when no other frontier node could produce a stronger
alignment, so whenever an ACCEPTED node reaches the head of the queue its
alignment score is provably the best still-unreported score anywhere in the
database -- which is what lets OASIS emit results online, in decreasing score
order, without ever missing an alignment above the threshold.

Each execution is a *self-contained* object owning its own priority queue,
:class:`~repro.core.expand.ExpansionContext`, statistics and timing, so any
number of executions can run concurrently (interleaved generators on one
thread, or the threads of a batch) over the same shared read-only cursor.
:class:`~repro.core.engine.OasisEngine` holds the per-database configuration
and creates one execution per query; its ``search`` / ``search_online`` /
``search_many`` all run one.  Each hit records when it was emitted
(``emitted_at``, seconds since the query started: the Figure 9 quantity).

Results follow the paper's reporting convention: the single strongest
alignment per database sequence, for every sequence whose best score reaches
``min_score``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Union

from repro.core.expand import ExpansionContext
from repro.core.frontier import BELOW_FLOOR, EMPTY, FRONTIER_BUDGET, Frontier
from repro.core.kernels import DEFAULT_KERNEL
from repro.core.request import SearchRequest
from repro.core.results import Alignment, SearchHit, SearchResult, hit_order_key
from repro.sequences.sequence import Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation only (the engine imports this module)
    from repro.core.engine import OasisEngine

# Plain stdlib logging under the "repro." hierarchy (see core.engine).
logger = logging.getLogger(__name__)

#: A query that expands more DP columns than this many per database residue
#: is logged as a warning (never refused): a Smith-Waterman scan computes one
#: column per residue.  With PAM30 and the default gap of -8, the benchmark's
#: queries reach about 2 columns per residue; at gap -1 or -2 most of them
#: pass 4, some 20-70.
_WARN_COLUMNS_PER_RESIDUE = 4


@dataclass
class OasisSearchStatistics:
    """Work counters for one query (the quantities behind Figures 4 and 6).

    The ``buffer_*`` counters are the buffer-pool activity observed while
    this query ran (hits/misses/evictions delta over the cursor's pool);
    zero for in-memory cursors.  A shared pool serving concurrent queries
    attributes overlapping activity to every query that was in flight, so
    under concurrency they are an upper bound per query -- exact in the
    serial regime, where one query owns the pool.  A process scatter's are
    exact for what each worker's pool did, but not comparable from run to
    run: each worker's pool stays warm across its tasks, so the counts
    depend on which worker took which partition after which.  A batch's
    exact pool counts are the change in the pool's own
    :class:`~repro.storage.BufferPoolStatistics` over the batch, whatever
    its fan-out: ``search_many`` puts that change in its report's
    ``statistics.search`` for an index searched in the calling process.
    """

    columns_expanded: int = 0
    nodes_expanded: int = 0
    nodes_enqueued: int = 0
    nodes_accepted: int = 0
    nodes_pruned: int = 0
    max_queue_size: int = 0
    elapsed_seconds: float = 0.0
    buffer_hits: int = 0
    buffer_misses: int = 0
    buffer_evictions: int = 0
    #: Which expansion kernel ran the DP (``compiled``/``live``/``reference``)
    #: -- all are parity-gated, so this never changes the hits or counters.
    kernel: str = DEFAULT_KERNEL

    def as_dict(self) -> Dict[str, object]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def merged(
        cls, parts: List["OasisSearchStatistics"], elapsed_seconds: float
    ) -> "OasisSearchStatistics":
        """One query's counters over several executions (a scatter's shards).

        Every integer counter is summed, the queue peak is the largest
        shard's, ``kernel`` is the first shard's (they all run the same one)
        and ``elapsed_seconds`` is the caller's wall clock -- the shards ran
        side by side, so their own times do not add up to it.
        """
        merged = cls(elapsed_seconds=elapsed_seconds)
        if parts:
            merged.kernel = parts[0].kernel
            merged.max_queue_size = max(part.max_queue_size for part in parts)
        for field in fields(cls):
            if isinstance(field.default, int) and field.name != "max_queue_size":
                setattr(merged, field.name, sum(getattr(part, field.name) for part in parts))
        return merged


def open_span(tracer, name: str, parent_id: Optional[str], attributes: Dict[str, object]):
    """Open a span as the calling thread's innermost one (``None`` untraced).

    ``parent_id=None`` nests it under whatever span that thread has open;
    an id stitches work running on a pool thread (or in a worker process)
    under its logical parent instead.
    """
    if tracer is None:
        return None
    if parent_id is not None:
        span = tracer.span(name, parent_id=parent_id, **attributes)
    else:
        span = tracer.span(name, **attributes)
    tracer._push(span)
    return span


class QueryExecution:
    """One self-contained, reentrant run of Algorithms 1/2 for a single query.

    The execution owns everything mutable about a search -- the frontier
    (the priority queue, :mod:`repro.core.frontier`), the
    :class:`ExpansionContext`, the statistics and the timing -- so
    concurrent executions over the same cursor never observe each other.
    Its loop is one call of the frontier's ``advance`` per hit: the
    frontier, made with the tree's root, builds the query's constants and
    pops and expands nodes until an ACCEPTED one surfaces below which some
    sequence was not reported before, the held hits' score is passed or the
    pop budget is spent.  The frontier owns the reported sequences and
    counts ``nodes_accepted``, so a hit arrives as its score and its new
    sequences (the compiled kernel's C frontier walks the leaves itself; the
    Python one asks ``cursor.sequences_below``), and what is left of the hit
    path -- the hit objects, the held equal-score run, ``max_results``,
    full coverage -- stays here.  It is both iterable (streaming hits,
    strongest first) and collectable (:meth:`result`); the iterator can be
    abandoned at any point and :attr:`statistics` still reports the work
    actually done, because the bookkeeping runs in a ``finally`` block when
    the generator is closed.

    ``request`` is the :class:`~repro.core.request.SearchRequest` the engine
    resolved: a ``min_score``, not an E-value, and Equation 2's inputs for
    the hits' E-values, against the whole database wherever the execution
    runs (a process worker receives it resolved by the parent).

    Cooperative interruption, checked between two ``advance`` calls: a stop
    is honoured within :data:`~repro.core.frontier.FRONTIER_BUDGET` queue
    pops, and the hits held back when it comes, proven already, are emitted
    first.

    ``request.time_budget``
        Optional wall-clock budget in seconds; once exceeded, the execution
        stops emitting and marks itself :attr:`timed_out`.  Hits already
        emitted stand (they are still correct and complete down to the score
        reached).
    ``abort()``
        Thread-safe flag: the execution stops within one ``advance`` and
        marks itself :attr:`aborted` (a batch left early aborts its
        executions in flight this way).

    Telemetry (all optional, all off by default):

    ``tracer``
        A :class:`~repro.obs.Tracer`.  The whole run is wrapped in one span
        (named :attr:`trace_name`, parented under :attr:`trace_parent` when a
        coordinator such as a batch sets one) whose attributes
        carry the final work counters.  ``None`` costs a single identity
        check per query -- nothing in the per-node loop.
    """

    def __init__(self, engine: "OasisEngine", request: SearchRequest, tracer=None):
        self.engine = engine
        self.request = request
        self.query_sequence = Sequence(request.query, engine.database.alphabet)
        self.statistics = OasisSearchStatistics(kernel=engine.kernel)
        self.timed_out = False
        self.aborted = False

        #: Telemetry: the span name/parent/attributes are plain fields so a
        #: coordinator (batch, process worker) can re-label its
        #: executions before iteration starts.
        self.tracer = tracer
        self.trace_name = "query"
        self.trace_parent: Optional[str] = None
        #: ``phase`` feeds the per-phase breakdown in ``repro.obs.analyze``:
        #: a standalone execution is pure DP expansion; coordinators relabel.
        self.trace_attributes: Dict[str, object] = {"phase": "expand"}
        #: A partition of the tree (one task of a sharded process scatter):
        #: the first symbols of the root children this execution searches,
        #: ``None`` for all of them.  Set before iteration starts.
        self.root_symbols: Optional[bytes] = None
        self._pool_start: Optional[tuple] = None

        self._abort_requested = False
        self._deadline: Optional[float] = None
        self._start_time: Optional[float] = None
        self._hits: List[SearchHit] = []
        self._iterator: Optional[Iterator[SearchHit]] = None
        self._frontier: Optional[Frontier] = None

        self.context = ExpansionContext(
            query_codes=self.query_sequence.codes,
            score_rows=engine.matrix.rows,
            gap_penalty=engine.gap_model.per_symbol,
            gains=engine.matrix.gains,
            min_score=request.min_score,
            packed_score_rows=engine.matrix.packed_rows,
        )

    # ------------------------------------------------------------------ #
    # Cooperative interruption
    # ------------------------------------------------------------------ #
    def abort(self) -> None:
        """Ask the execution to stop (thread-safe).

        The flag is read between two frontier advances: the search stops
        within :data:`~repro.core.frontier.FRONTIER_BUDGET` queue pops.
        """
        self._abort_requested = True

    @property
    def hit_count(self) -> int:
        """Number of hits emitted so far."""
        return len(self._hits)

    def set_deadline(self, deadline: Optional[float]) -> None:
        """Pin an absolute deadline (``time.perf_counter`` timebase).

        ``time_budget`` is relative to when the execution *starts running*,
        which over-grants time to executions that wait in a pool queue.  A
        coordinator fanning one query across several executions (a process
        scatter of an index) pins one shared absolute deadline instead, so
        the query's budget covers queueing and all partitions together.
        Must be called before the search starts; overrides ``time_budget``.
        """
        self._deadline = deadline

    def _should_stop(self) -> bool:
        if self._abort_requested:
            self.aborted = True
            return True
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            self.timed_out = True
            return True
        return False

    # ------------------------------------------------------------------ #
    # Streaming (online) interface
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[SearchHit]:
        if self._iterator is None:
            self._iterator = self._generate()
        return self._iterator

    def __next__(self) -> SearchHit:
        return next(iter(self))

    def close(self) -> None:
        """Abandon the stream early (statistics still reflect the work done).

        A stream that never started is closed too, so a later :meth:`result`
        collects what was emitted instead of starting the search.
        """
        iter(self).close()

    def _generate(self) -> Iterator[SearchHit]:
        """Yield hits online, strongest first (Algorithm 1).

        The generator can be abandoned at any point ("abort the query after
        seeing the top few matches"); all work stops as soon as the consumer
        stops iterating, and ``finally`` guarantees the statistics are
        finalised even then.
        """
        cursor = self.engine.cursor
        database = cursor.database
        context = self.context
        kernel = self.engine.expansion_kernel
        statistics = self.statistics
        request = self.request
        min_score = request.min_score
        max_results = request.max_results
        statistics_model = request.statistics_model
        database_size = request.database_size
        if database_size is None:
            database_size = database.total_symbols
        query_codes = self.query_sequence.codes

        start_time = time.perf_counter()
        self._start_time = start_time
        if self._deadline is None and request.time_budget is not None:
            self._deadline = start_time + request.time_budget

        span = open_span(self.tracer, self.trace_name, self.trace_parent, self.trace_attributes)
        if span is not None:
            span.set_attribute("query_length", len(query_codes))
            span.set_attribute("min_score", min_score)
        # The cursor's pool, not the engine's ``buffer_pool``: a process
        # scatter's engine names none (its results read in the workers), but
        # a stream it runs reads here.
        pool = getattr(cursor, "pool", None)
        if pool is not None:
            pool_stats = pool.statistics
            self._pool_start = (pool, pool_stats.hits, pool_stats.misses, pool_stats.evictions)

        try:
            # Algorithm 2: the frontier seeds its queue with the root of the
            # suffix tree -- or with nothing, where even a perfect match
            # cannot reach the threshold.  The kernel and the cursor decide
            # which frontier runs: the C one over a cursor's
            # ``node_records`` on the compiled kernel, the Python one
            # everywhere else (``repro.core.frontier``).  A partition's
            # frontier expands the root over the children whose first
            # symbol it owns.  Either reports each database sequence once.
            frontier = self._frontier = kernel.frontier(
                cursor, context, cursor.root, self.root_symbols
            )
            reported = 0
            emitted = 0
            sequence_count = len(database)
            # Hits whose score is proven optimal but whose *rank among equal
            # scores* is not yet: they are held back until the frontier bound
            # drops below their score, then emitted in canonical order.  This
            # keeps the stream online (a hit waits only for its own score
            # level to finish) while making the emission order deterministic
            # and identical to the canonically sorted batch result.
            pending: List[SearchHit] = []

            def drain() -> Iterator[SearchHit]:
                nonlocal emitted
                run = sorted(pending, key=hit_order_key)
                pending.clear()
                for hit in run:
                    hit.emitted_at = time.perf_counter() - start_time
                    emitted += 1
                    self._hits.append(hit)
                    yield hit
                    if max_results is not None and emitted >= max_results:
                        return

            def budget_spent() -> bool:
                return max_results is not None and emitted >= max_results

            while True:
                if self._should_stop():
                    # Stopping is cooperative, but the buffered hits are
                    # already proven optimal -- hand them over first.
                    yield from drain()
                    return
                # Pops and expansions until a hit, the drain point, the pop
                # budget or the end of the queue: the search loop checks the
                # abort flag and the deadline at least every budget pops.
                step = frontier.advance(pending[0].score if pending else None, FRONTIER_BUDGET)
                if isinstance(step, tuple):
                    # An ACCEPTED node with sequences not reported before:
                    # its score is each one's best (Section 3.1).
                    score, sequence_indices = step
                    for sequence_index in sequence_indices:
                        record = database[sequence_index]
                        alignment: Optional[Alignment] = None
                        if request.compute_alignments:
                            alignment = self.engine._trace_alignment(
                                self.query_sequence.text, record.text
                            )
                        evalue = None
                        if statistics_model is not None:
                            evalue = statistics_model.evalue(
                                score, len(query_codes), database_size
                            )
                        pending.append(
                            SearchHit(
                                sequence_index=sequence_index,
                                sequence_identifier=record.identifier,
                                score=score,
                                evalue=evalue,
                                alignment=alignment,
                            )
                        )
                    reported += len(sequence_indices)
                    if reported >= sequence_count:
                        # Every database sequence already has its strongest
                        # alignment reported; nothing left to find.
                        break
                elif step == BELOW_FLOOR:
                    # The frontier can no longer produce a hit at the buffered
                    # score: the equal-score run is complete, emit it.
                    yield from drain()
                    if budget_spent():
                        return
                elif step == EMPTY:
                    break

            # Exhausted queue or full coverage: whatever is buffered is final.
            yield from drain()
        except Exception as error:
            if span is not None:
                span.status = "error"
                span.attributes.setdefault("error", f"{type(error).__name__}: {error}")
            raise
        finally:
            # Runs on normal exhaustion, early return, GeneratorExit (an
            # abandoned generator) and errors alike, so an aborted consumer
            # still sees correct elapsed/columns counters.
            self._finish()
            if span is not None:
                self._close_span(span)

    def _finish(self) -> None:
        statistics = self.statistics
        counts: Union[ExpansionContext, Frontier] = self.context
        frontier = self._frontier
        if frontier is not None:
            counts = frontier
            statistics.nodes_expanded = frontier.nodes_expanded
            statistics.nodes_accepted = frontier.nodes_accepted
            statistics.max_queue_size = frontier.max_queue_size
            self._frontier = None
        statistics.columns_expanded = counts.columns_expanded
        statistics.nodes_enqueued = counts.nodes_enqueued
        statistics.nodes_pruned = counts.nodes_dropped
        if self._start_time is not None:
            statistics.elapsed_seconds = time.perf_counter() - self._start_time
        residues = self.engine.database.total_symbols
        if statistics.columns_expanded > _WARN_COLUMNS_PER_RESIDUE * residues:
            logger.warning(
                "query of length %d expanded %d DP columns, over %d times the %d a "
                "Smith-Waterman scan of the database computes (min_score %d, gap %d): "
                "the pruning did not pay; a stronger gap penalty or a higher "
                "threshold prunes more",
                len(self.query_sequence),
                statistics.columns_expanded,
                _WARN_COLUMNS_PER_RESIDUE,
                residues,
                self.request.min_score,
                self.engine.gap_model.per_symbol,
            )
        if self._pool_start is not None:
            pool, start_hits, start_misses, start_evictions = self._pool_start
            pool_stats = pool.statistics
            statistics.buffer_hits = pool_stats.hits - start_hits
            statistics.buffer_misses = pool_stats.misses - start_misses
            statistics.buffer_evictions = pool_stats.evictions - start_evictions
            self._pool_start = None

    def _close_span(self, span) -> None:
        """Stamp final counters on the query span and close it."""
        tracer = self.tracer
        if tracer is None:
            # A live span implies a tracer (only _generate opens spans), but
            # the hot-path telemetry contract is lexical: every tracer call
            # sits behind an explicit None check.
            return
        statistics = self.statistics
        span.set_attribute("hits", len(self._hits))
        span.set_attribute("nodes_expanded", statistics.nodes_expanded)
        span.set_attribute("columns_expanded", statistics.columns_expanded)
        if statistics.buffer_misses or statistics.buffer_hits:
            span.set_attribute("buffer_hits", statistics.buffer_hits)
            span.set_attribute("buffer_misses", statistics.buffer_misses)
        if self.timed_out:
            span.set_attribute("timed_out", True)
        if self.aborted:
            span.set_attribute("aborted", True)
        tracer._pop(span)
        span.finish()

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #
    def result(self) -> SearchResult:
        """Drain the stream and collect everything into a SearchResult.

        Hits are put in the canonical order (decreasing score, ties by
        ``(sequence_identifier, alignment start)``): the online stream's
        emission order already decreases in score, so this only pins down
        equal-score runs -- and makes the collected result of any engine
        (serial, batched, sharded) byte-for-byte comparable.
        """
        for _ in self:
            pass
        result = SearchResult(
            query=self.request.query.upper(),
            engine="oasis",
            hits=sorted(self._hits, key=hit_order_key),
            elapsed_seconds=self.statistics.elapsed_seconds,
            columns_expanded=self.statistics.columns_expanded,
            parameters={
                "min_score": self.request.min_score,
                "matrix": self.engine.matrix.name,
                "gap": self.engine.gap_model.per_symbol,
                "max_results": self.request.max_results,
            },
            statistics=self.statistics,
        )
        if self.timed_out:
            result.parameters["timed_out"] = True
        if self.aborted:
            result.parameters["aborted"] = True
        return result

    def __repr__(self) -> str:
        return (
            f"QueryExecution(query={self.request.query!r}, min_score={self.request.min_score}, "
            f"emitted={len(self._hits)})"
        )
