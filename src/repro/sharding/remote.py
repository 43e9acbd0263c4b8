"""Process-pool worker side of the sharded engine.

Everything in this module but :func:`spawn_pool` runs (also) inside the
engine's worker processes, so the ground rules are strict:

* tasks are plain picklable descriptions -- the catalog directory, a
  partition (its number and the first symbols of the root children it owns),
  the matrix and the query's :class:`~repro.core.request.SearchRequest` --
  never live engine objects;
* each worker process opens the index lazily with the parent's opener,
  :meth:`OasisEngine.open <repro.core.engine.OasisEngine.open>`, checks
  and all, and caches the engine for its life (catalog + FASTA parse +
  cursor open are paid once per worker, and serve every partition);
* a search travels back as the :class:`~repro.core.results.SearchResult`
  the worker's execution built -- the shape the in-process search hands the
  merge -- with global sequence indices and E-values: the worker searches
  the whole tree, only below the root children its partition owns.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.request import SearchRequest
from repro.core.results import SearchResult
from repro.scoring.matrix import SubstitutionMatrix

if TYPE_CHECKING:  # pragma: no cover - annotation only; workers import lazily
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.engine import OasisEngine
    from repro.core.oasis import QueryExecution
    from repro.obs.trace import TraceContext

#: What one partition's search sends back: the result, plus the worker's span
#: records and metrics snapshot (both empty unless the task was traced).
ShardOutcome = Tuple[SearchResult, List[Dict[str, object]], Dict[str, Dict[str, object]]]


@dataclass(frozen=True)
class ShardSearchTask:
    """One partition's share of one query, shipped to a worker process.

    ``shard`` numbers the partition (it labels the span and the result
    row); ``root_symbols`` are the first symbols of the root children it
    searches.  ``request`` is the query's own :class:`SearchRequest`,
    resolved by the parent, so the worker prunes against the threshold the
    parent computed.  Its ``time_budget`` does not cross the process
    boundary: ``deadline_epoch`` is the query's absolute deadline as
    ``time.time()`` seconds: the wall clock is shared by every process on
    the machine (unlike the monotonic clock, whose origin is undefined
    across processes), so a task that waited in the pool queue sees only
    the time actually remaining instead of restarting a full budget -- the
    same no-over-grant guarantee the in-process path gets from its pinned
    monotonic deadline.

    ``fingerprint`` / ``database_digest`` are the parent's view of the
    catalog.  Workers load the catalog from disk *lazily*, so an index
    rebuilt in place between the parent's open and a worker's first task
    would otherwise be searched silently with mismatched scoring or
    sequences; the worker re-checks both against what it actually loaded
    and fails the query loudly instead.
    """

    directory: str
    shard: int
    root_symbols: bytes
    request: SearchRequest
    #: The parent's matrix: its alphabet reads the bundled FASTA, so an
    #: index of any alphabet searches as the parent's engine does.
    matrix: SubstitutionMatrix
    deadline_epoch: Optional[float]
    buffer_pool_bytes: int
    fingerprint: Dict[str, object]
    database_digest: str
    #: Telemetry seed: when set, the worker builds its own tracer continuing
    #: the parent's trace, records its shard span (parented under the
    #: parent's query span) plus buffer-pool metrics, and returns both next
    #: to the result for the parent to adopt/merge -- one coherent span tree
    #: per query regardless of which processes produced its pieces.
    trace: Optional[TraceContext] = None
    #: Expansion-kernel name the parent engine runs under; the worker's
    #: cached :class:`OasisEngine` uses the same one (parity-gated, so this
    #: affects speed and statistics attribution only, never the hits).
    kernel: Optional[str] = None


def spawn_pool(workers: int) -> "ProcessPoolExecutor":
    """A pool of ``workers`` processes started with the ``spawn`` context.

    Never ``fork``: the pool is created lazily, often from a batch's pool
    thread, and forking a multithreaded process can snapshot another thread
    mid-lock -- a deadlocked child, where a crash must be an error, not a
    hang.  Spawned workers re-import their tasks by qualified name, which the
    plain-picklable task discipline above already guarantees.

    A spawned child rebuilds ``sys.path`` from ``PYTHONPATH``, so a parent
    that found this package through in-process path manipulation only (e.g.
    pytest's ``pythonpath`` setting) would hatch workers that cannot unpickle
    any task.  This function therefore (idempotently) appends the package's
    own root to the parent's ``PYTHONPATH``: workers start lazily, one per
    submit, so the variable must hold for the pool's whole life, not just
    around its creation -- and an initializer cannot do the job, because it
    would itself have to be importable from the worker.  *Appended*, so in
    any unrelated subprocess the host application spawns later, that
    subprocess's own entries still win.
    """
    # Imported here, not at module scope: a serial search must not pay for
    # multiprocessing (sockets, subprocess, tempfile).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            existing + os.pathsep + package_root if existing else package_root
        )
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )


#: (directory, pool bytes, kernel) -> the engine over the index, opened once.
_ENGINES: Dict[tuple, "OasisEngine"] = {}


def _open_engine(task: ShardSearchTask) -> "OasisEngine":
    """The worker's cached engine: the parent's opener, matrix and pool budget."""
    from repro.core.engine import OasisEngine
    from repro.sharding.catalog import CatalogMismatchError

    directory = os.path.abspath(task.directory)
    key = (directory, task.buffer_pool_bytes, task.kernel)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = OasisEngine.open(
            directory,
            matrix=task.matrix,
            buffer_pool_bytes=task.buffer_pool_bytes,
            kernel=task.kernel,
        )
        _ENGINES[key] = engine
    # Checked on *every* task, not only on a cache miss: a cheap equality
    # that ties each answer to the catalog the parent opened.  A worker lives
    # and dies with one engine's pool, so a mismatch can only mean the index
    # was rebuilt under that engine.  (An image overwritten in place under
    # open cursors is a hazard no engine guards against.)
    catalog = engine.catalog
    assert catalog is not None  # OasisEngine.open records the one it read
    for what, loaded, sent in (
        ("configuration fingerprint", catalog.fingerprint, task.fingerprint),
        ("database digest", catalog.database_digest, task.database_digest),
    ):
        if loaded != sent:
            raise CatalogMismatchError(
                f"sharded index at {directory} changed on disk: the worker "
                f"loaded a catalog whose {what} differs from the engine "
                "that issued this query -- the index was rebuilt in place "
                "under a live engine; reopen the engine"
            )
    return engine


def _expired(task: ShardSearchTask) -> bool:
    # Epoch comparison: the deadline was translated to wall clock to cross
    # the process boundary.
    return task.deadline_epoch is not None and task.deadline_epoch <= time.time()  # repro: allow[monotonic-time]


def label_shard_execution(
    execution: "QueryExecution", shard: int, parent_id: Optional[str]
) -> None:
    """Make an execution's span the ``shard`` child of a query span.

    Called before the execution starts, by whoever runs it: the sharded
    engine for its in-process search, the worker for its own.  The parent is
    named by id because a shard may run in another process, where
    thread-local nesting cannot find it.
    """
    execution.trace_name = "shard"
    execution.trace_parent = parent_id
    execution.trace_attributes = {"shard": shard, "phase": "shard"}


def unsearched(request: SearchRequest, flag: Optional[str] = None) -> SearchResult:
    """A shard's (empty) result when its task ``timed_out`` / was ``aborted``
    unsearched, or (no flag) when its partition owns no root child."""
    parameters = {} if flag is None else {flag: True}
    return SearchResult(query=request.query.upper(), engine="oasis", parameters=parameters)


def run_shard_search(task: ShardSearchTask) -> ShardOutcome:
    """Worker entry point: run one query over one partition of the tree.

    Returns what the in-process path gets from ``execution.result()`` -- the
    :class:`SearchResult` with its statistics and ``timed_out`` / ``aborted``
    parameters -- so every downstream consumer (merge, shard stats, batch
    aggregates) is oblivious to where the search ran.
    """
    # The deadline is re-derived twice: before the lazy image open (skip
    # the expensive open when the task already expired in the pool queue)
    # and again after it (a cold worker's catalog/FASTA/cursor open must be
    # charged against the query's budget, not granted on top of it --
    # QueryExecution counts its budget from when the search starts).
    if _expired(task):
        return unsearched(task.request, "timed_out"), [], {}
    engine = _open_engine(task)
    request = task.request
    if task.deadline_epoch is not None:
        # Back from the epoch deadline to a relative budget (worker side).
        time_budget = task.deadline_epoch - time.time()  # repro: allow[monotonic-time]
        if time_budget <= 0:
            return unsearched(task.request, "timed_out"), [], {}
        request = replace(request, time_budget=time_budget)
    tracer = task.trace.tracer() if task.trace is not None else None
    if tracer is not None:
        engine.instrument(tracer)
    try:
        execution = engine.execute_request(request, tracer=tracer)
        execution.root_symbols = task.root_symbols
        if task.trace is not None:
            # The ids the shard span is born with (pid-prefixed) stay valid
            # when the parent adopts it.
            label_shard_execution(execution, task.shard, task.trace.parent_id)
        result = execution.result()
    finally:
        if tracer is not None:
            engine.instrument(None)
    if tracer is None:
        return result, [], {}
    spans = [record.to_dict() for record in tracer.records()]
    return result, spans, tracer.metrics.snapshot()
