"""Process-pool worker side of the sharded engine.

Everything in this module runs (also) inside ``ProcessBackend`` worker
processes, so the ground rules are strict:

* tasks are plain picklable descriptions -- the catalog directory, a
  partition (its number and the first symbols of the root children it owns),
  the matrix and the query's :class:`~repro.core.request.SearchRequest` --
  never live engine objects;
* each worker process opens the index's one image lazily, read-only, from
  the catalog, and caches the open search for the life of the process (the
  expensive part -- catalog + FASTA parse + cursor open -- is paid once per
  worker, and serves every partition);
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
    from repro.core.oasis import OasisSearch, QueryExecution
    from repro.obs.trace import TraceContext
    from repro.sharding.catalog import ShardCatalog

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
    #: cached :class:`OasisSearch` uses the same one (parity-gated, so this
    #: affects speed and statistics attribution only, never the hits).
    kernel: Optional[str] = None


# --------------------------------------------------------------------- #
# Per-process caches
# --------------------------------------------------------------------- #
#: directory -> (catalog, database, gap_model).
_DIRECTORY_CACHE: Dict[str, tuple] = {}
#: (directory, pool bytes, kernel) -> OasisSearch over the index's image.
_SEARCH_CACHE: Dict[tuple, "OasisSearch"] = {}


def _catalog_mismatch(catalog: "ShardCatalog", task: ShardSearchTask) -> Optional[str]:
    """What (if anything) differs between the task's and the loaded catalog."""
    if catalog.fingerprint != task.fingerprint:
        return "configuration fingerprint"
    if catalog.database_digest != task.database_digest:
        return "database digest"
    return None


def _evict_directory(directory: str) -> None:
    """Drop everything this worker cached for one index directory."""
    _DIRECTORY_CACHE.pop(directory, None)
    for key in [key for key in _SEARCH_CACHE if key[0] == directory]:
        _SEARCH_CACHE.pop(key).close()


def _open_directory(directory: str, matrix: SubstitutionMatrix) -> tuple:
    cached = _DIRECTORY_CACHE.get(directory)
    if cached is not None:
        return cached
    from repro.scoring.gaps import FixedGapModel
    from repro.sequences.fasta import read_fasta
    from repro.sharding.catalog import ShardCatalog

    catalog = ShardCatalog.load(directory)
    database = read_fasta(
        catalog.database_path(directory), alphabet=matrix.alphabet, name=catalog.database_name
    )
    _DIRECTORY_CACHE[directory] = (catalog, database, FixedGapModel(catalog.gap_penalty))
    return _DIRECTORY_CACHE[directory]


def _open_tree_search(task: ShardSearchTask) -> "OasisSearch":
    """The worker's lazily opened, cached search over the index's one image."""
    directory = os.path.abspath(task.directory)
    key = (directory, task.buffer_pool_bytes, task.kernel)
    from repro.sharding.catalog import CatalogMismatchError

    # Checked on *every* task, not only on a cache miss: the comparison is a
    # dict/string equality, and it guarantees each answer was produced
    # against the catalog the parent opened.  A mismatch first evicts the
    # worker's caches and reloads once -- a long-lived worker serving a
    # *reopened* engine (shared caller-owned backend) would otherwise be
    # stuck comparing fresh tasks against a stale cached catalog forever.
    # (What none of this can guard is an image file overwritten in place
    # under an engine's open cursors -- that hazard is identical for the
    # in-process path and for the monolithic engine.)
    catalog, database, gap_model = _open_directory(directory, task.matrix)
    mismatch = _catalog_mismatch(catalog, task)
    if mismatch is not None:
        _evict_directory(directory)
        catalog, database, gap_model = _open_directory(directory, task.matrix)
        mismatch = _catalog_mismatch(catalog, task)
        if mismatch is not None:
            raise CatalogMismatchError(
                f"sharded index at {directory} changed on disk: the worker "
                f"loaded a catalog whose {mismatch} differs from the engine "
                "that issued this query -- the index was rebuilt in place "
                "under a live engine; reopen the engine"
            )
    cached = _SEARCH_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.core.oasis import OasisSearch
    from repro.storage.image import open_image

    # The parent's fit rule, with the parent's budget: a worker searches the
    # same kind of tree as the parent's own engine.
    cursor = open_image(catalog.image_path(directory), database, task.buffer_pool_bytes)
    # A bare OasisSearch, no SelectivityConverter: the request arrives
    # resolved, carrying the threshold and the E-value inputs.
    search = OasisSearch(cursor, task.matrix, gap_model, kernel=task.kernel)
    _SEARCH_CACHE[key] = search
    return search


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
    search = _open_tree_search(task)
    request = task.request
    if task.deadline_epoch is not None:
        # Back from the epoch deadline to a relative budget (worker side).
        time_budget = task.deadline_epoch - time.time()  # repro: allow[monotonic-time]
        if time_budget <= 0:
            return unsearched(task.request, "timed_out"), [], {}
        request = replace(request, time_budget=time_budget)
    tracer = task.trace.tracer() if task.trace is not None else None
    if tracer is not None:
        search.instrument(tracer)
    try:
        execution = search.execute_request(request, tracer=tracer)
        execution.root_symbols = task.root_symbols
        if task.trace is not None:
            # The ids the shard span is born with (pid-prefixed) stay valid
            # when the parent adopts it.
            label_shard_execution(execution, task.shard, task.trace.parent_id)
        result = execution.result()
    finally:
        if tracer is not None:
            search.instrument(None)
    if tracer is None:
        return result, [], {}
    spans = [record.to_dict() for record in tracer.records()]
    return result, spans, tracer.metrics.snapshot()
