"""Process-pool worker side of the sharded engine and builder.

Everything in this module runs (also) inside ``ProcessBackend`` worker
processes, so the ground rules are strict:

* tasks are plain picklable descriptions -- the catalog directory, a shard
  id and the query's :class:`~repro.core.request.SearchRequest` -- never
  live engine objects;
* each worker process opens its shard image lazily, read-only, from the
  catalog, and caches the open engine for the life of the process (the
  expensive part -- catalog + FASTA parse + cursor open -- is paid once per
  (worker, shard), not once per query);
* a search travels back as the :class:`~repro.core.results.SearchResult`
  the worker's execution built -- the shape an in-process shard hands the
  merge -- with *global* E-values: a shard knows only its slice of the
  database, so the request arrives resolved, carrying the parent's
  statistics model and the global database size.  Sequence indices stay
  shard-local; the merge remaps them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.request import SearchRequest
from repro.core.results import SearchResult

if TYPE_CHECKING:  # pragma: no cover - annotation only; workers import lazily
    from repro.core.oasis import OasisSearch, QueryExecution
    from repro.obs.trace import TraceContext
    from repro.sharding.catalog import ShardCatalog

#: What one shard search sends back: the result, plus the worker's span
#: records and metrics snapshot (both empty unless the task was traced).
ShardOutcome = Tuple[SearchResult, List[Dict[str, object]], Dict[str, Dict[str, object]]]


@dataclass(frozen=True)
class ShardSearchTask:
    """One shard's share of one query, shipped to a worker process.

    ``request`` is the query's own :class:`SearchRequest`, resolved by the
    parent (Equation 3 must see the whole database, which the worker does
    not) -- the same object the parent hands an in-process shard, so the
    worker prunes against the global threshold and annotates each hit with
    the E-value the monolithic engine would have computed.  Its
    ``time_budget`` does not cross the process boundary: ``deadline_epoch`` is the query's absolute deadline as ``time.time()``
    seconds: the wall clock is shared by every process on the machine
    (unlike the monotonic clock, whose origin is undefined across
    processes), so a task that waited in the pool queue sees only the time
    actually remaining instead of restarting a full budget -- the same
    no-over-grant guarantee the in-process path gets from its pinned
    monotonic deadline.

    ``fingerprint`` / ``database_digest`` are the parent's view of the
    catalog.  Workers load the catalog from disk *lazily*, so an index
    rebuilt in place between the parent's open and a worker's first task
    would otherwise be searched silently with mismatched scoring or
    sequences; the worker re-checks both against what it actually loaded
    and fails the query loudly instead.
    """

    directory: str
    shard_index: int
    request: SearchRequest
    deadline_epoch: Optional[float]
    buffer_pool_bytes: int
    simulated_miss_latency: float
    sleep_on_miss: bool
    fingerprint: Optional[Dict[str, object]] = None
    database_digest: str = ""
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


@dataclass(frozen=True)
class ShardBuildTask:
    """One shard's construction job (used by every backend kind).

    The sub-database is embedded: building happens before any FASTA exists
    on disk, and pickling a database slice is what lets the same task type
    drive serial, thread and process builds alike.
    """

    directory: str
    image_name: str
    sub_database: object  # SequenceDatabase; typed loosely to keep pickling honest
    block_size: int


# --------------------------------------------------------------------- #
# Per-process caches
# --------------------------------------------------------------------- #
#: directory -> (catalog, database, matrix, gap_model); shared by all shards.
_DIRECTORY_CACHE: Dict[str, tuple] = {}
#: (directory, shard, pool bytes, latency, sleep) -> OasisSearch over the shard.
_SHARD_CACHE: Dict[tuple, "OasisSearch"] = {}


def _catalog_mismatch(catalog: "ShardCatalog", task: ShardSearchTask) -> Optional[str]:
    """What (if anything) differs between the task's and the loaded catalog."""
    if task.fingerprint is not None and catalog.fingerprint != task.fingerprint:
        return "configuration fingerprint"
    if task.database_digest and catalog.database_digest != task.database_digest:
        return "database digest"
    return None


def _evict_directory(directory: str) -> None:
    """Drop everything this worker cached for one index directory."""
    _DIRECTORY_CACHE.pop(directory, None)
    for key in [key for key in _SHARD_CACHE if key[0] == directory]:
        _SHARD_CACHE.pop(key).close()


def _open_directory(directory: str) -> tuple:
    cached = _DIRECTORY_CACHE.get(directory)
    if cached is not None:
        return cached
    from repro.scoring.data import load_matrix
    from repro.scoring.gaps import FixedGapModel
    from repro.sequences.fasta import read_fasta
    from repro.sharding.catalog import ShardCatalog

    catalog = ShardCatalog.load(directory)
    matrix = load_matrix(catalog.matrix_name)
    gap_model = FixedGapModel(catalog.gap_penalty)
    database = read_fasta(catalog.database_path(directory), name=catalog.database_name)
    _DIRECTORY_CACHE[directory] = (catalog, database, matrix, gap_model)
    return _DIRECTORY_CACHE[directory]


def _open_shard_search(task: ShardSearchTask) -> "OasisSearch":
    """The worker's lazily opened, cached search over one shard image."""
    directory = os.path.abspath(task.directory)
    key = (
        directory,
        task.shard_index,
        task.buffer_pool_bytes,
        task.simulated_miss_latency,
        task.sleep_on_miss,
        task.kernel,
    )
    from repro.sharding.catalog import CatalogMismatchError

    # Checked on *every* task, not only on a cache miss: the comparison is a
    # dict/string equality, and it guarantees each answer was produced
    # against the catalog the parent opened.  A mismatch first evicts the
    # worker's caches and reloads once -- a long-lived worker serving a
    # *reopened* engine (shared caller-owned backend) would otherwise be
    # stuck comparing fresh tasks against a stale cached catalog forever.
    # (What none of this can guard is an image file overwritten in place
    # under an engine's open cursors -- that hazard is identical for the
    # in-process paths and for the monolithic engine.)
    catalog, database, matrix, gap_model = _open_directory(directory)
    mismatch = _catalog_mismatch(catalog, task)
    if mismatch is not None:
        _evict_directory(directory)
        catalog, database, matrix, gap_model = _open_directory(directory)
        mismatch = _catalog_mismatch(catalog, task)
        if mismatch is not None:
            raise CatalogMismatchError(
                f"sharded index at {directory} changed on disk: the worker "
                f"loaded a catalog whose {mismatch} differs from the engine "
                "that issued this query -- the index was rebuilt in place "
                "under a live engine; reopen the engine"
            )
    cached = _SHARD_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.core.oasis import OasisSearch
    from repro.sharding.catalog import slice_shard
    from repro.storage.disk_tree import DiskSuffixTree

    entry = catalog.shards[task.shard_index]
    cursor = DiskSuffixTree(
        catalog.shard_image_path(directory, entry),
        slice_shard(database, entry),
        buffer_pool_bytes=task.buffer_pool_bytes,
        simulated_miss_latency=task.simulated_miss_latency,
        sleep_on_miss=task.sleep_on_miss,
    )
    # A bare OasisSearch, no SelectivityConverter: the request arrives
    # resolved, carrying the threshold and the global E-value inputs.
    search = OasisSearch(cursor, matrix, gap_model, kernel=task.kernel)
    _SHARD_CACHE[key] = search
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
    engine for its in-process shards, the worker for its own.  The parent is
    named by id because a shard may run in another process, where
    thread-local nesting cannot find it.
    """
    execution.trace_name = "shard"
    execution.trace_parent = parent_id
    execution.trace_attributes = {"shard": shard, "phase": "shard"}


def unsearched(request: SearchRequest, flag: str) -> SearchResult:
    """A shard's (empty) result when its task ``timed_out`` / was ``aborted`` unsearched."""
    return SearchResult(query=request.query.upper(), engine="oasis", parameters={flag: True})


def run_shard_search(task: ShardSearchTask) -> ShardOutcome:
    """Worker entry point: run one query over one shard.

    Returns what the in-process path gets from ``execution.result()`` -- the
    :class:`SearchResult` with its statistics and ``timed_out`` / ``aborted``
    parameters -- so every downstream consumer (merge, shard stats, batch
    aggregates) is oblivious to where the shard ran.
    """
    # The deadline is re-derived twice: before the lazy shard open (skip
    # the expensive open when the task already expired in the pool queue)
    # and again after it (a cold worker's catalog/FASTA/cursor open must be
    # charged against the query's budget, not granted on top of it --
    # QueryExecution counts its budget from when the search starts).
    if _expired(task):
        return unsearched(task.request, "timed_out"), [], {}
    search = _open_shard_search(task)
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
        if task.trace is not None:
            # The ids the shard span is born with (pid-prefixed) stay valid
            # when the parent adopts it.
            label_shard_execution(execution, task.shard_index, task.trace.parent_id)
        result = execution.result()
    finally:
        if tracer is not None:
            search.instrument(None)
    if tracer is None:
        return result, [], {}
    spans = [record.to_dict() for record in tracer.records()]
    return result, spans, tracer.metrics.snapshot()


def run_shard_build(task: ShardBuildTask) -> str:
    """Worker entry point: build one shard's disk image; returns its name.

    Also the single implementation used by the serial and thread backends
    (the task is then executed in-process), so every backend builds
    byte-identical images through exactly the same code path.
    """
    from repro.storage.builder import build_disk_image

    build_disk_image(
        task.sub_database,
        os.path.join(task.directory, task.image_name),
        block_size=task.block_size,
    )
    return task.image_name
