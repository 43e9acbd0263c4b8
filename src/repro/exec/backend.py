"""The ExecutionBackend abstraction and its three implementations.

A backend is a tiny, uniform facade over "run these tasks, possibly
concurrently": ``submit`` returns a :class:`concurrent.futures.Future`,
``map_unordered`` streams results in completion order, ``close`` releases
whatever the backend holds.  Consumers never import
``concurrent.futures`` directly; they take a backend (or a spec string) and
stay agnostic of the execution strategy.

Semantics shared by all backends:

* ``submit`` after ``close`` raises ``RuntimeError`` -- a closed backend is
  never silently resurrected (recreating a pool would leak an unstoppable
  executor working on state the owner already tore down);
* abandoning a ``map_unordered`` stream cancels the tasks that have not
  started yet (running tasks finish; cooperative cancellation is the
  caller's business, e.g. the batch executor's cancel event);
* a task that raises surfaces its exception from ``Future.result()`` /
  the ``map_unordered`` stream -- including
  :class:`concurrent.futures.process.BrokenProcessPool` when a worker
  process dies outright, so a crash is an error, not a hang.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Executor, Future, as_completed
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only (same layer as obs)
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    from repro.obs.metrics import Gauge, Histogram
    from repro.obs.trace import Tracer

#: The three execution strategies, in increasing isolation order.
BACKEND_KINDS = ("serial", "threads", "processes")

#: Accepted spellings for each kind (parsed case-insensitively).
_KIND_ALIASES = {
    "serial": "serial",
    "sync": "serial",
    "thread": "threads",
    "threads": "threads",
    "process": "processes",
    "processes": "processes",
    "procs": "processes",
}


def default_worker_count() -> int:
    """CPU count with a floor of one (containers may report nothing)."""
    return os.cpu_count() or 1


class ExecutionBackend(ABC):
    """Uniform "run these tasks" facade over an execution strategy.

    Subclasses set :attr:`kind` (one of :data:`BACKEND_KINDS`) and
    :attr:`workers` (the fan-out width; 1 for the serial backend).
    """

    kind: str = "serial"

    def __init__(self) -> None:
        self.workers: int = 1
        self._closed = False
        # Telemetry (attached via instrument()): resolved instruments, so the
        # submit path pays one None check when telemetry is off.
        self._metric_latency: Optional["Histogram"] = None
        self._metric_queue: Optional["Gauge"] = None

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def instrument(self, tracer: Optional["Tracer"]) -> None:
        """Record per-task latency and queue depth into ``tracer.metrics``.

        Instrumentation is entirely parent-side (submit times plus future
        done-callbacks), so tasks stay bare picklable callables and the
        process backend works unchanged.  ``exec.task_seconds[<spec>]``
        observes submit-to-completion wall time (queue wait included --
        that is what a consumer of the backend experiences);
        ``exec.queue_depth[<spec>]`` tracks in-flight tasks, with the peak
        in its ``max_value``.  ``None`` detaches.
        """
        if tracer is None:
            self._metric_latency = None
            self._metric_queue = None
            return
        metrics = tracer.metrics
        self._metric_latency = metrics.histogram(
            f"exec.task_seconds[{self.spec}]",
            description="task submit-to-completion latency",
        )
        self._metric_queue = metrics.gauge(
            f"exec.queue_depth[{self.spec}]",
            description="tasks submitted but not yet finished",
        )

    def _watch(self, future: "Future", submitted: Optional[float]) -> "Future":
        """Hook one submitted future into the latency/queue instruments."""
        latency = self._metric_latency
        queue = self._metric_queue
        if submitted is None or latency is None or queue is None:
            return future
        queue.inc()

        def _finished(done_future: "Future") -> None:
            queue.dec()
            if not done_future.cancelled():
                latency.observe(time.perf_counter() - submitted)

        future.add_done_callback(_finished)
        return future

    # ------------------------------------------------------------------ #
    # Core interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Schedule ``fn(*args)``; returns a Future resolving to its result."""

    def map_unordered(self, fn: Callable[..., Any], items: Iterable[Any]) -> Iterator[Any]:
        """Yield ``fn(item)`` results in *completion* order.

        Abandoning the iterator cancels tasks that have not started;
        running tasks finish in the background.  A task's exception is
        re-raised when its result is reached.
        """
        futures = [self.submit(fn, item) for item in items]
        try:
            for future in as_completed(futures):
                yield future.result()
        finally:
            for future in futures:
                if not future.done():
                    future.cancel()

    def close(self) -> None:
        """Release the backend's resources; further submits raise."""
        self._closed = True

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle sugar
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> str:
        """The declarative spec string this backend answers to."""
        if self.kind == "serial":
            return "serial"
        return f"{self.kind}:{self.workers}"

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = ", closed" if self._closed else ""
        return f"{type(self).__name__}(spec={self.spec!r}{state})"


class SerialBackend(ExecutionBackend):
    """Run every task inline on the calling thread.

    ``submit`` executes immediately and returns an already-resolved future;
    ``map_unordered`` is lazy (one task per pull), so abandoning the stream
    does no further work -- exactly the serial loop the paper's per-figure
    experiments need for clean timings.
    """

    kind = "serial"

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        self._check_open()
        submitted = time.perf_counter() if self._metric_latency is not None else None
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        # The future is already resolved; _watch's callback fires inline and
        # observes the true inline-execution latency from the submit time.
        return self._watch(future, submitted)

    def map_unordered(self, fn: Callable[..., Any], items: Iterable[Any]) -> Iterator[Any]:
        self._check_open()
        for item in items:
            # Via submit: an instrumented serial run records task latency too.
            yield self.submit(fn, item).result()


class _PooledBackend(ExecutionBackend):
    """Shared plumbing for the two pool-backed backends.

    The pool is created lazily (a spec'd backend is cheap to construct and
    may never run anything) and torn down exactly once; a closed backend
    refuses to resurrect its pool.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self.workers = int(workers) if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self._pool: Optional[Executor] = None
        self._pool_lock = threading.Lock()

    @abstractmethod
    def _create_pool(self) -> Executor:
        """Build the underlying concurrent.futures executor."""

    def _ensure_pool(self) -> Executor:
        with self._pool_lock:
            self._check_open()
            if self._pool is None:
                self._pool = self._create_pool()
            return self._pool

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        submitted = time.perf_counter() if self._metric_latency is not None else None
        future = self._ensure_pool().submit(fn, *args)
        return self._watch(future, submitted)

    def reset(self) -> None:
        """Discard the current pool; the next submit creates a fresh one.

        The recovery hook for a *broken* pool (e.g. a worker process killed
        by the OOM killer breaks a ``ProcessPoolExecutor`` permanently):
        callers that catch ``BrokenExecutor`` reset the backend so one dead
        worker fails one task, not every task forever after.  A closed
        backend stays closed.
        """
        with self._pool_lock:
            doomed, self._pool = self._pool, None
        if doomed is not None:
            # Outside the lock: shutdown joins worker machinery, and a stall
            # there must not serialise concurrent submitters behind it.
            # wait=False: a broken pool cannot make progress anyway.
            doomed.shutdown(wait=False)

    def close(self) -> None:
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            doomed, self._pool = self._pool, None
        if doomed is not None:
            # wait=True joins every worker -- far too slow to hold the pool
            # lock across; swap the reference out under the lock, join outside.
            doomed.shutdown(wait=True)


class ThreadBackend(_PooledBackend):
    """Thread-pool fan-out: shared memory, overlapping I/O stalls.

    The right default for disk-resident indexes (threads overlap each
    other's buffer-pool miss stalls) and the only pooled option when tasks
    must share in-process state; CPU-bound work is capped by the GIL.
    """

    kind = "threads"

    def _create_pool(self) -> ThreadPoolExecutor:
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="oasis-exec"
        )


class ProcessBackend(_PooledBackend):
    """Process-pool fan-out: escapes the GIL for CPU-bound work.

    Tasks (the callable and its arguments) must be picklable, and results
    travel back as pickled values, so consumers ship plain descriptions of
    work (paths, ids, parameters) rather than live objects.  A worker that
    dies outright surfaces as ``BrokenProcessPool`` from the affected
    futures -- an error, never a hang -- and :meth:`reset` replaces the
    broken pool for subsequent tasks.

    Workers are started with the ``spawn`` context, never ``fork``: the
    pool is created lazily, typically from inside a multithreaded caller
    (the batch executor), and forking a multithreaded process can snapshot
    another thread mid-lock -- a deadlocked child, exactly the hang this
    backend promises not to produce.  Spawned workers re-import their
    tasks, which the plain-picklable task discipline already guarantees.
    """

    kind = "processes"

    def _create_pool(self) -> ProcessPoolExecutor:
        # Imported here, not at module scope: a serial or threaded search
        # must not pay for multiprocessing (sockets, subprocess, tempfile).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._export_package_path()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    @staticmethod
    def _export_package_path() -> None:
        """Make this package importable in spawned workers.

        A spawned child rebuilds ``sys.path`` from ``PYTHONPATH``, so a
        parent that found the package through in-process path manipulation
        only (e.g. pytest's ``pythonpath`` setting) would hatch workers
        that cannot unpickle any task.  Exporting the package's own root
        before the first worker starts closes that gap.

        This deliberately (and idempotently) edits the parent's
        environment: workers spawn lazily, one per submit, so the variable
        must hold for the pool's whole life, not just around pool creation
        -- and an initializer cannot do the job, because the initializer
        itself must already be importable from the worker.  The root is
        *appended*, so in any unrelated subprocess the host application
        spawns later, that subprocess's own entries still win.
        """
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = os.environ.get("PYTHONPATH", "")
        if package_root in existing.split(os.pathsep):
            return
        os.environ["PYTHONPATH"] = (
            existing + os.pathsep + package_root if existing else package_root
        )


@dataclass(frozen=True)
class BackendSpec:
    """The declarative form of a backend: ``"serial" | "threads:N" | "processes:N"``.

    Parsed in exactly one place (:meth:`parse`) so the CLI, the engine
    facades, the workload runner and the benchmarks all accept the same
    strings.  ``workers=None`` means "use the caller's default width".
    """

    kind: str
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"backend kind must be one of {BACKEND_KINDS}, got {self.kind!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("backend workers must be at least 1")
        if self.kind == "serial" and self.workers not in (None, 1):
            raise ValueError("the serial backend has exactly one worker")

    @classmethod
    def parse(cls, text: str) -> "BackendSpec":
        """Parse a spec string; raises ``ValueError`` with the valid forms."""
        raw = str(text).strip().lower()
        kind_part, sep, workers_part = raw.partition(":")
        kind = _KIND_ALIASES.get(kind_part)
        if kind is None:
            raise ValueError(
                f"unknown backend {text!r}: expected 'serial', 'threads[:N]' "
                "or 'processes[:N]'"
            )
        workers: Optional[int] = None
        if sep:
            try:
                workers = int(workers_part)
            except ValueError:
                raise ValueError(
                    f"bad worker count in backend spec {text!r}: "
                    f"{workers_part!r} is not an integer"
                ) from None
        return cls(kind=kind, workers=workers)

    def create(self, default_workers: Optional[int] = None) -> ExecutionBackend:
        """Instantiate the backend (``workers`` falls back to the default)."""
        if self.kind == "serial":
            return SerialBackend()
        workers = self.workers if self.workers is not None else default_workers
        if self.kind == "threads":
            return ThreadBackend(workers)
        return ProcessBackend(workers)

    def __str__(self) -> str:
        if self.kind == "serial":
            return "serial"
        if self.workers is None:
            return self.kind
        return f"{self.kind}:{self.workers}"


#: Everything ``resolve_backend`` accepts as a backend description.
BackendLike = Union[str, BackendSpec, ExecutionBackend, None]


def resolve_backend(
    backend: BackendLike,
    default: str = "serial",
    default_workers: Optional[int] = None,
) -> Tuple[ExecutionBackend, bool]:
    """Turn a spec string / :class:`BackendSpec` / instance into a backend.

    Returns ``(backend, owned)``: ``owned`` is ``True`` when this call
    created the instance (the caller must close it) and ``False`` when the
    caller passed a live :class:`ExecutionBackend` in (whoever created it
    owns its lifecycle -- a shared backend must survive one consumer's
    ``close``).
    """
    if backend is None:
        backend = default
    if isinstance(backend, ExecutionBackend):
        return backend, False
    if isinstance(backend, str):
        backend = BackendSpec.parse(backend)
    if not isinstance(backend, BackendSpec):
        raise TypeError(
            "backend must be a spec string, a BackendSpec or an "
            f"ExecutionBackend, got {type(backend).__name__}"
        )
    return backend.create(default_workers=default_workers), True
