"""Background resource sampler: RSS, pool occupancy, queue depth, threads.

Spans say where the time went; this module says what the process looked
like while it ran.  A :class:`ResourceSampler` is a start/stop background
thread (use it as a context manager) that periodically samples

* resident set size, from ``/proc/self/status`` (``None`` off Linux);
* buffer-pool occupancy and hit ratio, via
  :meth:`~repro.storage.buffer_pool.BufferPool.resource_sample` taps;
* execution-backend queue depth, via
  :meth:`~repro.exec.backend.ExecutionBackend.queue_depth` taps;
* live thread count (``threading.active_count``)

into an in-memory time series *and* a set of ``sampler.*`` gauges on the
tracer's metrics registry.  Gauges carry a high-water ``max``, survive the
existing snapshot/merge machinery, and show up in the CLI's ``--metrics``
dump like every other instrument.

Guarded like all core telemetry: built with ``tracer=None`` the sampler is
inert -- ``start``/``stop`` are no-ops, no thread is created, nothing is
sampled -- so call sites need no conditional around it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids layer cycles
    from repro.obs.metrics import Counter, Gauge
    from repro.obs.trace import Tracer

#: Default sampling interval in seconds: coarse enough to stay invisible in
#: profiles, fine enough to catch pool warm-up on sub-second workloads.
DEFAULT_INTERVAL = 0.05

#: Path sampled for the resident set size (Linux; absent elsewhere).
PROC_STATUS_PATH = "/proc/self/status"


def read_rss_bytes(path: str = PROC_STATUS_PATH) -> Optional[int]:
    """Resident set size in bytes, or ``None`` where procfs is unavailable."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


@dataclass(frozen=True)
class ResourceSample:
    """One tick of the sampler (``elapsed_seconds`` since :meth:`start`)."""

    elapsed_seconds: float
    rss_bytes: Optional[int]
    pool_resident_pages: float
    pool_occupancy: float
    pool_hit_ratio: float
    queue_depth: float
    thread_count: int


class ResourceSampler:
    """Samples process/pool/backend state on a background thread.

    Parameters
    ----------
    tracer:
        The telemetry hub whose metrics registry receives the ``sampler.*``
        gauges.  ``None`` disables the sampler entirely (the usual
        telemetry-off contract: one identity check, nothing else).
    interval:
        Seconds between ticks (default :data:`DEFAULT_INTERVAL`).
    pools / backends:
        Objects offering ``resource_sample()`` / ``queue_depth()`` taps.
        Multiple pools (one per shard) are summed for residency and
        averaged -- weighted by frames -- for occupancy; hit ratio is the
        pool-wide request-weighted value each pool already reports, averaged
        over pools with traffic.

    Use :meth:`for_engine` to discover the taps of a built engine, and the
    instance as a context manager around the workload being observed.
    """

    def __init__(
        self,
        tracer: Optional["Tracer"],
        interval: float = DEFAULT_INTERVAL,
        pools: Sequence[object] = (),
        backends: Sequence[object] = (),
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.tracer = tracer
        self.interval = float(interval)
        self.pools = list(pools)
        self.backends = list(backends)
        self.samples: List[ResourceSample] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._start_wall: float = 0.0
        self._gauge_rss: Optional["Gauge"] = None
        self._gauge_occupancy: Optional["Gauge"] = None
        self._gauge_hit_ratio: Optional["Gauge"] = None
        self._gauge_queue: Optional["Gauge"] = None
        self._gauge_threads: Optional["Gauge"] = None
        self._counter_ticks: Optional["Counter"] = None

    # ------------------------------------------------------------------ #
    # Tap discovery
    # ------------------------------------------------------------------ #
    @classmethod
    def for_engine(
        cls,
        tracer: Optional["Tracer"],
        engine: object,
        interval: float = DEFAULT_INTERVAL,
    ) -> "ResourceSampler":
        """Build a sampler tapping a built engine's pools and backend.

        Duck-typed: a sharded engine exposes per-shard sub-engines through
        ``shards``, each holding a ``cursor`` whose disk variants carry a
        ``pool``; the scatter backend sits on ``_backend``.  A monolithic
        in-memory engine yields no taps -- RSS and thread count still get
        sampled, so the sampler is never pointless.
        """
        pools: List[object] = []
        backends: List[object] = []
        shards = getattr(engine, "shards", None)
        sub_engines: List[object] = list(shards) if shards else [engine]
        for sub_engine in sub_engines:
            cursor = getattr(sub_engine, "cursor", None)
            pool = getattr(cursor, "pool", None)
            if pool is not None and hasattr(pool, "resource_sample"):
                pools.append(pool)
        backend = getattr(engine, "_backend", None)
        if backend is not None and hasattr(backend, "queue_depth"):
            backends.append(backend)
        return cls(tracer, interval=interval, pools=pools, backends=backends)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        return self.tracer is not None

    def start(self) -> None:
        """Start the sampling thread (a no-op when built with ``tracer=None``)."""
        tracer = self.tracer
        if tracer is None or self._thread is not None:
            return
        metrics = tracer.metrics
        self._gauge_rss = metrics.gauge("sampler.rss_bytes", "resident set size")
        self._gauge_occupancy = metrics.gauge(
            "sampler.pool_occupancy", "buffer-pool frames occupied (fraction)"
        )
        self._gauge_hit_ratio = metrics.gauge(
            "sampler.pool_hit_ratio", "buffer-pool hit ratio at sample time"
        )
        self._gauge_queue = metrics.gauge(
            "sampler.queue_depth", "execution-backend tasks in flight"
        )
        self._gauge_threads = metrics.gauge("sampler.threads", "live thread count")
        self._counter_ticks = metrics.counter("sampler.ticks", "samples taken")
        self._stop.clear()
        self._start_wall = time.perf_counter()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and take one final sample (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _pool_state(self) -> Tuple[float, float, float]:
        """(resident pages, occupancy, hit ratio) summed/averaged over pools."""
        resident = 0.0
        frames = 0.0
        occupied = 0.0
        ratios: List[float] = []
        for pool in self.pools:
            state = pool.resource_sample()  # type: ignore[attr-defined]
            resident += float(state.get("resident_pages", 0.0))
            frames += float(state.get("frame_count", 0.0))
            occupied += float(state.get("resident_pages", 0.0))
            ratios.append(float(state.get("hit_ratio", 0.0)))
        occupancy = occupied / frames if frames else 0.0
        hit_ratio = sum(ratios) / len(ratios) if ratios else 0.0
        return resident, occupancy, hit_ratio

    def sample_once(self) -> Optional[ResourceSample]:
        """Take one sample now (also called by the background thread).

        Returns ``None`` when disabled.  Thread-safe: the GIL covers the
        list append, and gauges take their own locks.
        """
        if self.tracer is None:
            return None
        resident, occupancy, hit_ratio = self._pool_state()
        depth = sum(
            float(backend.queue_depth())  # type: ignore[attr-defined]
            for backend in self.backends
        )
        sample = ResourceSample(
            elapsed_seconds=time.perf_counter() - self._start_wall,
            rss_bytes=read_rss_bytes(),
            pool_resident_pages=resident,
            pool_occupancy=occupancy,
            pool_hit_ratio=hit_ratio,
            queue_depth=depth,
            thread_count=threading.active_count(),
        )
        self.samples.append(sample)
        if self._gauge_rss is not None and sample.rss_bytes is not None:
            self._gauge_rss.set(float(sample.rss_bytes))
        if self._gauge_occupancy is not None:
            self._gauge_occupancy.set(sample.pool_occupancy)
        if self._gauge_hit_ratio is not None:
            self._gauge_hit_ratio.set(sample.pool_hit_ratio)
        if self._gauge_queue is not None:
            self._gauge_queue.set(sample.queue_depth)
        if self._gauge_threads is not None:
            self._gauge_threads.set(float(sample.thread_count))
        if self._counter_ticks is not None:
            self._counter_ticks.inc()
        return sample

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"ResourceSampler({state}, interval={self.interval}, "
            f"pools={len(self.pools)}, backends={len(self.backends)}, "
            f"samples={len(self.samples)})"
        )
