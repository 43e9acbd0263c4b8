"""Pluggable execution backends: serial, thread-pool and process-pool.

Every layer of the system that fans work out -- the batch executor's
per-query fan-out, the sharded engine's per-shard scatter, the sharded index
builder's per-shard construction -- used to hand-roll its own
``ThreadPoolExecutor``.  This package centralises that choice behind one
small abstraction so each layer can pick the strategy that fits its
resource profile:

* :class:`SerialBackend` runs tasks inline (clean timings, zero overhead);
* :class:`ThreadBackend` overlaps I/O stalls (disk-resident indexes behind
  buffer pools) but is capped by the GIL on CPU-bound work;
* :class:`ProcessBackend` escapes the GIL for CPU-bound work, at the price
  of picklable tasks and per-process state.

:class:`BackendSpec` is the declarative form (``"serial"``, ``"threads:4"``,
``"processes:8"``) parsed in exactly one place, so the CLI, the engine
facades and the benchmarks all speak the same dialect.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.exec.backend import (
        BACKEND_KINDS,
        BackendSpec,
        ExecutionBackend,
        ProcessBackend,
        SerialBackend,
        ThreadBackend,
        resolve_backend,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.exec.backend": (
                "BACKEND_KINDS",
                "BackendSpec",
                "ExecutionBackend",
                "ProcessBackend",
                "SerialBackend",
                "ThreadBackend",
                "resolve_backend",
            ),
        },
    )

__all__ = [
    "BACKEND_KINDS",
    "BackendSpec",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_backend",
]
