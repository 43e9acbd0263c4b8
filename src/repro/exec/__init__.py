"""Pluggable execution backends: serial, thread-pool and process-pool.

Every layer of the system that fans work out -- the batch executor's
per-query fan-out, the sharded engine's per-shard scatter, the sharded index
builder's per-shard construction -- picks its strategy behind one small
abstraction:

* :class:`SerialBackend` runs tasks inline (clean timings, zero overhead);
  the default everywhere;
* :class:`ThreadBackend` shares memory and one interpreter lock: the
  search is CPU-bound under it (the images sit in the page cache), so a
  thread fan-out of searches is slower than the loop -- the sharded
  engine's scatter does not offer it, and the batch executor's
  ``workers=2`` took 3.33 s to the loop's 1.66 s on a 1-shard index with a
  1/8 pool.  Index builds spend their time in NumPy sorts and gain a little
  (4 shards of 191 262 residues: 0.18 s against 0.23 s serial);
* :class:`ProcessBackend` escapes the GIL for CPU-bound work, at the price
  of picklable tasks, per-process state and a ``spawn`` start (the same
  build took 0.56 s on ``processes:2``).

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
