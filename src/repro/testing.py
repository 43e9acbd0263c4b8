"""Helpers the tests need from ``src/``: spawn-worker tasks and lock-order wiring.

A spawned worker re-imports a task by its qualified name, and only installed
or ``PYTHONPATH`` modules are importable from a worker -- test modules are
not.  So the picklable tasks the tests send through the sharded engine's
process pool (``proc_roundtrip``, ``proc_kill_worker``) live here.  So does
``instrument_lock_order``, the wiring of :mod:`repro.analysis.lockorder`.

Every other test helper lives under ``tests/``: constants, random sequences
and the brute-force score in ``tests/support.py``, the oracles next to it.
The benchmarks' helpers are in ``benchmarks/bench_support.py``.
"""

from __future__ import annotations


def proc_roundtrip(payload):
    """Spawn-worker identity: ships ``payload`` out and back through pickle.

    The worker re-imports the payload's class by qualified name and returns
    the unpickled object (plus the class's qualified name as seen worker
    side), so a parent-side equality check proves the full spawn journey:
    pickle in the parent, import + unpickle in a fresh interpreter, pickle
    the result, unpickle in the parent.
    """
    cls = type(payload)
    return f"{cls.__module__}.{cls.__qualname__}", payload


def proc_kill_worker(value):
    """Hard-crash the worker process, bypassing all exception handling."""
    import os

    os._exit(13)


# --------------------------------------------------------------------------- #
# Lock-order instrumentation
# --------------------------------------------------------------------------- #
def instrument_lock_order(monitor, *objects, names=None):
    """Swap every private lock on ``objects`` for a monitored wrapper.

    ``monitor`` is a :class:`repro.analysis.lockorder.LockOrderMonitor`; each
    object's known lock attributes (``_lock`` on a
    :class:`~repro.storage.buffer_pool.BufferPool`, ``_pool_lock`` on a
    :class:`~repro.sharding.ShardedEngine` -- any attribute ending in
    ``lock`` holding an acquire/release object) are replaced in place by
    :class:`~repro.analysis.lockorder.OrderedLock` wrappers that report to
    the monitor.  Lock names default to ``ClassName[i].attr`` so two pools'
    locks stay distinguishable in a cycle report; pass ``names`` (one per
    object) to override the prefix.

    Returns the list of wrapper names installed, in order -- convenient for
    asserting which locks a scenario actually touched.
    """
    from repro.analysis.lockorder import OrderedLock

    installed = []
    for index, target in enumerate(objects):
        prefix = (
            names[index]
            if names is not None
            else f"{type(target).__name__}[{index}]"
        )
        for attribute in sorted(vars(target)):
            if not attribute.endswith("lock"):
                continue
            candidate = getattr(target, attribute)
            if isinstance(candidate, OrderedLock):
                continue
            if not (hasattr(candidate, "acquire") and hasattr(candidate, "release")):
                continue
            wrapper = OrderedLock(candidate, f"{prefix}.{attribute}", monitor)
            setattr(target, attribute, wrapper)
            installed.append(wrapper.name)
    return installed
