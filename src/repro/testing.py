"""Shared constants and helpers for the test-suite and the benchmarks.

Historically these lived in ``tests/conftest.py`` and ``benchmarks/conftest.py``
and were pulled in with ``from conftest import ...`` -- which breaks as soon
as pytest collects both directories in one run, because whichever ``conftest``
module is imported first shadows the other.  Putting them in a real,
importable module removes the ambiguity: fixtures stay in the conftests,
plain helpers live here.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.scoring.matrix import SubstitutionMatrix

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.common import ExperimentConfig

#: The sequence used throughout Section 2/3 of the paper.
PAPER_TARGET = "AGTACGCCTAG"
#: The query of the paper's worked example (Table 2, Section 3.3).
PAPER_QUERY = "TACG"

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
BASES = "ACGT"

#: Default number of workload queries used by the per-figure benchmarks.
DEFAULT_BENCH_QUERIES = 24


def smoke_mode() -> bool:
    """Whether the benchmarks run as a CI smoke check.

    In smoke mode (``OASIS_BENCH_SMOKE=1``) every benchmark still *executes*
    -- that is the point: collection-only CI lets the benchmark bodies
    bit-rot -- but wall-clock comparisons and curve-shape assertions are
    skipped, because a shared CI runner at the tiny scale proves nothing
    about either.  Correctness assertions must stay unconditional.
    """
    import os

    return os.environ.get("OASIS_BENCH_SMOKE", "") == "1"


# --------------------------------------------------------------------- #
# Picklable task functions for exercising the sharded engine's process pool.
# They live here (not in a test module) because spawned worker processes
# re-import tasks by qualified name, and only installed/PYTHONPATH modules
# are importable from a worker -- test modules are not.
# --------------------------------------------------------------------- #
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


def random_protein(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(AMINO_ACIDS) for _ in range(length))


def random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(length))


def brute_force_local_score(
    query: str, target: str, matrix: SubstitutionMatrix, gap_penalty: int
) -> int:
    """Reference Smith-Waterman score, written as differently as possible from
    the library implementations (plain Python lists, no NumPy)."""
    m, n = len(query), len(target)
    previous = [0] * (n + 1)
    best = 0
    for i in range(1, m + 1):
        current = [0] * (n + 1)
        for j in range(1, n + 1):
            score = max(
                0,
                previous[j - 1] + matrix.score(query[i - 1], target[j - 1]),
                previous[j] + gap_penalty,
                current[j - 1] + gap_penalty,
            )
            current[j] = score
            if score > best:
                best = score
        previous = current
    return best


def dense(column, length: int):
    """A frontier column as the dense array the reference kernel would hold.

    The live-cell kernel keeps a column as its ascending ``(row, score)``
    survivors; tests compare the two kernels (and index worked examples by
    row) through this one form.  Dense columns pass through unchanged.
    """
    import numpy as np

    from repro.core.search_node import PRUNED

    if not isinstance(column, list):
        return column
    filled = np.full(length, PRUNED, dtype=np.int64)
    for row, score in column:
        filled[row] = score
    return filled


def node_signature(node, length: int):
    """Every field of a ``SearchNode`` but its tree handle, the column dense.

    What the kernel-parity tests compare between the production kernel and
    the reference, child by child.
    """
    return (
        node.state,
        node.f,
        node.b,
        node.max_score,
        node.depth,
        None if node.column is None else dense(node.column, length).tolist(),
    )


def bench_config(**overrides) -> "ExperimentConfig":
    """The experiment configuration the benchmarks run with.

    Uses the scale selected by ``OASIS_BENCH_SCALE`` (default ``small``) with
    the workload capped by ``OASIS_BENCH_QUERIES`` (default 24) so the full
    benchmark suite finishes in a few minutes; raise either knob for sharper
    curves.
    """
    import os

    from repro.experiments.common import default_config

    query_count = int(os.environ.get("OASIS_BENCH_QUERIES", str(DEFAULT_BENCH_QUERIES)))
    return default_config(query_count=query_count, **overrides)


def emit(result) -> None:
    """Print an experiment's table (shown with ``-s``; kept out of captures)."""
    print()
    print(result.format_table())


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
