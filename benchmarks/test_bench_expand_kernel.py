"""Benchmark: the production expansion kernel against the dense reference.

The kernel layer (``repro.core.kernels``) exists for exactly one number:
CPU-bound search time.  This benchmark runs the same workload over the same
in-memory suffix tree under both kernels and records the speedup:

* ``reference`` -- the dense per-column implementation (all ``m + 1`` cells
  of every column through a dozen NumPy calls); the oracle.
* ``live`` -- the live-cell kernel (the default): only the cells that
  survive pruning, as Python ints.

Parity is asserted *always*, even in smoke mode: byte-identical hits and
identical work counters -- the speedup is only meaningful if both kernels
did the same work.  The speedup floor is asserted only on real (non-smoke)
runs on a quiet machine.
"""

from __future__ import annotations

import statistics
import time

from repro.core.engine import OasisEngine
from repro.core.kernels import DEFAULT_KERNEL
from repro.experiments.common import build_protein_dataset
from repro.testing import smoke_mode

#: Queries per timed pass (CPU-bound: in-memory tree, serial engine).
QUERY_COUNT = 12
#: Timed passes per kernel; the reported statistic is their median.
REPEATS = 5
#: The ISSUE's acceptance floor for the production kernel vs the oracle.
SPEEDUP_FLOOR = 2.0
#: Below this the medians are timer noise, not signal; skip the asserts.
MIN_COMPARABLE_SECONDS = 0.05

KERNELS = ("reference", DEFAULT_KERNEL)


def _outcome(result):
    counters = result.statistics.as_dict()
    for unstable in ("elapsed_seconds", "kernel"):
        del counters[unstable]
    hits = [
        (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue)
        for hit in result
    ]
    return hits, counters


def _time_workload(engine, queries, evalue) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for query in queries:
            engine.search(query, evalue=evalue)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_bench_expand_kernel_ab(config, bench_record):
    dataset = build_protein_dataset(config)
    queries = [query.text for query in dataset.workload][:QUERY_COUNT]
    evalue = config.effective_evalue(dataset.database_symbols)
    base = dataset.engine

    # Two engines over ONE shared tree: the A/B isolates the kernel, not
    # index construction or cache state.
    engines = {
        name: OasisEngine(
            base.cursor,
            base.matrix,
            base.gap_model,
            converter=base.converter,
            kernel=name,
        )
        for name in KERNELS
    }

    # Parity first (always, smoke included): byte-identical hits and
    # identical work counters under both kernels.
    outcomes = {}
    for name, engine in engines.items():
        outcomes[name] = []
        for query in queries:
            result = engine.search(query, evalue=evalue)
            assert result.statistics.kernel == name
            outcomes[name].append(_outcome(result))
    assert outcomes[DEFAULT_KERNEL] == outcomes["reference"], (
        f"kernel {DEFAULT_KERNEL} diverged from the reference hits or counters"
    )
    columns = sum(counters["columns_expanded"] for _, counters in outcomes["reference"])

    # The parity pass doubles as warm-up; now the timed passes.
    seconds = {
        name: _time_workload(engine, queries, evalue)
        for name, engine in engines.items()
    }
    speedup = (
        seconds["reference"] / seconds[DEFAULT_KERNEL] if seconds[DEFAULT_KERNEL] else 1.0
    )

    print()
    print(f"{'kernel':12s} {'median_s':>10s} {'vs reference':>14s}")
    for name in KERNELS:
        ratio = seconds["reference"] / seconds[name] if seconds[name] else 1.0
        print(f"{name:12s} {seconds[name]:10.3f} {ratio:13.2f}x")
    print(f"({QUERY_COUNT} queries x {REPEATS} passes, {columns} DP columns per pass)")

    bench_record(
        "expand_kernel",
        {
            "queries": len(queries),
            "repeats": REPEATS,
            "columns_expanded": columns,
            "hits_identical": True,
            "reference_seconds": seconds["reference"],
            f"{DEFAULT_KERNEL}_seconds": seconds[DEFAULT_KERNEL],
            # Tracked by the regression sentry (higher is better).
            f"{DEFAULT_KERNEL}_speedup": speedup,
        },
    )

    if smoke_mode() or seconds["reference"] < MIN_COMPARABLE_SECONDS:
        return
    assert speedup >= SPEEDUP_FLOOR, (
        f"{DEFAULT_KERNEL} kernel speedup x{speedup:.2f} is below the "
        f"x{SPEEDUP_FLOOR} floor vs the reference path"
    )
