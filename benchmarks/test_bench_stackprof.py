"""Benchmark: sampling-profiler overhead and the sampled kernel share, on record.

At the default interval the profiler wakes ~200 times a second, walks every
thread's stack and joins the tracer's active spans.  What that costs
(``profiled_ratio``), what an unprofiled run costs afterwards
(``disabled_after_ratio``) and the share of *sampled* wall time whose leaf
frame is in ``core/kernels.py`` / ``core/expand.py`` (tracked directionally
by the regression sentry: ``*_sampled_share`` -> lower is better) are
recorded in ``BENCH_stackprof.json``.  The ratios are not asserted --
sub-second passes made them flake; that nothing of the telemetry runs once
it is off is asserted as a call count in ``tests/test_obs_disabled.py``.

The workload is the CPU-bound scatter path: an in-memory sharded engine
fanning each query across shards, all compute, no I/O stalls.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments.common import build_protein_dataset
from repro.obs import StackProfiler, Tracer, validate_speedscope
from repro.sharding import ShardedEngine

#: Queries per timed pass.
QUERY_COUNT = 8
#: Timed passes per sample; the sample statistic is their median.
REPEATS = 5
SHARDS = 4


def _time_workload(engine, queries, evalue, tracer=None) -> float:
    """Median wall seconds of REPEATS full scatter passes over the workload."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for query in queries:
            engine.search(query, evalue=evalue, tracer=tracer)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_bench_stackprof_overhead_and_share(config, bench_record):
    dataset = build_protein_dataset(config)
    queries = [query.text for query in dataset.workload][:QUERY_COUNT]
    evalue = config.effective_evalue(dataset.database_symbols)
    engine = ShardedEngine.build(
        dataset.database,
        dataset.matrix,
        dataset.gap_model,
        shard_count=SHARDS,
    )

    # Warm-up: cold scoring rows and lazy suffix-tree state would otherwise
    # be charged to whichever sample runs first.
    for query in queries:
        engine.search(query, evalue=evalue)

    disabled_before = _time_workload(engine, queries, evalue)

    tracer = Tracer()
    profiler = StackProfiler(tracer)
    with profiler:
        profiled = _time_workload(engine, queries, evalue, tracer=tracer)

    disabled_after = _time_workload(engine, queries, evalue)

    profiled_ratio = profiled / disabled_before if disabled_before else 1.0
    after_ratio = disabled_after / disabled_before if disabled_before else 1.0

    # The DP hot loop moved from core/expand.py into the kernel layer
    # (core/kernels.py), so both files are tracked: ``expand_*`` keeps its
    # historical meaning, ``kernel_*`` is where the hot path lives now.
    sampled_share = profiler.share_of("core/expand")
    kernel_sampled_share = profiler.share_of("core/kernels")

    speedscope = profiler.speedscope("stackprof benchmark")
    assert validate_speedscope(speedscope) == []

    print()
    print(
        f"stackprof overhead: disabled {disabled_before * 1e3:.1f}ms -> "
        f"profiled x{profiled_ratio:.3f}, disabled-after x{after_ratio:.3f} "
        f"({profiler.sample_count} samples @ {profiler.interval * 1e3:.0f}ms)"
    )
    print(
        f"sampled own-time share: core/expand {sampled_share:.1%}, "
        f"core/kernels {kernel_sampled_share:.1%}"
    )
    shares = ", ".join(
        f"{phase}={share:.0%}"
        for phase, share in sorted(profiler.phase_shares().items())
    )
    print(f"phase shares: {shares or 'none'}")

    bench_record(
        "stackprof",
        {
            "queries": len(queries),
            "repeats": REPEATS,
            "shards": SHARDS,
            "interval_seconds": profiler.interval,
            "samples": profiler.sample_count,
            "disabled_before_seconds": disabled_before,
            "profiled_seconds": profiled,
            "disabled_after_seconds": disabled_after,
            "profiled_ratio": profiled_ratio,
            "disabled_after_ratio": after_ratio,
            # Tracked directionally by the regression sentry (lower is
            # better): the expansion-vectorisation before-picture.
            "expand_sampled_share": sampled_share,
            "kernel_sampled_share": kernel_sampled_share,
            "phase_shares": profiler.phase_shares(),
        },
    )

    # The profiler really watched the profiled passes.
    assert profiler.sample_count > 0
    assert profiler.elapsed_seconds > 0

