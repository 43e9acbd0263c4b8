"""Benchmark: telemetry overhead, on record.

Every instrumented call site guards on ``tracer is None``, so a search
without a tracer must cost what it did before the instrumentation existed,
and running *with* a tracer once must not leave the engine slower.  That
claim is *asserted* as a count, in tier 1: ``tests/test_obs_disabled.py``
requires zero calls into ``repro/obs/`` while telemetry is off.  This
benchmark keeps the wall-clock side on record in
``BENCH_profile_expand.json`` -- the disabled workload before and after an
enabled run (``disabled_after_ratio``) and the enabled run itself
(``enabled_ratio``) -- without asserting on ratios of sub-second passes,
which flaked six tries in nine.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments.common import build_protein_dataset
from repro.obs import ResourceSampler, Tracer

#: Queries per timed pass (kept small: the pass repeats REPEATS times per
#: sample and three samples are taken).
QUERY_COUNT = 8
#: Timed passes per sample; the sample statistic is their median.
REPEATS = 5


def _time_workload(engine, queries, evalue, tracer=None) -> float:
    """Median wall seconds of REPEATS full serial passes over the workload."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for query in queries:
            engine.search(query, evalue=evalue, tracer=tracer)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_bench_telemetry_overhead(config, bench_record):
    dataset = build_protein_dataset(config)
    queries = [query.text for query in dataset.workload][:QUERY_COUNT]
    evalue = config.effective_evalue(dataset.database_symbols)
    engine = dataset.engine

    # Warm-up pass: JIT-free Python still has cold dict/caches on the first
    # touch (scoring rows, suffix-tree laziness), which would be charged to
    # whichever sample runs first.
    for query in queries:
        engine.search(query, evalue=evalue)

    disabled_before = _time_workload(engine, queries, evalue)

    tracer = Tracer()
    engine.instrument(tracer)
    sampler = ResourceSampler.for_engine(tracer, engine, interval=0.01)
    try:
        with sampler:
            enabled = _time_workload(engine, queries, evalue, tracer=tracer)
    finally:
        engine.instrument(None)

    disabled_after = _time_workload(engine, queries, evalue)

    after_ratio = disabled_after / disabled_before if disabled_before else 1.0
    enabled_ratio = enabled / disabled_before if disabled_before else 1.0

    print()
    print(
        f"telemetry overhead: disabled {disabled_before * 1e3:.1f}ms -> "
        f"{disabled_after * 1e3:.1f}ms after an enabled run "
        f"(x{after_ratio:.3f}); enabled x{enabled_ratio:.3f}"
    )

    bench_record(
        "profile_expand",
        {
            "queries": len(queries),
            "repeats": REPEATS,
            "disabled_before_seconds": disabled_before,
            "disabled_after_seconds": disabled_after,
            "enabled_seconds": enabled,
            "disabled_after_ratio": after_ratio,
            "enabled_ratio": enabled_ratio,
            "spans_recorded": len(tracer.records()),
            # What the process looked like during the enabled passes (RSS,
            # thread count; pool/queue taps are empty on this in-memory
            # engine) -- the resource time series rides the bench record.
            "sampler": sampler.summary(),
        },
    )

    # The tracer really did observe the enabled passes.
    assert len(tracer.records()) == REPEATS * len(queries)
    assert tracer.metrics.counter("search.queries").value == REPEATS * len(queries)
    # ... and the sampler rode along: at least the start/stop samples, with
    # its gauges registered on the same metrics registry.
    assert len(sampler.samples) >= 2
    assert tracer.metrics.counter("sampler.ticks").value == len(sampler.samples)

