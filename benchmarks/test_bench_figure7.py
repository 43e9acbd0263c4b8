"""Benchmark regenerating Figure 7: effect of the buffer pool size.

Paper shape: query time degrades sharply once the pool is much smaller than
the index (57.5% slower at a quarter of the tree) and flattens once the whole
structure fits.  The reported per-query time is compute time plus the
simulated I/O charged per physical block read (5 ms, a 2003-era disk seek).
"""

from bench_support import emit

from repro.experiments import figure7

POOL_FRACTIONS = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0)
QUERY_LIMIT = 8


def test_bench_figure7(benchmark, config):
    result = benchmark.pedantic(
        figure7.run,
        args=(config,),
        kwargs={"pool_fractions": POOL_FRACTIONS, "query_limit": QUERY_LIMIT},
        iterations=1,
        rounds=1,
    )
    emit(result)

    assert len(result.rows) == len(POOL_FRACTIONS)
    assert result.index_size_bytes > 0
    smallest, largest = result.rows[0], result.rows[-1]
    # A pool much smaller than the index must hurt: more simulated I/O,
    # lower hit ratio, higher total time.
    assert smallest.mean_simulated_io_seconds > largest.mean_simulated_io_seconds
    assert smallest.hit_ratio < largest.hit_ratio
    assert smallest.mean_total_seconds > largest.mean_total_seconds
    # Once the whole index fits, growing the pool further changes little.
    fits, double = result.rows[-2], result.rows[-1]
    assert abs(fits.mean_simulated_io_seconds - double.mean_simulated_io_seconds) <= max(
        0.05 * fits.mean_simulated_io_seconds, 1e-3
    )
