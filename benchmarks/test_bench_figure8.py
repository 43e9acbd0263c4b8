"""Benchmark regenerating Figure 8: buffer hit ratios per tree component.

Paper shape: the internal nodes -- the only component whose disk layout is
optimised there -- keep the highest hit ratio as the pool shrinks, while
symbol and leaf accesses, random by nature, degrade first.  Image format v2
writes leaf siblings contiguously as well, so here the leaf region follows
the internal region and the symbols -- still reached through a pointer --
are what degrades first once the pool is smaller than the symbol array
(about 1/11 of the image): the sweep starts at 1/32 of the index.
"""

from bench_support import emit, smoke_mode

from repro.experiments import figure8

POOL_FRACTIONS = (0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0)
QUERY_LIMIT = 8


def test_bench_figure8(benchmark, config):
    result = benchmark.pedantic(
        figure8.run,
        args=(config,),
        kwargs={"pool_fractions": POOL_FRACTIONS, "query_limit": QUERY_LIMIT},
        iterations=1,
        rounds=1,
    )
    emit(result)

    assert len(result.rows) == len(POOL_FRACTIONS)
    # Hit ratios are probabilities and improve (weakly) with the pool size.
    overall = [row.overall_hit_ratio for row in result.rows]
    assert all(0.0 <= value <= 1.0 for value in overall)
    assert overall[0] <= overall[-1] + 1e-9
    # What the v2 layout predicts: symbols are the least resilient component
    # when the pool is small, and the leaves keep up with the internal nodes.
    # Only meaningful at realistic scale: the tiny smoke tree fits (almost)
    # entirely in every pool.
    if not smoke_mode():
        assert result.symbols_least_resilient()
        smallest = result.rows[0]
        assert abs(smallest.leaf_hit_ratio - smallest.internal_hit_ratio) < 0.15
