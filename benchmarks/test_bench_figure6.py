"""Benchmark regenerating Figure 6: effect of selectivity (E=1 vs E=20 000).

Paper shape: the highly selective search (E=1) is much faster than the relaxed
one (E=20 000) for the shortest queries -- where it behaves almost like exact
suffix-tree lookup -- and the difference shrinks as queries get longer.
"""

from bench_support import emit

from repro.experiments import figure6


def test_bench_figure6(benchmark, config):
    result = benchmark.pedantic(figure6.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert result.rows
    low, high = min(result.evalues), max(result.evalues)
    total_selective_columns = sum(row.columns.get(low, 0.0) for row in result.rows)
    total_relaxed_columns = sum(row.columns.get(high, 0.0) for row in result.rows)
    # The selective search can never do more work than the relaxed one.
    assert total_selective_columns <= total_relaxed_columns
    # And it returns at most as many results.
    total_selective_hits = sum(row.hits.get(low, 0.0) for row in result.rows)
    total_relaxed_hits = sum(row.hits.get(high, 0.0) for row in result.rows)
    assert total_selective_hits <= total_relaxed_hits
    # The shortest queries show the largest relative benefit (paper's shape).
    shortest = min(result.rows, key=lambda row: row.query_length)
    longest = max(result.rows, key=lambda row: row.query_length)
    if shortest.seconds.get(low) and longest.seconds.get(low):
        shortest_gain = shortest.seconds[high] / shortest.seconds[low]
        longest_gain = longest.seconds[high] / longest.seconds[low]
        assert shortest_gain >= longest_gain * 0.5
