"""Scaling benchmark (extension): the OASIS/S-W work ratio vs database size.

Connects the scaled-down measurements of Figures 3-4 to the paper's
order-of-magnitude claims: as the database grows, S-W's work grows linearly
while the OASIS frontier grows sub-linearly, so the work fraction falls.
"""

from bench_support import emit

from repro.experiments import scaling


def test_bench_scaling(benchmark, config):
    result = benchmark.pedantic(scaling.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert len(result.rows) >= 3
    sizes = [row.database_symbols for row in result.rows]
    assert sizes == sorted(sizes)
    # The headline trend: OASIS's relative work shrinks as the database grows.
    assert result.fraction_shrinks()
    assert result.rows[-1].fraction < 0.9
