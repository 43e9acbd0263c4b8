"""Benchmark regenerating Figure 4: DP columns expanded, OASIS vs S-W.

Paper shape: OASIS expands only a few percent of the columns S-W does (3.9%
mean, 18.5% worst case on the 40M-residue SWISS-PROT).  On the scaled-down
synthetic database the fractions are larger -- the OASIS frontier shrinks
*relative to the database* as the database grows (see the scaling benchmark) --
so the assertions check the directional properties: OASIS always expands fewer
columns than S-W, and markedly fewer on the shortest queries.
"""

from bench_support import emit

from repro.experiments import figure4


def test_bench_figure4(benchmark, config):
    result = benchmark.pedantic(figure4.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert result.rows
    # S-W expands one column per database symbol for every query length.
    sw_columns = {row.smith_waterman_columns for row in result.rows}
    assert len(sw_columns) == 1
    # OASIS filters: for the short queries the workload is built around it
    # must expand well under half of the columns S-W does.
    short_rows = [row for row in result.rows if row.query_length <= 20]
    assert short_rows
    short_fraction = sum(row.fraction for row in short_rows) / len(short_rows)
    assert short_fraction < 0.6
    shortest = min(result.rows, key=lambda row: row.query_length)
    assert shortest.fraction < 0.5
