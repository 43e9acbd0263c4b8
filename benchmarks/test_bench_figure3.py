"""Benchmark regenerating Figure 3: mean query time vs query length.

Paper shape: OASIS is at least an order of magnitude faster than S-W on short
queries and comparable to BLAST.  The S-W here is a vectorised row-wise scan
and OASIS a pure-Python tree search, so their wall-clock ratio says how the
two implementations compare on this machine, not whether the paper's claim
holds; it is printed for the record and not asserted.  The
machine-independent claim is Figure 4's column count
(``test_bench_figure4.py``).
"""

from bench_support import emit

from repro.experiments import figure3


def test_bench_figure3(benchmark, config):
    result = benchmark.pedantic(figure3.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert result.rows, "the workload produced no per-length rows"
    assert set(result.mean_seconds) == {"OASIS", "BLAST", "S-W"}
    # The paper's headline regime, short queries (<= 20 residues), is the
    # workload's core.
    short_rows = [row for row in result.rows if row.query_length <= 20]
    assert short_rows, "the workload contains no short queries"
