"""Benchmark regenerating the space-utilisation table of Section 4.2.

Paper numbers: 40 M symbols -> 500 MB index = 12.5 bytes per symbol, on par
with the most compact suffix-tree representations.  Our layout (1-byte
symbols, 17-byte internal records, 4-byte leaf records, 2 KB blocks) lands in
the same regime; the exact figure depends on the internal-node density of the
data set and is printed for the record.
"""

from bench_support import emit

from repro.experiments import table_space


def test_bench_space_utilisation(benchmark, config):
    result = benchmark.pedantic(table_space.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert result.rows
    row = result.rows[0]
    assert row.database_symbols > 0
    assert row.index_size_bytes > row.database_symbols  # an index is never free
    # Same order of magnitude as the paper's 12.5 bytes/symbol.
    assert 6.0 <= row.bytes_per_symbol <= 30.0
