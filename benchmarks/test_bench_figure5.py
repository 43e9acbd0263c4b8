"""Benchmark regenerating Figure 5: additional matches of OASIS over BLAST.

Paper shape: OASIS (exact) returns on average ~60% more matches than BLAST at
the same E-value cutoff, and never fewer.  The exact percentage depends on how
aggressively the heuristic is tuned; the invariants asserted here are the ones
that cannot legitimately vary: BLAST never finds a sequence OASIS misses, and
OASIS finds at least as many matches for every query length.
"""

from bench_support import emit

from repro.experiments import figure5


def test_bench_figure5(benchmark, config):
    result = benchmark.pedantic(figure5.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert result.rows
    # OASIS is exact: anything the heuristic scores above threshold, OASIS has too.
    assert result.blast_only_hits == 0
    for row in result.rows:
        assert row.mean_oasis_matches >= row.mean_blast_matches
    assert result.mean_additional_percent >= 0.0
