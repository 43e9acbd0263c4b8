"""Benchmark regenerating Figure 9: online behaviour of OASIS.

Paper shape: for a 13-residue motif at E=20 000 the first results appear
within hundredths of a second, far before a batch S-W (or BLAST) run would
produce anything, and results keep streaming in decreasing score order until
the full result set (~5 900 alignments in the paper) is emitted.  The time of
the first result against the whole S-W scan compares two implementations on
one machine, so it is printed, not asserted; what is asserted is the shape of
OASIS's own emission timeline.
"""

from bench_support import emit

from repro.experiments import figure9


def test_bench_figure9(benchmark, config):
    result = benchmark.pedantic(figure9.run, args=(config,), iterations=1, rounds=1)
    emit(result)

    assert result.total_results > 0, "the chosen motif found no alignments"
    first = result.time_for_first(1)
    assert first is not None
    # The first result arrives before OASIS itself finishes emitting
    # everything (unless there is only a single result).
    if result.total_results > 1:
        assert first <= result.oasis_total_seconds
    # The emission timeline is monotone in time.
    times = [t for t, _ in result.timeline]
    assert all(a <= b for a, b in zip(times, times[1:]))
