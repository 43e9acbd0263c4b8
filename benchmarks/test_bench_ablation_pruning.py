"""Ablation benchmark: the contribution of each pruning rule (Section 3.2).

The pruning rules are pure optimisations, so every rule subset must return
identical results, and the full rule set must do the least work.
"""

from bench_support import emit

from repro.experiments import ablation_pruning


def test_bench_ablation_pruning(benchmark, config):
    # Three queries keep the fully-unpruned variant (tens of seconds per
    # query) inside the benchmark budget while the contrast stays dramatic.
    result = benchmark.pedantic(
        ablation_pruning.run, args=(config,), kwargs={"query_limit": 3}, iterations=1, rounds=1
    )
    emit(result)

    assert result.results_identical, "disabling a pruning rule changed the results"
    baseline = result.rows[0]
    # No rule subset may ever do *less* work than the full rule set.
    for row in result.rows[1:]:
        assert row.columns_expanded >= baseline.columns_expanded
    # Removing the pruning entirely must cost a measurable amount of work
    # (the non-positive rule carries most of the weight; the dominated and
    # threshold rules mostly trim cells inside columns that are expanded
    # anyway, so their column counts can tie at this scale).
    no_pruning = next(row for row in result.rows if row.variant == "no pruning at all")
    assert no_pruning.columns_expanded > 1.5 * baseline.columns_expanded
