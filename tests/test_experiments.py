"""End-to-end smoke tests for the experiment drivers (tiny scale).

Each driver must run, produce rows, render a table, and exhibit the structural
properties the paper's figures rely on (e.g. OASIS agreeing with S-W, hit
ratios increasing with the pool size).  Absolute numbers are not asserted:
the tiny scale exists to keep the test-suite fast, and ``benchmarks/`` prints
the small/medium-scale results (README, "Tests and benchmarks").
"""

import dataclasses
import time

import pytest

from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.results import SearchHit, SearchResult
from repro.experiments import (
    available_scales,
    build_protein_dataset,
    default_config,
)
from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    table_space,
)
from repro.experiments.common import (
    BLOCK_SIZE,
    EVALUE,
    PAPER_DATABASE_SIZE,
    ExperimentConfig,
    clear_dataset_cache,
    effective_evalue,
    means_by_length,
    searches,
)
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree


@pytest.fixture(scope="module")
def tiny_config():
    return default_config("tiny")


@pytest.fixture(scope="module")
def tiny_dataset(tiny_config):
    return build_protein_dataset(tiny_config)


class TestConfig:
    def test_available_scales(self):
        assert set(available_scales()) == {"tiny", "small", "medium"}

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale="gigantic").preset()

    def test_effective_evalue_scales_with_database(self):
        assert effective_evalue(40_000) == pytest.approx(EVALUE * 40_000 / PAPER_DATABASE_SIZE)
        assert effective_evalue(40_000, 1.0) == pytest.approx(40_000 / PAPER_DATABASE_SIZE)

    def test_environment_variable_selects_scale(self, monkeypatch):
        monkeypatch.setenv("OASIS_BENCH_SCALE", "tiny")
        assert default_config().scale == "tiny"

    def test_dataset_cache_reuses_objects(self, tiny_config):
        first = build_protein_dataset(tiny_config)
        second = build_protein_dataset(tiny_config)
        assert first is second

    def test_clear_dataset_cache(self, tiny_config):
        first = build_protein_dataset(tiny_config)
        clear_dataset_cache()
        second = build_protein_dataset(tiny_config)
        assert first is not second

    def test_dataset_contents(self, tiny_dataset):
        assert tiny_dataset.database_symbols > 0
        assert len(tiny_dataset.workload) == tiny_dataset.config.effective_query_count()
        assert tiny_dataset.matrix.name == "PAM30"


class TestEngineCalls:
    def test_searches_name_the_three_engines(self, tiny_dataset):
        assert list(searches(tiny_dataset, 1.0)) == ["OASIS", "BLAST", "S-W"]

    def test_oasis_and_smith_waterman_agree(self, tiny_dataset):
        engines = searches(tiny_dataset, effective_evalue(tiny_dataset.database_symbols))
        for query in tiny_dataset.workload.texts()[:4]:
            oasis, smith_waterman = engines["OASIS"](query), engines["S-W"](query)
            assert oasis.scores_by_sequence() == smith_waterman.scores_by_sequence()
            assert smith_waterman.columns_expanded == tiny_dataset.database_symbols

    def test_means_by_length_groups_counts_and_averages(self):
        def result(query, seconds, columns, hits):
            found = [SearchHit(index, f"s{index}", 10) for index in range(hits)]
            return SearchResult(query, "x", found, seconds, columns)

        means = means_by_length(
            [
                result("MKVLAADTGLAV", 0.5, 30, 1),
                result("MKVLA", 1.0, 10, 2),
                result("WKDDGNGYISA", 0.25, 50, 0),
                result("MKVLC", 3.0, 20, 0),
            ]
        )
        assert list(means) == [5, 11, 12]
        five = means[5]
        assert (five.query_length, five.query_count) == (5, 2)
        assert (five.seconds, five.columns, five.hits) == (2.0, 15.0, 1.0)
        assert means[11].query_count == means[12].query_count == 1
        assert (means[12].seconds, means[12].columns, means[12].hits) == (0.5, 30.0, 1.0)

    @pytest.mark.parametrize("name", ["OASIS", "BLAST", "S-W"])
    def test_results_carry_the_query_and_their_costs(self, tiny_dataset, name):
        search = searches(tiny_dataset, effective_evalue(tiny_dataset.database_symbols))[name]
        query = tiny_dataset.workload.texts()[0]
        result = search(query)
        assert result.query == query
        assert result.elapsed_seconds > 0
        assert result.columns_expanded > 0

    @pytest.mark.parametrize("name", ["OASIS", "BLAST", "S-W"])
    def test_an_empty_query_raises(self, tiny_dataset, name):
        search = searches(tiny_dataset, effective_evalue(tiny_dataset.database_symbols))[name]
        with pytest.raises(ValueError):
            search("")

    @pytest.mark.parametrize("name", ["OASIS", "BLAST", "S-W"])
    def test_a_stricter_evalue_finds_no_more_hits(self, tiny_dataset, name):
        evalue = effective_evalue(tiny_dataset.database_symbols)
        loose = searches(tiny_dataset, evalue)[name]
        strict = searches(tiny_dataset, evalue / 1e6)[name]
        for query in tiny_dataset.workload.texts()[:4]:
            assert len(strict(query)) <= len(loose(query))

    def test_the_engines_answer_under_distinct_names(self, tiny_dataset):
        query = tiny_dataset.workload.texts()[0]
        engines = searches(tiny_dataset, 1.0).values()
        assert len({search(query).engine for search in engines}) == 3

    def test_oasis_is_the_datasets_engine(self, tiny_dataset):
        evalue = effective_evalue(tiny_dataset.database_symbols)
        oasis = searches(tiny_dataset, evalue)["OASIS"]
        for query in tiny_dataset.workload.texts()[:4]:
            expected = tiny_dataset.engine.search(query, evalue=evalue)
            assert oasis(query).scores_by_sequence() == expected.scores_by_sequence()

    def test_blast_is_the_datasets_baseline(self, tiny_dataset):
        evalue = effective_evalue(tiny_dataset.database_symbols)
        blast = searches(tiny_dataset, evalue)["BLAST"]
        for query in tiny_dataset.workload.texts()[:4]:
            expected = tiny_dataset.blast.search(query, evalue=evalue)
            assert blast(query).scores_by_sequence() == expected.scores_by_sequence()

    def test_smith_waterman_keeps_the_equation_3_score(self, tiny_dataset):
        evalue = effective_evalue(tiny_dataset.database_symbols)
        smith_waterman = searches(tiny_dataset, evalue)["S-W"]
        for query in tiny_dataset.workload.texts()[:4]:
            min_score = tiny_dataset.converter.min_score_for_evalue(evalue, len(query))
            assert all(hit.score >= min_score for hit in smith_waterman(query))

    def test_means_by_length_of_no_results_is_empty(self):
        assert means_by_length([]) == {}

    def test_means_by_length_counts_every_workload_query(self, tiny_dataset):
        oasis = searches(tiny_dataset, effective_evalue(tiny_dataset.database_symbols))["OASIS"]
        texts = tiny_dataset.workload.texts()
        means = means_by_length(oasis(query) for query in texts)
        assert list(means) == sorted({len(query) for query in texts})
        assert sum(row.query_count for row in means.values()) == len(texts)


class TestFigure3(object):
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return figure3.run(tiny_config)

    def test_rows_cover_workload_lengths(self, result, tiny_dataset):
        lengths = {q.length for q in tiny_dataset.workload}
        assert {row.query_length for row in result.rows} == lengths

    def test_mean_seconds_recorded_for_all_engines(self, result):
        assert set(result.mean_seconds) == {"OASIS", "BLAST", "S-W"}
        assert all(value > 0 for value in result.mean_seconds.values())

    def test_format_table(self, result):
        text = result.format_table()
        assert "Figure 3" in text and "sw/oasis" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return figure4.run(tiny_config)

    def test_smith_waterman_columns_equal_database_size(self, result, tiny_dataset):
        for row in result.rows:
            assert row.smith_waterman_columns == tiny_dataset.database.total_symbols

    def test_oasis_expands_fewer_columns_for_short_queries(self, result):
        shortest = min(result.rows, key=lambda row: row.query_length)
        assert shortest.fraction < 1.0

    def test_format_table(self, result):
        assert "Figure 4" in result.format_table()

    def test_runs_no_smith_waterman(self, tiny_config, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Figure 4 must not run S-W")

        monkeypatch.setattr(SmithWatermanAligner, "search", refuse)
        assert figure4.run(tiny_config).rows


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return figure5.run(tiny_config)

    def test_oasis_never_misses_what_blast_finds(self, result):
        assert result.blast_only_hits == 0

    def test_additional_percentage_non_negative(self, result):
        assert result.mean_additional_percent >= 0
        for row in result.rows:
            assert row.mean_oasis_matches >= row.mean_blast_matches

    def test_format_table(self, result):
        assert "Figure 5" in result.format_table()


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return figure6.run(tiny_config)

    def test_selective_search_finds_fewer_hits(self, result):
        low, high = min(result.evalues), max(result.evalues)
        total_low = sum(row.hits.get(low, 0) for row in result.rows)
        total_high = sum(row.hits.get(high, 0) for row in result.rows)
        assert total_low <= total_high

    def test_selective_search_expands_no_more_columns(self, result):
        low, high = min(result.evalues), max(result.evalues)
        total_low = sum(row.columns.get(low, 0) for row in result.rows)
        total_high = sum(row.columns.get(high, 0) for row in result.rows)
        assert total_low <= total_high

    def test_format_table(self, result):
        assert "Figure 6" in result.format_table()


class TestFigure7And8:
    @pytest.fixture(scope="class")
    def figure7_result(self, tiny_config):
        return figure7.run(tiny_config, pool_fractions=(0.05, 1.0), query_limit=3)

    @pytest.fixture(scope="class")
    def figure8_result(self, tiny_config):
        return figure8.run(tiny_config, pool_fractions=(0.05, 1.0), query_limit=3)

    def test_small_pool_has_more_io(self, figure7_result):
        assert len(figure7_result.rows) == 2
        small_pool, large_pool = figure7_result.rows
        assert small_pool.mean_simulated_io_seconds >= large_pool.mean_simulated_io_seconds
        assert small_pool.hit_ratio <= large_pool.hit_ratio + 1e-9

    def test_index_size_recorded(self, figure7_result):
        assert figure7_result.index_size_bytes > 0

    def test_simulated_io_is_misses_times_latency(self, tiny_config, tmp_path):
        # Replay the sweep's searches on a fresh pool of each row's size, over
        # an image built the same way, and charge the misses by hand: the row
        # must hold exactly that figure.
        config = dataclasses.replace(tiny_config, simulated_miss_latency=0.25)
        result = figure7.run(config, pool_fractions=(0.05, 1.0), query_limit=3)
        dataset = build_protein_dataset(config)
        image = str(tmp_path / "figure7.oasis")
        build_disk_image(dataset.database, image, block_size=BLOCK_SIZE)
        queries = dataset.workload.texts()[:3]
        evalue = effective_evalue(dataset.database_symbols)
        for row in result.rows:
            tree = DiskSuffixTree(image, dataset.database, buffer_pool_bytes=row.pool_bytes)
            engine = OasisEngine(tree, dataset.matrix, dataset.gap_model, converter=dataset.converter)
            for query in queries:
                engine.search(query, evalue=evalue)
            misses = tree.statistics.misses
            tree.close()
            assert misses > 0
            assert row.mean_simulated_io_seconds == pytest.approx(misses * 0.25 / len(queries))

    def test_the_simulated_io_is_charged_not_slept(self, tiny_config):
        # An hour per miss: a sweep that slept would never finish.
        config = dataclasses.replace(tiny_config, simulated_miss_latency=3600.0)
        started = time.perf_counter()
        result = figure7.run(config, pool_fractions=(0.05,), query_limit=2)
        elapsed = time.perf_counter() - started
        (row,) = result.rows
        assert row.mean_simulated_io_seconds >= 3600.0 / 2
        assert row.mean_total_seconds > elapsed
        assert row.mean_compute_seconds < 3600.0

    def test_no_latency_charges_no_io(self, tiny_config):
        config = dataclasses.replace(tiny_config, simulated_miss_latency=0.0)
        result = figure7.run(config, pool_fractions=(0.05,), query_limit=2)
        (row,) = result.rows
        assert row.mean_simulated_io_seconds == 0.0
        assert row.mean_total_seconds == row.mean_compute_seconds
        assert row.hit_ratio < 1.0

    def test_sweep_runs_the_smallest_pool_first(self, tiny_config):
        index_size_bytes, passes = figure7.sweep(tiny_config, (2.0, 0.05, 1.0), 2)
        assert [p.pool_fraction_of_index for p in passes] == [0.05, 1.0, 2.0]
        assert [p.pool_bytes for p in passes] == sorted(p.pool_bytes for p in passes)
        assert passes[1].pool_bytes == index_size_bytes
        assert all(p.query_count == 2 and p.compute_seconds > 0 for p in passes)

    def test_every_sweep_pass_starts_cold(self, tiny_config):
        _, passes = figure7.sweep(tiny_config, (1.0, 2.0), 2)
        assert all(p.statistics.misses > 0 for p in passes)

    def test_the_sweep_pool_holds_at_least_one_block(self, tiny_config):
        _, (only,) = figure7.sweep(tiny_config, (1e-9,), 1)
        assert only.pool_bytes == BLOCK_SIZE

    def test_figure7_and_figure8_read_one_sweep(self, figure7_result, figure8_result):
        assert [row.pool_bytes for row in figure7_result.rows] == [
            row.pool_bytes for row in figure8_result.rows
        ]
        assert [row.hit_ratio for row in figure7_result.rows] == [
            row.overall_hit_ratio for row in figure8_result.rows
        ]
        assert figure7_result.index_size_bytes == figure8_result.index_size_bytes

    def test_hit_ratios_increase_with_pool(self, figure8_result):
        small_pool, large_pool = figure8_result.rows
        assert small_pool.overall_hit_ratio <= large_pool.overall_hit_ratio + 1e-9

    def test_hit_ratios_are_probabilities(self, figure8_result):
        for row in figure8_result.rows:
            for value in (
                row.symbols_hit_ratio,
                row.internal_hit_ratio,
                row.leaf_hit_ratio,
                row.overall_hit_ratio,
            ):
                assert 0.0 <= value <= 1.0

    def test_format_tables(self, figure7_result, figure8_result):
        assert "Figure 7" in figure7_result.format_table()
        assert "Figure 8" in figure8_result.format_table()


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return figure9.run(tiny_config)

    def test_timeline_is_monotonic(self, result):
        times = [t for t, _ in result.timeline]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_first_result_before_total(self, result):
        if result.total_results:
            assert result.time_for_first(1) <= result.oasis_total_seconds

    def test_query_length_near_thirteen(self, result):
        assert abs(len(result.query) - 13) <= 6

    def test_format_table(self, result):
        assert "Figure 9" in result.format_table()


class TestSpaceTable:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return table_space.run(tiny_config)

    def test_bytes_per_symbol_in_plausible_range(self, result):
        row = result.rows[0]
        assert 5.0 <= row.bytes_per_symbol <= 40.0

    def test_counts_match_dataset(self, result, tiny_dataset):
        row = result.rows[0]
        assert row.database_symbols == tiny_dataset.database.total_symbols
        assert row.sequence_count == len(tiny_dataset.database)
        assert row.internal_nodes > 0

    def test_format_table(self, result):
        assert "bytes/symbol" in result.format_table()
