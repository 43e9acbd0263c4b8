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

from repro.core.engine import OasisEngine
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
from repro.experiments.common import ExperimentConfig, clear_dataset_cache
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

    def test_effective_evalue_scales_with_database(self, tiny_config):
        scaled = tiny_config.effective_evalue(40_000)
        assert scaled == pytest.approx(tiny_config.evalue * 40_000 / tiny_config.paper_database_size)

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
        # Replay the sweep's searches on a fresh pool of each row's size and
        # charge the misses by hand: the row must hold exactly that figure.
        config = dataclasses.replace(tiny_config, simulated_miss_latency=0.25)
        image = str(tmp_path / "figure7.oasis")
        result = figure7.run(config, pool_fractions=(0.05, 1.0), query_limit=3, image_path=image)
        dataset = build_protein_dataset(config)
        queries = dataset.workload.texts()[:3]
        evalue = config.effective_evalue(dataset.database_symbols)
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
