"""Tests for the workload runner and the engine adapters."""

import pytest

from repro.core.engine import OasisEngine
from repro.workloads.engines import BlastAdapter, OasisAdapter, SmithWatermanAdapter
from repro.workloads.runner import WorkloadRunner, aggregate_by_length
from support import workload_from_texts


@pytest.fixture
def adapters(small_protein_database, pam30_matrix, gap8):
    engine = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
    return [
        OasisAdapter(engine, evalue=1.0),
        SmithWatermanAdapter(
            small_protein_database, pam30_matrix, gap8, evalue=1.0, converter=engine.converter
        ),
        BlastAdapter(
            small_protein_database, pam30_matrix, gap8, evalue=1.0, converter=engine.converter
        ),
    ]


class TestAdapters:
    def test_adapter_names_distinct(self, adapters):
        assert len({a.name for a in adapters}) == 3

    def test_describe_mentions_threshold(self, adapters):
        for adapter in adapters:
            assert "E=" in adapter.describe()

    def test_oasis_and_sw_agree(self, adapters):
        query = "WKDDGNGYISAAE"
        oasis_result = adapters[0].run(query)
        sw_result = adapters[1].run(query)
        assert oasis_result.scores_by_sequence() == sw_result.scores_by_sequence()

    def test_adapter_threshold_validation(self, small_protein_database, pam30_matrix, gap8):
        engine = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        with pytest.raises(ValueError):
            OasisAdapter(engine, evalue=None, min_score=None)
        with pytest.raises(ValueError):
            SmithWatermanAdapter(
                small_protein_database, pam30_matrix, gap8, evalue=1.0, min_score=5
            )


class TestWorkloadRunner:
    def test_runs_every_query_on_every_engine(self, adapters):
        workload = workload_from_texts(["WKDDGNGYISAAE", "MKVLA"])
        summary = WorkloadRunner(adapters).run(workload)
        assert len(summary.measurements) == len(workload) * len(adapters)
        assert set(summary.engines()) == {a.name for a in adapters}
        assert summary.total_seconds > 0

    def test_requires_engines(self):
        with pytest.raises(ValueError):
            WorkloadRunner([])

    def test_rejects_duplicate_names(self, adapters):
        with pytest.raises(ValueError):
            WorkloadRunner([adapters[0], adapters[0]])

    def test_measurements_capture_metrics(self, adapters):
        workload = workload_from_texts(["WKDDGNGYISAAE"])
        summary = WorkloadRunner(adapters).run(workload)
        for measurement in summary.measurements:
            assert measurement.query_length == 13
            assert measurement.elapsed_seconds >= 0
            assert measurement.columns_expanded >= 0

    def test_mean_seconds(self, adapters):
        workload = workload_from_texts(["WKDDGNGYISAAE", "MKVLAADTG"])
        summary = WorkloadRunner(adapters[:1]).run(workload)
        assert summary.mean_seconds("OASIS") > 0
        assert summary.mean_seconds("missing") == 0.0

    def test_measurements_are_query_major(self, adapters):
        texts = ["WKDDGNGYISAAE", "MKVLAADTG"]
        summary = WorkloadRunner(adapters).run(workload_from_texts(texts))
        assert [(m.query, m.engine) for m in summary.measurements] == [
            (text, adapter.name) for text in texts for adapter in adapters
        ]
        oasis = [m for m in summary.measurements if m.engine == "OASIS"]
        expected = [adapters[0].run(text) for text in texts]
        assert [(m.hit_count, m.best_score) for m in oasis] == [
            (len(result), result.best_score) for result in expected
        ]

    def test_a_failing_query_raises(self, adapters):
        with pytest.raises(ValueError):
            WorkloadRunner(adapters[:1]).run(workload_from_texts(["WKDDGNGYISAAE", ""]))


class TestAggregation:
    def test_aggregate_by_length(self, adapters):
        workload = workload_from_texts(["WKDDGNGYISAAE", "MKVLAADTG", "MKVLAADTA"])
        summary = WorkloadRunner(adapters[:1]).run(workload)
        aggregates = aggregate_by_length(summary.measurements)
        lengths = {a.query_length: a for a in aggregates}
        assert lengths[9].query_count == 2
        assert lengths[13].query_count == 1
        assert all(a.engine == "OASIS" for a in aggregates)

    def test_aggregate_filters_by_engine(self, adapters):
        workload = workload_from_texts(["WKDDGNGYISAAE"])
        summary = WorkloadRunner(adapters).run(workload)
        only_oasis = aggregate_by_length(summary.measurements, "OASIS")
        assert len(only_oasis) == 1
        assert only_oasis[0].engine == "OASIS"

    def test_aggregate_row_format(self, adapters):
        workload = workload_from_texts(["MKVLAADTG"])
        summary = WorkloadRunner(adapters[:1]).run(workload)
        row = aggregate_by_length(summary.measurements)[0].as_row()
        assert row[0] == 9 and row[1] == 1
