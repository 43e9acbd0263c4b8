"""Tests for reentrant query executions and the concurrent batch subsystem.

Covers the guarantees the serving layer depends on:

* interleaved / concurrent ``search_online`` generators produce independent,
  correct hit streams and statistics over one shared cursor;
* an early-aborted generator still reports the work it actually did;
* ``search_many`` returns results identical to the serial loop, on both the
  in-memory and the disk-resident index;
* per-query timeouts stop work cooperatively -- also when a batch of width
  one runs as the plain serial loop -- and a batch the calling thread
  leaves early aborts its queries in flight and leaves no thread behind.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.engine import OasisEngine
from repro.core.oasis import OasisSearchStatistics
from repro.core.request import SearchRequest
from repro.parallel import BatchSearchReport
from repro.parallel.executor import PRUNING_COUNTERS, percentile
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from support import POOL_BODIES, on_pool_body

QUERY = "WKDDGNGYISAAE"


def hit_tuples(result):
    """Everything observable about a result's hits (emission times excluded)."""
    return [
        (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue)
        for hit in result
    ]


def standard_workload(database, count=24):
    """A deterministic ``count``-query workload of database substrings."""
    queries = []
    index = 0
    while len(queries) < count:
        text = database[index % len(database)].text
        if len(text) >= 16:
            start = (index * 3) % (len(text) - 12)
            queries.append(text[start : start + 8 + (index % 5)])
        index += 1
    return queries


@pytest.fixture
def engine(small_protein_database, pam30_matrix, gap8):
    return OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)


class TestReentrantExecutions:
    def test_interleaved_generators_independent_streams(self, engine):
        solo_a = list(engine.search_online(QUERY, min_score=10))
        solo_b = list(engine.search_online(QUERY[2:10], min_score=5))

        stream_a = engine.search_online(QUERY, min_score=10)
        stream_b = engine.search_online(QUERY[2:10], min_score=5)
        hits_a, hits_b = [], []
        # Strict alternation: each next() advances one search while the other
        # sits mid-flight on the same shared cursor.
        exhausted_a = exhausted_b = False
        while not (exhausted_a and exhausted_b):
            if not exhausted_a:
                try:
                    hits_a.append(next(stream_a))
                except StopIteration:
                    exhausted_a = True
            if not exhausted_b:
                try:
                    hits_b.append(next(stream_b))
                except StopIteration:
                    exhausted_b = True

        assert [(h.sequence_index, h.score) for h in hits_a] == [
            (h.sequence_index, h.score) for h in solo_a
        ]
        assert [(h.sequence_index, h.score) for h in hits_b] == [
            (h.sequence_index, h.score) for h in solo_b
        ]

    def test_interleaved_executions_have_independent_statistics(self, engine):
        solo_a = engine.execute(QUERY, min_score=10)
        solo_a.result()
        solo_b = engine.execute(QUERY[2:10], min_score=5)
        solo_b.result()

        exec_a = engine.execute(QUERY, min_score=10)
        exec_b = engine.execute(QUERY[2:10], min_score=5)
        iter_a, iter_b = iter(exec_a), iter(exec_b)
        next(iter_a)
        next(iter_b)
        list(iter_a)
        list(iter_b)

        assert exec_a.statistics is not exec_b.statistics
        # The work counters are deterministic, so interleaving must not leak
        # one execution's bookkeeping into the other.
        assert exec_a.statistics.columns_expanded == solo_a.statistics.columns_expanded
        assert exec_b.statistics.columns_expanded == solo_b.statistics.columns_expanded
        assert exec_a.statistics.nodes_expanded == solo_a.statistics.nodes_expanded
        assert exec_b.statistics.nodes_expanded == solo_b.statistics.nodes_expanded
        assert exec_a.statistics.elapsed_seconds > 0
        assert exec_b.statistics.elapsed_seconds > 0

    def test_threaded_generators_match_serial(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=8)
        serial = [list(engine.search_online(q, min_score=8)) for q in queries]

        collected = [None] * len(queries)

        def consume(index, query):
            collected[index] = list(engine.search_online(query, min_score=8))

        threads = [
            threading.Thread(target=consume, args=(i, q)) for i, q in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for expected, got in zip(serial, collected):
            assert [(h.sequence_index, h.score) for h in got] == [
                (h.sequence_index, h.score) for h in expected
            ]

    def test_abandoned_generator_reports_statistics(self, engine):
        execution = engine.execute(QUERY, min_score=10)
        stream = iter(execution)
        first = next(stream)
        stream.close()
        assert first.score >= 10
        # The paper's advertised usage: abort after the top hit.  The finally
        # block must still have finalised the counters.
        assert execution.statistics.elapsed_seconds > 0
        assert execution.statistics.columns_expanded > 0
        assert execution.statistics.nodes_expanded > 0

    def test_result_carries_its_own_statistics(self, engine):
        first = engine.search(QUERY, min_score=10)
        second = engine.search(QUERY[2:10], min_score=5)
        assert first.statistics is not None
        assert second.statistics is not None
        assert first.statistics is not second.statistics
        # The later query must not clobber the earlier result's counters.
        assert first.statistics.columns_expanded == first.columns_expanded
        assert second.statistics.columns_expanded == second.columns_expanded
        assert "statistics" not in first.parameters

    def test_abort_stops_execution(self, engine):
        execution = engine.execute(QUERY, min_score=1)
        execution.abort()
        result = execution.result()
        assert execution.aborted
        assert result.parameters.get("aborted") is True
        assert len(result) == 0

    def test_time_budget_marks_timeout(self, engine):
        execution = engine.execute(QUERY, min_score=1, time_budget=1e-9)
        result = execution.result()
        assert execution.timed_out
        assert result.parameters.get("timed_out") is True

    def test_time_budget_must_be_positive(self, engine):
        with pytest.raises(ValueError):
            engine.execute(QUERY, min_score=1, time_budget=0)


class TestSearchMany:
    def test_matches_serial_loop_in_memory(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=24)
        serial = [engine.search(q, min_score=8) for q in queries]
        report = engine.search_many(queries, workers=4, min_score=8)
        assert isinstance(report, BatchSearchReport)
        assert len(report) == 24
        parallel = report.results()
        assert [hit_tuples(r) for r in parallel] == [hit_tuples(r) for r in serial]

    def test_matches_serial_loop_on_disk(
        self, tmp_path, small_protein_database, pam30_matrix, gap8
    ):
        disk_engine = OasisEngine.build_on_disk(
            small_protein_database,
            matrix=pam30_matrix,
            image_path=tmp_path / "index.oasis",
            gap_model=gap8,
            block_size=512,
            buffer_pool_bytes=4096,
        )
        try:
            queries = standard_workload(small_protein_database, count=24)
            serial = [disk_engine.search(q, min_score=8) for q in queries]
            report = disk_engine.search_many(queries, workers=4, min_score=8)
            parallel = report.results()
            assert [hit_tuples(r) for r in parallel] == [hit_tuples(r) for r in serial]
        finally:
            disk_engine.cursor.close()

    @pytest.mark.parametrize("body", POOL_BODIES)
    @pytest.mark.parametrize("buffer_pool_bytes", [512, 4096, 1 << 20])
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_disk_batch_matches_serial_loop_under_pool_pressure(
        self,
        monkeypatch,
        tmp_path,
        small_protein_database,
        pam30_matrix,
        gap8,
        workers,
        buffer_pool_bytes,
        body,
    ):
        """E-value thresholds over one shared pool, from a single frame up.

        The workers interleave their page requests (and evictions) on the
        one pool: the C body releases the GIL around each read, and on the
        Python body every miss sleeps before it reads, outside the pool lock.
        """
        on_pool_body(monkeypatch, body, miss_sleep=1e-5)
        image = tmp_path / "index.oasis"
        build_disk_image(small_protein_database, image, block_size=512)
        cursor = DiskSuffixTree(image, small_protein_database, buffer_pool_bytes=buffer_pool_bytes)
        # The Python body is the class's method; the C body an instance attribute.
        assert ("page" in vars(cursor.pool)) == (body == "compiled")
        with OasisEngine(cursor, pam30_matrix, gap8) as disk_engine:
            queries = standard_workload(small_protein_database, count=12)
            serial = [disk_engine.search(q, evalue=10.0) for q in queries]
            report = disk_engine.search_many(queries, workers=workers, evalue=10.0)
            assert report.statistics.backend == f"threads:{workers}"
            assert [hit_tuples(r) for r in report.results()] == [
                hit_tuples(r) for r in serial
            ]
            assert any(len(r) for r in serial)
            assert cursor.statistics.misses > 0

    def test_report_aggregates_statistics(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=6)
        report = engine.search_many(queries, workers=2, min_score=8)
        stats = report.statistics
        assert stats.queries == 6
        assert stats.succeeded == 6
        assert stats.failed == 0
        assert stats.workers == 2
        assert stats.wall_seconds > 0
        assert stats.throughput > 0
        assert stats.total_hits == sum(len(r) for r in report.results())
        assert stats.search.columns_expanded == sum(r.columns_expanded for r in report.results())
        assert stats.search == OasisSearchStatistics.merged(
            [r.statistics for r in report.results()], stats.wall_seconds
        )
        assert stats.query_seconds > 0
        summary = report.format_summary()
        assert "6 queries" in summary

    def test_outcomes_keep_input_order(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=12)
        report = engine.search_many(queries, workers=4, min_score=8)
        assert [outcome.query for outcome in report.outcomes] == queries
        assert [query for query, _ in report] == queries

    def test_per_query_failure_is_captured(self, engine):
        report = engine.search_many([QUERY, ""], workers=2, min_score=8)
        assert report.statistics.failed == 1
        failures = report.failures()
        assert len(failures) == 1
        assert failures[0].query == ""
        assert "ValueError" in failures[0].error
        with pytest.raises(ValueError):
            report.results()

    def test_per_query_timeout(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=4)
        report = engine.search_many(queries, workers=2, min_score=1, timeout=1e-9)
        assert report.statistics.timed_out == 4
        # Timed-out queries still return (partial, possibly empty) results.
        assert report.statistics.succeeded == 4

    def test_one_worker_is_the_serial_loop(self, engine, small_protein_database):
        """No pool for a batch of width one: same answers, backend ``serial``."""
        queries = standard_workload(small_protein_database, count=12)
        loop = [hit_tuples(engine.search(q, min_score=8)) for q in queries]
        one = engine.search_many(queries, workers=1, min_score=8)
        two = engine.search_many(queries, workers=2, min_score=8)
        assert one.statistics.backend == "serial" and one.statistics.workers == 1
        assert two.statistics.backend == "threads:2"
        assert [hit_tuples(r) for r in one.results()] == loop
        assert [hit_tuples(r) for r in two.results()] == loop

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_workers_alone_set_the_fan_out(self, engine, small_protein_database, workers):
        spec = "serial" if workers == 1 else f"threads:{workers}"
        queries = standard_workload(small_protein_database, count=4)
        report = engine.search_many(queries, workers=workers, min_score=8)
        assert report.statistics.backend == report.statistics.as_dict()["backend"] == spec
        assert f"{workers} workers, {spec})" in report.format_summary()

    def test_the_default_is_one_worker(self, engine, small_protein_database):
        report = engine.search_many(standard_workload(small_protein_database, count=3), min_score=8)
        assert report.statistics.workers == 1 and report.statistics.backend == "serial"

    def test_serial_loop_honours_the_timeout(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=4)
        report = engine.search_many(queries, workers=1, min_score=1, timeout=1e-9)
        assert report.statistics.backend == "serial"
        assert report.statistics.timed_out == 4
        assert report.statistics.succeeded == 4  # partial hit lists, not errors
        full = [len(engine.search(q, min_score=1)) for q in queries]
        assert all(len(r) <= n for r, n in zip(report.results(), full))
        assert all(r.parameters["timed_out"] for r in report.results())

    def test_rejects_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            engine.search_many([QUERY], workers=0, min_score=8)
        with pytest.raises(ValueError):
            engine.search_many([QUERY], workers=2, timeout=0, min_score=8)
        with pytest.raises(TypeError):
            engine.search_many([QUERY], template=SearchRequest(QUERY, min_score=8), min_score=8)
        assert pool_threads() == []


    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("engine_kind", ["memory", "disk-eighth-pool", "processes:2"])
    def test_every_fan_out_matches_the_serial_search_loop(
        self, tmp_path, small_protein_database, pam30_matrix, gap8, engine_kind, workers
    ):
        """The hits of a batch are the hits of ``search()`` one query at a time,
        whatever the fan-out and whatever the engine under it."""
        if engine_kind == "memory":
            engine = OasisEngine.build(small_protein_database, pam30_matrix, gap8)
        elif engine_kind == "disk-eighth-pool":
            image = tmp_path / "index.oasis"
            build_disk_image(small_protein_database, image, block_size=512)
            pool_bytes = max(512, image.stat().st_size // 8)
            cursor = DiskSuffixTree(image, small_protein_database, buffer_pool_bytes=pool_bytes)
            engine = OasisEngine(cursor, pam30_matrix, gap8)
        else:
            from repro.sharding import ShardedEngine, ShardedIndexBuilder

            ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2, block_size=512).build(
                small_protein_database, tmp_path / "index"
            )
            engine = ShardedEngine.open(tmp_path / "index", backend=engine_kind)
        queries = standard_workload(small_protein_database, count=10)
        with engine:
            loop = [hit_tuples(engine.search(q, evalue=10.0)) for q in queries]
            report = engine.search_many(queries, workers=workers, evalue=10.0)
        assert any(loop)
        assert [hit_tuples(r) for r in report.results()] == loop
        assert pool_threads() == []


def pool_threads():
    return [thread for thread in threading.enumerate() if thread.name.startswith("oasis-batch")]


def fake_result(query):
    from repro.core.results import SearchResult

    return SearchResult(query=query, engine="fake")


class FakeEngine:
    """An engine whose executions run ``run(query)`` instead of a search."""

    def __init__(self, run):
        self.run = run
        self.executed = []

    def search_many(self, queries, **options):
        from repro.parallel import search_many

        return search_many(self, queries, **options)

    def execute(self, request, tracer=None):
        self.executed.append(request)
        return FakeExecution(self.run, request.query)


class FakeExecution:
    def __init__(self, run, query):
        self.run, self.query = run, query
        self.trace_parent = None
        self.aborted = False

    def abort(self):
        self.aborted = True

    def result(self):
        return self.run(self.query)


def counted_result(query):
    """A result whose statistics count the query's length; queries starting
    with ``A`` say they were aborted."""
    from repro.core.results import SearchResult

    statistics = OasisSearchStatistics(
        columns_expanded=len(query), nodes_expanded=1, max_queue_size=len(query)
    )
    parameters = {"aborted": True} if query.startswith("A") else {}
    return SearchResult(query=query, engine="fake", statistics=statistics, parameters=parameters)


class TestTheBatchRecord:
    def test_the_search_record_merges_the_results_statistics(self):
        report = FakeEngine(counted_result).search_many(["AAAA", "CC", "DDD"], min_score=1)
        statistics = report.statistics
        search = statistics.search
        assert (search.columns_expanded, search.nodes_expanded, search.max_queue_size) == (9, 3, 4)
        assert search.elapsed_seconds == statistics.wall_seconds
        assert (statistics.aborted, statistics.succeeded) == (1, 3)
        assert statistics.as_dict()["search"] == search.as_dict()

    def test_an_empty_batch_prints_zeros(self):
        lines = BatchSearchReport.build([], wall_seconds=0.0, workers=1).format_metrics()
        assert {"queries = 0", "columns_expanded = 0", "elapsed_seconds_p99 = 0.000000"} <= set(
            lines.splitlines()
        )

    def test_the_dump_names_the_wall_clock_and_prints_pruning_only_when_counted(self):
        report = FakeEngine(counted_result).search_many(["AAAA", "CC"], min_score=1)
        lines = report.format_metrics().splitlines()
        names = {line.split(" = ")[0] for line in lines}
        assert "wall_seconds" in names and "elapsed_seconds" not in names
        assert not names & set(PRUNING_COUNTERS)

        def pruning_result(query):
            result = counted_result(query)
            result.statistics.pruned_threshold = 2
            return result

        lines = FakeEngine(pruning_result).search_many(["AAAA", "CC"], min_score=1)
        lines = lines.format_metrics().splitlines()
        assert {"pruned_non_positive = 0", "pruned_dominated = 0", "pruned_threshold = 4"} <= set(
            lines
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_interrupted_batch_carries_the_report_of_the_queries_that_finished(
        self, workers
    ):
        def run(query):
            if query == "DDD":
                raise KeyboardInterrupt
            return counted_result(query)

        with pytest.raises(KeyboardInterrupt) as raised:
            FakeEngine(run).search_many(["AAAA", "CC", "DDD", "EE"], workers=workers, min_score=1)
        report = raised.value.batch_report
        assert [outcome.query for outcome in report.outcomes] == ["AAAA", "CC"]
        assert report.statistics.search.columns_expanded == 6
        assert "queries = 2" in report.format_metrics().splitlines()

    @pytest.mark.parametrize("values", [[0.5], [3.0, 1.0], [0.1, 0.4, 0.2, 0.9, 0.3]])
    @pytest.mark.parametrize("percent", [0, 50, 90, 99, 100])
    def test_percentile_is_linear_interpolation_between_ranks(self, values, percent):
        expected = float(np.percentile(values, percent))
        assert percentile(sorted(values), percent) == pytest.approx(expected, rel=1e-12)


class TestTheBatchPool:
    """A batch owns its thread pool: one per run, gone when the run ends."""

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_a_run_leaves_no_pool_thread_behind(self, engine, small_protein_database, workers):
        queries = standard_workload(small_protein_database, count=6)
        report = engine.search_many(queries, workers=workers, min_score=8)
        assert report.statistics.succeeded == len(queries)
        assert pool_threads() == []

    def test_one_worker_runs_every_query_on_the_calling_thread(self):
        ran = []

        def run(query):
            ran.append(threading.current_thread())
            return fake_result(query)

        report = FakeEngine(run).search_many(["A", "C", "D"], workers=1, min_score=1)
        assert report.statistics.succeeded == 3
        assert ran == [threading.current_thread()] * 3

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_queries_run_on_at_most_workers_pool_threads(self, workers):
        names = []

        def run(query):
            names.append(threading.current_thread().name)
            time.sleep(0.001)
            return fake_result(query)

        report = FakeEngine(run).search_many(["A"] * 12, workers=workers, min_score=1)
        assert report.statistics.succeeded == 12
        assert all(name.startswith("oasis-batch") for name in names)
        assert 1 <= len(set(names)) <= workers

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_query_is_one_request_off_the_template(self, workers):
        fake = FakeEngine(fake_result)
        queries = [f"Q{index}" for index in range(9)]
        report = fake.search_many(queries, workers=workers, evalue=5.0, max_results=3, timeout=2.0)
        assert [outcome.query for outcome in report.outcomes] == queries
        assert sorted(request.query for request in fake.executed) == queries
        assert {
            (request.evalue, request.max_results, request.time_budget)
            for request in fake.executed
        } == {(5.0, 3, 2.0)}

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_query_that_raises_is_one_failed_outcome(self, workers):
        def run(query):
            if query == "BAD":
                raise ValueError("bad query")
            return fake_result(query)

        report = FakeEngine(run).search_many(["A", "BAD", "C", "D"], workers=workers, min_score=1)
        assert report.statistics.failed == 1 and report.statistics.succeeded == 3
        assert [outcome.query for outcome in report.outcomes] == ["A", "BAD", "C", "D"]
        assert report.outcomes[1].error == "ValueError: bad query"
        assert report.outcomes[1].result is None and not report.outcomes[1].ok
        with pytest.raises(ValueError, match="bad query"):
            report.results()
        assert pool_threads() == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_run_that_finishes_aborts_nothing(self, workers):
        fake = FakeEngine(fake_result)
        executions = []
        execute = fake.execute

        def recording_execute(request, tracer=None):
            executions.append(execute(request, tracer=tracer))
            return executions[-1]

        fake.execute = recording_execute
        report = fake.search_many(list("ACDEFG"), workers=workers, min_score=1)
        assert report.statistics.succeeded == 6
        assert len(executions) == 6 and not any(e.aborted for e in executions)


class TestAnInterruptedBatch:
    """The calling thread leaves early: in-flight queries abort, and the batch
    leaves no pool thread and no open span behind."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_an_interrupt_aborts_in_flight_queries_and_closes_every_span(
        self, engine, monkeypatch, small_protein_database, workers
    ):
        from repro.obs import Recording, Tracer
        from repro.obs.recording import validate

        boom = "WKDDG"
        # The queries after the first: each holds a pool thread in its first
        # cursor call until the batch aborts it.
        queries = [boom] + standard_workload(small_protein_database, count=2 * workers)
        in_flight, released = threading.Event(), threading.Event()
        siblings = engine.cursor.siblings

        def held_siblings(node):
            in_flight.set()
            if not released.wait(30):
                released.set()  # no abort came: let the batch finish (and fail below)
            return siblings(node)

        # No record arrays for the compiled kernel: every node is read
        # through siblings(), which holds.
        monkeypatch.setattr(engine.cursor, "node_records", None)
        monkeypatch.setattr(engine.cursor, "siblings", held_siblings)
        execute = engine.execute
        aborted = []

        def interrupting_execute(request, tracer=None):
            if request.query == boom:
                assert in_flight.wait(30)
                raise KeyboardInterrupt
            execution = execute(request, tracer=tracer)
            abort = execution.abort

            def abort_and_release():
                aborted.append(execution)
                abort()
                released.set()

            execution.abort = abort_and_release
            return execution

        monkeypatch.setattr(engine, "execute", interrupting_execute)
        tracer = Tracer()
        with pytest.raises(KeyboardInterrupt):
            engine.search_many(queries, workers=workers, min_score=1, tracer=tracer)

        assert pool_threads() == []
        assert tracer.active_spans() == {}
        records = tracer.records()
        assert validate(Recording.of(records, reason="test")) == []
        (batch,) = [record for record in records if record.name == "batch"]
        assert batch.attributes["abandoned"] is True
        assert batch.attributes["completed"] == 0
        queries_run = [record for record in records if record.name == "query"]
        assert 1 <= len(aborted) == len(queries_run)
        assert all(query.parent_id == batch.span_id for query in queries_run)
        assert all(query.attributes.get("aborted") is True for query in queries_run)
        assert all(execution.aborted for execution in aborted)
