"""Tests for reentrant query executions and the concurrent batch subsystem.

Covers the guarantees the serving layer depends on:

* interleaved / concurrent ``search_online`` generators produce independent,
  correct hit streams and statistics over one shared cursor;
* an early-aborted generator still reports the work it actually did;
* ``search_many`` returns results identical to the serial loop, on both the
  in-memory and the disk-resident index;
* per-query timeouts and batch-wide abort stop work cooperatively -- also
  when a batch of width one runs as the plain serial loop.
"""

import threading
import time

import pytest

from repro.core.engine import OasisEngine
from repro.parallel import BatchSearchExecutor, BatchSearchReport
from repro.storage.buffer_pool import BufferPool
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree

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
    ):
        """E-value thresholds over one shared pool, from a single frame up.

        Every miss sleeps before it reads (outside the pool lock, releasing
        the GIL), so the workers really do interleave their page requests
        (and evictions) on the one pool.
        """
        read_physical = BufferPool._read_physical

        def slow_read(pool, block):
            time.sleep(1e-5)
            return read_physical(pool, block)

        monkeypatch.setattr(BufferPool, "_read_physical", slow_read)
        image = tmp_path / "index.oasis"
        build_disk_image(small_protein_database, image, block_size=512)
        cursor = DiskSuffixTree(image, small_protein_database, buffer_pool_bytes=buffer_pool_bytes)
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
        assert stats.columns_expanded == sum(r.columns_expanded for r in report.results())
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
        executor = BatchSearchExecutor.for_engine(engine, workers=workers, min_score=8)
        assert executor.backend_spec == spec
        report = executor.run(standard_workload(small_protein_database, count=4))
        assert report.statistics.backend == report.statistics.as_dict()["backend"] == spec
        assert f"{workers} workers, {spec})" in report.format_summary()

    def test_serial_loop_honours_the_timeout(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=4)
        report = engine.search_many(queries, workers=1, min_score=1, timeout=1e-9)
        assert report.statistics.backend == "serial"
        assert report.statistics.timed_out == 4
        assert report.statistics.succeeded == 4  # partial hit lists, not errors
        full = [len(engine.search(q, min_score=1)) for q in queries]
        assert all(len(r) <= n for r, n in zip(report.results(), full))
        assert all(r.parameters["timed_out"] for r in report.results())

    def test_serial_loop_is_aborted_from_another_thread(self, engine, small_protein_database):
        """abort() mid-batch: the in-flight query stops at its next queue pop
        (it keeps what it has), the queries behind it never start."""
        queries = standard_workload(small_protein_database, count=5)
        executor = BatchSearchExecutor.for_engine(engine, workers=1, min_score=1)
        assert executor.backend_spec == "serial"
        original = executor._run_query
        in_flight, abort_issued = threading.Event(), threading.Event()

        def held_in_flight(query, budget, cancel, trace_parent):
            in_flight.set()
            assert abort_issued.wait(timeout=30)
            return original(query, budget, cancel, trace_parent)

        def abort_once_running():
            assert in_flight.wait(timeout=30)
            executor.abort()
            abort_issued.set()

        executor._run_query = held_in_flight
        aborter = threading.Thread(target=abort_once_running)
        aborter.start()
        report = executor.run(queries)
        aborter.join(timeout=30)
        assert not aborter.is_alive()

        first, rest = report.outcomes[0], report.outcomes[1:]
        assert first.aborted and first.result is not None
        assert first.result.parameters["aborted"] is True
        assert len(first.result) < len(engine.search(queries[0], min_score=1))
        assert first.result.statistics.nodes_expanded == 0  # stopped at the first pop
        assert all(outcome.aborted and outcome.result is None for outcome in rest)
        assert report.statistics.aborted == 5

    def test_streaming_map_yields_all_pairs(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=8)
        executor = BatchSearchExecutor.for_engine(engine, workers=4, min_score=8)
        pairs = dict(executor.map(queries))
        assert set(pairs) == set(queries)
        for query, result in pairs.items():
            assert hit_tuples(result) == hit_tuples(engine.search(query, min_score=8))

    def test_abandoning_the_stream_aborts_the_batch(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=16)
        executor = BatchSearchExecutor.for_engine(engine, workers=2, min_score=8)
        stream = executor.map(queries)
        next(stream)
        stream.close()  # must not deadlock or run the remaining 15 to completion

    def test_rejects_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            BatchSearchExecutor.for_engine(engine, workers=0, min_score=8)
        with pytest.raises(ValueError):
            BatchSearchExecutor.for_engine(engine, workers=2, timeout=0, min_score=8)

    def test_abort_before_run_skips_every_query(self, engine, small_protein_database):
        queries = standard_workload(small_protein_database, count=6)
        executor = BatchSearchExecutor.for_engine(engine, workers=2, min_score=8)
        executor.abort()
        report = executor.run(queries)
        assert report.statistics.aborted == 6
        assert all(outcome.result is None for outcome in report.outcomes)
        # Skipped queries must surface as errors, never as None holes.
        with pytest.raises(RuntimeError):
            report.results()
        assert all("aborted" in outcome.error for outcome in report.outcomes)



def pool_threads():
    return [thread for thread in threading.enumerate() if thread.name.startswith("oasis-batch")]


def fake_result(query):
    from repro.core.results import SearchResult

    return SearchResult(query=query, engine="fake")


class TestTheBatchPool:
    """The executor owns its thread pool: one per run, gone when the run ends."""

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_a_run_leaves_no_pool_thread_behind(self, engine, small_protein_database, workers):
        queries = standard_workload(small_protein_database, count=6)
        report = engine.search_many(queries, workers=workers, min_score=8)
        assert report.statistics.succeeded == len(queries)
        assert pool_threads() == []

    def test_one_worker_runs_every_query_on_the_calling_thread(self):
        ran = []

        def run_query(query, budget, cancel, trace_parent):
            ran.append(threading.current_thread())
            return fake_result(query)

        report = BatchSearchExecutor(run_query, workers=1).run(["A", "C", "D"])
        assert report.statistics.succeeded == 3
        assert ran == [threading.current_thread()] * 3

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_queries_run_on_at_most_workers_pool_threads(self, workers):
        names = []

        def run_query(query, budget, cancel, trace_parent):
            names.append(threading.current_thread().name)
            time.sleep(0.001)
            return fake_result(query)

        report = BatchSearchExecutor(run_query, workers=workers).run(["A"] * 12)
        assert report.statistics.succeeded == 12
        assert all(name.startswith("oasis-batch") for name in names)
        assert 1 <= len(set(names)) <= workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nothing_runs_until_the_stream_is_pulled(self, workers):
        ran = []

        def run_query(query, budget, cancel, trace_parent):
            ran.append(query)
            return fake_result(query)

        stream = BatchSearchExecutor(run_query, workers=workers).run_iter(["A", "C"])
        assert ran == [] and pool_threads() == []
        assert len(list(stream)) == 2
        assert sorted(ran) == ["A", "C"]

    def test_the_loop_runs_one_query_per_pull(self):
        ran = []

        def run_query(query, budget, cancel, trace_parent):
            ran.append(query)
            return fake_result(query)

        stream = BatchSearchExecutor(run_query, workers=1).run_iter(list("ACDEF"))
        next(stream), next(stream)
        stream.close()
        assert ran == ["A", "C"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_abandoning_a_pooled_stream_cancels_the_unstarted_queries(self, workers):
        release = threading.Event()
        started = []

        def run_query(query, budget, cancel, trace_parent):
            started.append(query)
            if len(started) > 1:
                # Held until the stream is abandoned: its cancel event is set.
                assert cancel.wait(10)
                release.set()
            return fake_result(query)

        queries = [f"Q{index}" for index in range(40)]
        stream = BatchSearchExecutor(run_query, workers=workers).run_iter(queries)
        next(stream)
        stream.close()
        assert release.is_set()
        assert len(started) <= 2 * workers < len(queries)
        assert pool_threads() == []

    @pytest.mark.parametrize("workers", [2, 4])
    def test_an_abandoned_pooled_stream_drains_the_queue_gauge(self, workers):
        from repro.obs.trace import Tracer

        def run_query(query, budget, cancel, trace_parent):
            if query != "Q0":
                cancel.wait(10)
            return fake_result(query)

        tracer = Tracer()
        queries = [f"Q{index}" for index in range(30)]
        stream = BatchSearchExecutor(run_query, workers=workers, tracer=tracer).run_iter(queries)
        next(stream)
        stream.close()
        spec = f"threads:{workers}"
        depth = tracer.metrics.get(f"exec.queue_depth[{spec}]")
        latency = tracer.metrics.get(f"exec.task_seconds[{spec}]")
        # Every query but the fast first one was in flight at the peak.
        assert depth.value == 0 and depth.max_value >= len(queries) - 1
        # Only the queries that ran are timed; the cancelled ones are not.
        assert 1 <= latency.count < len(queries)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_query_that_raises_is_one_failed_outcome(self, workers):
        def run_query(query, budget, cancel, trace_parent):
            if query == "BAD":
                raise ValueError("bad query")
            return fake_result(query)

        report = BatchSearchExecutor(run_query, workers=workers).run(["A", "BAD", "C", "D"])
        assert report.statistics.failed == 1 and report.statistics.succeeded == 3
        assert report.outcomes[1].error == "ValueError: bad query"
        assert pool_threads() == []
