"""Statistics/metrics consistency across scatter backends, timeouts, aborts.

The invariant under test: however a query's work is distributed (serial,
thread or process scatter), every shard-level execution that actually ran
is counted exactly once -- the merged ``SearchResult.statistics``, the
tracer's metric counters, and the recorded shard spans must all agree, with
no double counting when worker snapshots merge back and no phantom counts
from queries an abort skipped.  Timed-out and aborted shards must be
flagged in the per-shard rows on every backend.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.engine import OasisEngine
from repro.core.oasis import STATISTICS_METRICS, OasisSearchStatistics
from repro.obs import Recording, Tracer
from repro.obs.recording import validate
from repro.parallel import BatchSearchExecutor
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from support import random_protein



def validate_trace(records):
    """Problems of ``records`` taken as one finished run's complete trace."""
    return validate(Recording.of(records, reason="test"))


SHARDS = 4
BACKENDS = ("serial", "processes:2")
#: Executions (and shard spans) per query: the serial scatter searches the
#: whole tree once, a process scatter each partition of the index.
EXECUTIONS = {"serial": 1, "processes:2": SHARDS}
QUERY = "WKDDGNGYISAAE"
MIN_SCORE = 40


def _database() -> SequenceDatabase:
    rng = random.Random(99)
    texts = []
    for _ in range(8):
        prefix = random_protein(rng, rng.randint(10, 40))
        suffix = random_protein(rng, rng.randint(10, 40))
        texts.append(prefix + QUERY + suffix)
    for _ in range(4):
        texts.append(random_protein(rng, rng.randint(20, 80)))
    return SequenceDatabase.from_texts(
        texts, alphabet=PROTEIN_ALPHABET, name="consistency-proteins"
    )


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("consistency") / "index"
    ShardedIndexBuilder(pam30(), FixedGapModel(-8), shard_count=SHARDS).build(
        _database(), directory
    )
    return str(directory)


def _traced_search(index_dir, backend, **execute_kwargs):
    tracer = Tracer()
    with ShardedEngine.open(index_dir, backend=backend) as engine:
        engine.instrument(tracer)
        result = engine.execute(QUERY, tracer=tracer, **execute_kwargs).result()
    return result, tracer


@pytest.mark.parametrize("backend", BACKENDS)
def test_metrics_agree_with_statistics(index_dir, backend):
    result, tracer = _traced_search(index_dir, backend, min_score=MIN_SCORE)
    statistics = result.statistics
    metrics = tracer.metrics

    # One count per execution, regardless of where it ran; every statistics
    # field has a row in the table, so a new one cannot lack a metric.
    executions = EXECUTIONS[backend]
    assert metrics.counter("search.queries").value == executions
    numeric = {
        field.name
        for field in dataclasses.fields(OasisSearchStatistics)
        if isinstance(field.default, (int, float))
    }
    # The pool feeds its own three counters (one query per shard pool here,
    # so the per-query deltas are exact).
    pool_fed = {
        "buffer_hits": "pool.hits",
        "buffer_misses": "pool.misses",
        "buffer_evictions": "pool.evictions",
    }
    assert {row[1] for row in STATISTICS_METRICS} | set(pool_fed) == numeric
    for field_name, name in pool_fed.items():
        assert metrics.counter(name).value == getattr(statistics, field_name), name
    for name, field_name, _description in STATISTICS_METRICS:
        expected = getattr(statistics, field_name)
        if field_name == "max_queue_size":
            # The high-water mark: a worker snapshot merges its level last-wins.
            assert metrics.gauge(name).max_value == expected
        elif field_name == "elapsed_seconds":
            assert metrics.histogram(name).count == executions
        else:
            assert metrics.counter(name).value == expected, name
    # Without max_results every hit the serial search emits is in the
    # result; a sequence may score in several partitions of a process
    # scatter, whose merge keeps one hit of each.
    emitted = metrics.counter("search.hits").value
    assert emitted == len(result) if backend == "serial" else emitted > len(result)
    assert metrics.counter("search.timeouts").value == 0
    assert metrics.counter("search.aborts").value == 0

    # Exactly one span per execution, and the trace is coherent.
    records = tracer.records()
    assert validate_trace(records) == []
    shard_spans = [record for record in records if record.name == "shard"]
    assert len(shard_spans) == executions
    assert sum(span.attributes["nodes_expanded"] for span in shard_spans) == (
        statistics.nodes_expanded
    )

    # The per-shard rows sum to the merged statistics (and none is flagged).
    rows = result.parameters["shard_stats"]
    assert len(rows) == executions
    assert sum(row["nodes_expanded"] for row in rows) == statistics.nodes_expanded
    assert sum(row["hits"] for row in rows) == len(result)
    assert not any(row["timed_out"] or row["aborted"] for row in rows)


def test_every_statistics_field_is_reported_and_merged():
    """A counter added to the dataclass cannot be forgotten downstream.

    ``as_dict`` and the sharded merge are derived from the dataclass fields;
    a new field that is neither an integer counter (summed) nor one of the
    three named exceptions has no merge rule and must fail here, not vanish
    from every sharded result.
    """
    names = [field.name for field in dataclasses.fields(OasisSearchStatistics)]
    parts = []
    for offset in (1, 100):
        part = OasisSearchStatistics(kernel=f"kernel-{offset}")
        for position, name in enumerate(names):
            if name != "kernel":
                value = offset + position
                setattr(part, name, value / 8 if name == "elapsed_seconds" else value)
        parts.append(part)

    for part in parts:
        assert part.as_dict() == {name: getattr(part, name) for name in names}

    merged = OasisSearchStatistics.merged(parts, elapsed_seconds=0.75)
    special = {
        "max_queue_size": max(part.max_queue_size for part in parts),
        "elapsed_seconds": 0.75,
        "kernel": "kernel-1",
    }
    for name in names:
        if name in special:
            expected = special[name]
        else:
            expected = sum(getattr(part, name) for part in parts)
        assert getattr(merged, name) == expected, f"{name} is not merged"
    assert OasisSearchStatistics.merged([], 0.0) == OasisSearchStatistics()


def test_work_counters_identical_across_backends(index_dir):
    """The search is deterministic, so the totals must match bit for bit.

    Only the root is counted once per execution: each partition of a process
    scatter pops and expands it, over its own children.
    """
    totals = {}
    for backend in BACKENDS:
        result, tracer = _traced_search(index_dir, backend, min_score=MIN_SCORE)
        statistics = result.statistics
        assert tracer.metrics.counter("search.queries").value == EXECUTIONS[backend]
        assert tracer.metrics.counter("search.nodes_expanded").value == statistics.nodes_expanded
        totals[backend] = {
            "hits": len(result),
            "nodes_expanded_below_the_root": statistics.nodes_expanded - EXECUTIONS[backend],
            "columns_expanded": statistics.columns_expanded,
            "buffer_misses": statistics.buffer_misses,
        }
    reference = totals[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert totals[backend] == reference, (
            f"{backend} disagrees with {BACKENDS[0]}: "
            f"{totals[backend]} != {reference}"
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_timeout_flags_shards_without_double_counts(index_dir, backend):
    result, tracer = _traced_search(
        index_dir, backend, min_score=MIN_SCORE, time_budget=1e-6
    )
    assert result.parameters.get("timed_out") is True
    rows = result.parameters["shard_stats"]
    assert all(row["timed_out"] for row in rows)

    # Every execution that ran was timed out, and each was counted once.
    # (A process worker whose task expired in the queue never starts the
    # execution; it then contributes neither a query count nor a timeout,
    # keeping the two counters equal on every backend.)
    metrics = tracer.metrics
    ran = metrics.counter("search.queries").value
    assert metrics.counter("search.timeouts").value == ran
    shard_spans = [r for r in tracer.records() if r.name == "shard"]
    assert len(shard_spans) == ran
    assert all(span.attributes.get("timed_out") for span in shard_spans)
    assert validate_trace(tracer.records()) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_abort_skips_cleanly(index_dir, backend):
    """Aborting after the first query: the rest are skipped, never counted."""
    tracer = Tracer()
    with ShardedEngine.open(index_dir, backend=backend) as engine:
        engine.instrument(tracer)
        executor = BatchSearchExecutor.for_engine(
            engine, workers=1, min_score=MIN_SCORE, tracer=tracer
        )

        original = executor._run_query

        def abort_after_first(query, budget, cancel, trace_parent=None):
            result = original(query, budget, cancel, trace_parent=trace_parent)
            executor.abort()
            return result

        abort_after_first.accepts_trace_parent = True
        executor._run_query = abort_after_first
        report = executor.run([QUERY, QUERY, QUERY])

    assert report.statistics.succeeded == 1
    assert report.statistics.aborted == 2
    assert report.outcomes[0].ok
    assert all(
        outcome.aborted and outcome.result is None
        for outcome in report.outcomes[1:]
    )

    # Only the query that ran left any trace: one query span, one span and
    # one count per execution, nothing from the two skipped queries.
    metrics = tracer.metrics
    assert metrics.counter("search.queries").value == EXECUTIONS[backend]
    assert metrics.counter("search.aborts").value == 0
    records = tracer.records()
    assert validate_trace(records) == []
    assert len([r for r in records if r.name == "query"]) == 1
    assert len([r for r in records if r.name == "shard"]) == EXECUTIONS[backend]
    assert len([r for r in records if r.name == "batch"]) == 1


def test_cooperative_abort_counts_the_interrupted_query_once(
    small_protein_database, pam30_matrix, gap8
):
    """A started-then-aborted execution is one query, one abort, one span."""
    engine = OasisEngine.build(
        small_protein_database, matrix=pam30_matrix, gap_model=gap8
    )
    tracer = Tracer()
    execution = engine.execute(QUERY, min_score=MIN_SCORE, tracer=tracer)
    stream = iter(execution)
    next(stream)  # the planted motif guarantees at least one hit
    execution.abort()
    remaining = list(stream)
    result = execution.result()

    assert result.parameters.get("aborted") is True
    assert len(result) == 1 + len(remaining)
    metrics = tracer.metrics
    assert metrics.counter("search.queries").value == 1
    assert metrics.counter("search.aborts").value == 1
    (record,) = tracer.records()
    assert record.name == "query"
    assert record.attributes.get("aborted") is True


def test_repeated_traced_passes_count_every_search_once(
    small_protein_database, pam30_matrix, gap8
):
    """One tracer over several passes: one span and one count per search."""
    engine = OasisEngine.build(
        small_protein_database, matrix=pam30_matrix, gap_model=gap8
    )
    queries = [QUERY, QUERY[:8], "MKVLAADTG"]
    passes = 3
    tracer = Tracer()
    engine.instrument(tracer)
    nodes_expanded = 0
    for _ in range(passes):
        for query in queries:
            result = engine.search(query, min_score=20, tracer=tracer)
            nodes_expanded += result.statistics.nodes_expanded
    engine.instrument(None)

    records = tracer.records()
    assert [record.name for record in records] == ["query"] * (passes * len(queries))
    assert validate_trace(records) == []
    metrics = tracer.metrics
    assert metrics.counter("search.queries").value == passes * len(queries)
    assert metrics.counter("search.nodes_expanded").value == nodes_expanded


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_traced_sharded_passes_count_every_shard_search_once(index_dir, backend):
    """Worker snapshots merge back once per search, however many passes run."""
    queries = [QUERY, QUERY[:8], "MKVLAADTG"]
    passes = 3
    searches = passes * len(queries)
    tracer = Tracer()
    nodes_expanded = 0
    with ShardedEngine.open(index_dir, backend=backend) as engine:
        engine.instrument(tracer)
        for _ in range(passes):
            for query in queries:
                result = engine.search(query, min_score=20, tracer=tracer)
                nodes_expanded += result.statistics.nodes_expanded

    records = tracer.records()
    assert validate_trace(records) == []
    assert sum(record.name == "query" for record in records) == searches
    assert sum(record.name == "shard" for record in records) == searches * EXECUTIONS[backend]
    metrics = tracer.metrics
    assert metrics.counter("search.queries").value == searches * EXECUTIONS[backend]
    assert metrics.counter("search.nodes_expanded").value == nodes_expanded
