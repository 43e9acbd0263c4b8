"""Statistics consistency across scatter backends, timeouts, aborts, and ``--metrics``.

The invariant under test: however a query's work is distributed (serial or
process scatter, one or two batch threads), every shard-level execution that
actually ran is counted exactly once -- the merged ``SearchResult.statistics``,
the per-shard rows and the recorded shard spans must all agree, with no double
counting when worker results merge back and no phantom counts from queries an
interrupted batch skipped.  Timed-out and aborted shards must be flagged in
the per-shard rows on every backend.

``search --metrics`` prints those same numbers: the batch's merged
statistics, its query counts, exact latency percentiles and, for an index
searched in the calling process, the pool's own count change.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro import cli
from repro.core.engine import OasisEngine
from repro.core.oasis import OasisSearchStatistics
from repro.obs import Recording, Tracer
from repro.obs.recording import validate
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
#: A pool smaller than the image: the tree is searched through its pages.
TIGHT_POOL_BYTES = 2048
#: Integer counters of the statistics record.
COUNTERS = [
    field.name
    for field in dataclasses.fields(OasisSearchStatistics)
    if isinstance(field.default, int)
]


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
        execution = engine.execute(QUERY, tracer=tracer, **execute_kwargs)
        result = execution.result()
    return result, tracer, execution


def _spans(tracer, name):
    return [record for record in tracer.records() if record.name == name]


def _span_sum(spans, attribute):
    return sum(span.attributes[attribute] for span in spans)


@pytest.mark.parametrize("backend", BACKENDS)
def test_spans_and_rows_agree_with_statistics(index_dir, backend):
    result, tracer, execution = _traced_search(index_dir, backend, min_score=MIN_SCORE)
    statistics = result.statistics

    # The query's statistics are its shard results', merged once.
    executions = EXECUTIONS[backend]
    parts = [shard.statistics for shard in execution.shard_results]
    assert len(parts) == executions
    assert statistics == OasisSearchStatistics.merged(parts, statistics.elapsed_seconds)

    # Exactly one span per execution, carrying that execution's counters,
    # and the trace is coherent.
    assert validate_trace(tracer.records()) == []
    shard_spans = _spans(tracer, "shard")
    assert len(shard_spans) == executions
    for name in ("nodes_expanded", "columns_expanded"):
        assert _span_sum(shard_spans, name) == getattr(statistics, name), name
    # Without max_results every hit the serial search emits is in the
    # result; a sequence may score in several partitions of a process
    # scatter, whose merge keeps one hit of each.
    emitted = _span_sum(shard_spans, "hits")
    assert emitted == len(result) if backend == "serial" else emitted > len(result)
    assert not any(
        span.attributes.get("timed_out") or span.attributes.get("aborted") for span in shard_spans
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
        result, tracer, _execution = _traced_search(index_dir, backend, min_score=MIN_SCORE)
        statistics = result.statistics
        shard_spans = _spans(tracer, "shard")
        assert len(shard_spans) == EXECUTIONS[backend]
        assert _span_sum(shard_spans, "nodes_expanded") == statistics.nodes_expanded
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
    result, tracer, _execution = _traced_search(
        index_dir, backend, min_score=MIN_SCORE, time_budget=1e-6
    )
    assert result.parameters.get("timed_out") is True
    rows = result.parameters["shard_stats"]
    assert all(row["timed_out"] for row in rows)

    # Every execution that ran was timed out, and each was counted once.
    # (A process worker whose task expired in the queue never starts the
    # execution; it then leaves neither a span nor a count.)
    ran = _spans(tracer, "shard")
    assert len(ran) <= EXECUTIONS[backend]
    assert all(span.attributes.get("timed_out") for span in ran)
    assert _span_sum(ran, "nodes_expanded") == result.statistics.nodes_expanded
    assert _span_sum(ran, "columns_expanded") == result.statistics.columns_expanded
    assert validate_trace(tracer.records()) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_abort_skips_cleanly(index_dir, backend, monkeypatch):
    """A batch interrupted after its first query: the rest never run, never count."""
    tracer = Tracer()
    with ShardedEngine.open(index_dir, backend=backend) as engine:
        once = engine.search(QUERY, min_score=MIN_SCORE).statistics
        execute = engine.execute
        calls = []

        def interrupt_after_first(request, tracer=None):
            calls.append(request.query)
            if len(calls) > 1:
                raise KeyboardInterrupt
            return execute(request, tracer=tracer)

        monkeypatch.setattr(engine, "execute", interrupt_after_first)
        with pytest.raises(KeyboardInterrupt):
            engine.search_many([QUERY, QUERY, QUERY], workers=1, min_score=MIN_SCORE, tracer=tracer)

    assert len(calls) == 2

    # Only the query that ran left any trace: one query span, one span per
    # execution holding one search's counts, nothing from the two skipped
    # queries.
    records = tracer.records()
    assert validate_trace(records) == []
    assert len([r for r in records if r.name == "query"]) == 1
    shard_spans = _spans(tracer, "shard")
    assert len(shard_spans) == EXECUTIONS[backend]
    assert _span_sum(shard_spans, "nodes_expanded") == once.nodes_expanded
    assert not any(span.attributes.get("aborted") for span in shard_spans)
    (batch,) = [r for r in records if r.name == "batch"]
    assert batch.attributes["completed"] == 1 and batch.attributes["abandoned"] is True


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
    (record,) = tracer.records()
    assert record.name == "query"
    assert record.attributes.get("aborted") is True
    assert record.attributes["nodes_expanded"] == result.statistics.nodes_expanded
    assert record.attributes["hits"] == len(result)


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
    nodes_expanded = 0
    for _ in range(passes):
        for query in queries:
            result = engine.search(query, min_score=20, tracer=tracer)
            nodes_expanded += result.statistics.nodes_expanded

    records = tracer.records()
    assert [record.name for record in records] == ["query"] * (passes * len(queries))
    assert validate_trace(records) == []
    assert _span_sum(records, "nodes_expanded") == nodes_expanded


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_traced_sharded_passes_count_every_shard_search_once(index_dir, backend):
    """Worker spans come back once per search, however many passes run."""
    queries = [QUERY, QUERY[:8], "MKVLAADTG"]
    passes = 3
    searches = passes * len(queries)
    tracer = Tracer()
    nodes_expanded = 0
    with ShardedEngine.open(index_dir, backend=backend) as engine:
        for _ in range(passes):
            for query in queries:
                result = engine.search(query, min_score=20, tracer=tracer)
                nodes_expanded += result.statistics.nodes_expanded

    records = tracer.records()
    assert validate_trace(records) == []
    assert sum(record.name == "query" for record in records) == searches
    shard_spans = _spans(tracer, "shard")
    assert len(shard_spans) == searches * EXECUTIONS[backend]
    assert _span_sum(shard_spans, "nodes_expanded") == nodes_expanded


# --------------------------------------------------------------------- #
# search --metrics: the batch's own statistics
# --------------------------------------------------------------------- #
#: Five queries (one of them not protein, so one outcome fails): enough for
#: the percentiles to fall between ranks.
BATCH = [QUERY, QUERY[:8], "MKVLAADTG", "WKDD#GNG", QUERY[3:]]


def _dump(text):
    """``{name: value}`` of a ``--metrics`` dump's ``name = value`` lines."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _summed(report):
    """What every count of the dump must be: the sum over the batch's results."""
    statistics = [outcome.result.statistics for outcome in report.outcomes if outcome.ok]
    expected = {name: sum(getattr(part, name) for part in statistics) for name in COUNTERS}
    expected["max_queue_size"] = max(part.max_queue_size for part in statistics)
    expected.update(
        queries=len(report.outcomes),
        hits=sum(len(outcome.result) for outcome in report.outcomes if outcome.ok),
        timed_out=sum(outcome.timed_out for outcome in report.outcomes),
        aborted=0,
        failed=sum(not outcome.ok for outcome in report.outcomes),
    )
    return expected


def _cli_dump(index_dir, tmp_path, capsys, *extra):
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(BATCH) + "\n")
    search = ["search", "--index", index_dir, "--queries", str(queries), "--min-score", "20"]
    assert cli.main([*search, "--metrics", *extra]) == 1  # one query fails
    captured = capsys.readouterr()
    assert "--- metrics ---" in captured.err.splitlines()
    return _dump(captured.err), captured.out


class TestTheMetricsDump:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_count_is_the_sum_of_the_results(self, index_dir, backend):
        with ShardedEngine.open(
            index_dir, backend=backend, buffer_pool_bytes=TIGHT_POOL_BYTES
        ) as engine:
            report = engine.search_many(BATCH, min_score=20)
        dump = _dump(report.format_metrics())
        expected = _summed(report)
        assert expected["buffer_misses"] > 0 and expected["failed"] == 1
        assert {name: int(dump[name]) for name in expected} == expected
        assert dump["kernel"] == engine.tree_engine.kernel

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_cli_prints_the_counts_a_library_batch_sums(
        self, index_dir, backend, tmp_path, capsys
    ):
        dump, out = _cli_dump(index_dir, tmp_path, capsys, "--backend", backend)
        with ShardedEngine.open(index_dir, backend=backend) as engine:
            expected = _summed(engine.search_many(BATCH, min_score=20))
        assert {name: int(dump[name]) for name in expected} == expected
        assert f"{dump['columns_expanded']} DP columns expanded" in out
        assert not [name for name in dump if name.startswith(("search.", "pool.", "process."))]

    def test_the_percentiles_are_exact(self, index_dir):
        with ShardedEngine.open(index_dir) as engine:
            report = engine.search_many(BATCH, min_score=20)
        dump = _dump(report.format_metrics())
        elapsed = [outcome.elapsed_seconds for outcome in report.outcomes]
        for percent in (50, 90, 99):
            exact = float(np.percentile(elapsed, percent))
            assert float(dump[f"elapsed_seconds_p{percent}"]) == pytest.approx(exact, abs=1e-6)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_tight_pool_prints_its_own_count_change(
        self, index_dir, workers, tmp_path, capsys, monkeypatch
    ):
        opened = []

        def open_tight(args):
            engine = ShardedEngine.open(args.index, buffer_pool_bytes=TIGHT_POOL_BYTES)
            statistics = engine.tree_engine.cursor.pool.statistics
            opened.append((statistics, (statistics.hits, statistics.misses, statistics.evictions)))
            return engine

        monkeypatch.setattr(cli, "_build_search_engine", open_tight)
        dump, _out = _cli_dump(index_dir, tmp_path, capsys, "--workers", str(workers))
        ((statistics, start),) = opened
        change = (
            statistics.hits - start[0],
            statistics.misses - start[1],
            statistics.evictions - start[2],
        )
        printed = tuple(
            int(dump[name]) for name in ("buffer_hits", "buffer_misses", "buffer_evictions")
        )
        assert printed == change and change[1] > 0
