"""Integration: one coherent span tree per traced search, on every backend.

The acceptance scenario for the telemetry layer: a 4-shard search scattered
over a ``processes:2`` backend, traced end to end, written to JSON lines and
round-trip parsed -- one tree, query root, one shard child per shard
(recorded inside the worker processes), one merge span.  The in-process
backends must produce the same shape with local pids, and the batch
executor must nest its per-query spans under the batch span.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.obs import Recording, Tracer, analyze
from repro.obs.analyze import OTHER_PHASE
from repro.obs.recording import load, span_tree, validate, write
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from support import AMINO_ACIDS, random_protein


def validate_trace(records):
    """Problems of ``records`` taken as one finished run's complete trace."""
    return validate(Recording.of(records, reason="test"))


SHARDS = 4
QUERY = "WKDDGNGYISAAE"
SECOND_QUERY = "MKVLAADTGLAV"
MIN_SCORE = 40
#: A budget below every shard image: each shard searches through its own
#: clock pool (an image that fits is read into memory and has no pool).
TIGHT_POOL_BYTES = 2048


def _database() -> SequenceDatabase:
    """Planted-motif protein database, like the conftest one but reusable at
    module scope (the persistent index below is built once per module)."""
    rng = random.Random(42)
    texts = []
    for index in range(8):
        prefix = random_protein(rng, rng.randint(10, 40))
        suffix = random_protein(rng, rng.randint(10, 40))
        mutated = list(QUERY)
        if index % 2 == 1:
            mutated[rng.randrange(len(mutated))] = rng.choice(AMINO_ACIDS)
        texts.append(prefix + "".join(mutated) + suffix)
    for _ in range(4):
        texts.append(random_protein(rng, rng.randint(20, 80)))
    return SequenceDatabase.from_texts(
        texts, alphabet=PROTEIN_ALPHABET, name="obs-proteins"
    )


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("obs") / "index"
    ShardedIndexBuilder(pam30(), FixedGapModel(-8), shard_count=SHARDS).build(
        _database(), directory
    )
    return str(directory)


def _tree_parts(records):
    """(root, shard spans, merge spans) of a single-query trace."""
    roots = [record for record in records if record.parent_id is None]
    assert len(roots) == 1, f"expected one root, got {[r.name for r in roots]}"
    root = roots[0]
    children = [record for record in records if record.parent_id == root.span_id]
    shards = [record for record in children if record.name == "shard"]
    merges = [record for record in children if record.name == "merge"]
    return root, shards, merges


def test_process_scatter_emits_one_coherent_tree(index_dir, tmp_path):
    tracer = Tracer()
    with ShardedEngine.open(
        index_dir, buffer_pool_bytes=TIGHT_POOL_BYTES, backend="processes:2"
    ) as engine:
        engine.instrument(tracer)
        result = engine.search(QUERY, min_score=MIN_SCORE, tracer=tracer)
    assert len(result) >= 1

    # Round trip through the JSON-lines file the CLI would write.
    path = tmp_path / "trace.jsonl"
    write(path, Recording.of(tracer.records(), reason="test"))
    records = load(path).spans
    assert records == tracer.records()
    assert validate_trace(records) == []

    root, shards, merges = _tree_parts(records)
    assert root.name == "query"
    assert len(shards) == SHARDS
    assert len(merges) == 1
    assert sorted(span.attributes["shard"] for span in shards) == list(range(SHARDS))
    # Shard spans were recorded inside worker processes and adopted back.
    parent_pid = os.getpid()
    assert all(span.pid != parent_pid for span in shards)
    assert root.pid == parent_pid and merges[0].pid == parent_pid

    # Worker metric snapshots merged into the parent registry.
    metrics = tracer.metrics
    assert metrics.counter("search.queries").value == SHARDS
    assert (
        metrics.counter("search.nodes_expanded").value
        == result.statistics.nodes_expanded
    )
    assert metrics.counter("pool.misses").value > 0

    rendered = span_tree(records)
    assert rendered.splitlines()[0].startswith("query")
    assert rendered.count("  shard") == SHARDS


def test_in_process_scatter_same_tree_shape(index_dir):
    tracer = Tracer()
    with ShardedEngine.open(index_dir) as engine:
        engine.instrument(tracer)
        result = engine.search(QUERY, min_score=MIN_SCORE, tracer=tracer)
    records = tracer.records()
    assert validate_trace(records) == []
    root, shards, merges = _tree_parts(records)
    assert root.name == "query"
    # The serial scatter is one search of the whole tree: one shard span.
    assert len(shards) == 1 and len(merges) == 1
    assert all(span.pid == os.getpid() for span in records)
    assert merges[0].attributes["hits"] == len(result)


def test_streaming_search_traces_under_one_query_span(index_dir):
    tracer = Tracer()
    with ShardedEngine.open(index_dir, backend="serial") as engine:
        hits = list(
            engine.search_online(QUERY, min_score=MIN_SCORE, tracer=tracer)
        )
    assert hits
    records = tracer.records()
    assert validate_trace(records) == []
    root, shards, _merges = _tree_parts(records)
    assert root.attributes.get("streaming") is True
    assert len(shards) == 1


def test_batch_spans_nest_queries_under_batch(index_dir):
    tracer = Tracer()
    with ShardedEngine.open(index_dir, backend="serial") as engine:
        engine.instrument(tracer)
        report = engine.search_many(
            [QUERY, SECOND_QUERY], workers=2, min_score=MIN_SCORE, tracer=tracer
        )
    assert not report.statistics.failed
    records = tracer.records()
    assert validate_trace(records) == []

    roots = [record for record in records if record.parent_id is None]
    assert [root.name for root in roots] == ["batch"]
    batch = roots[0]
    queries = [record for record in records if record.name == "query"]
    assert len(queries) == 2
    assert all(query.parent_id == batch.span_id for query in queries)
    shards = [record for record in records if record.name == "shard"]
    assert len(shards) == 2
    assert {shard.parent_id for shard in shards} == {
        query.span_id for query in queries
    }

    # Each query ran once and was counted once, on whichever pool thread.
    assert tracer.metrics.counter("search.queries").value == 2


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_every_span_of_a_traced_search_carries_its_phase(index_dir, backend):
    """The report has no name-based fallback: a span site that forgot to
    stamp ``phase`` would show up as an ``other`` row."""
    tracer = Tracer()
    with ShardedEngine.open(
        index_dir, buffer_pool_bytes=TIGHT_POOL_BYTES, backend=backend
    ) as engine:
        engine.instrument(tracer)
        report = engine.search_many([QUERY], min_score=MIN_SCORE, tracer=tracer)
    assert not report.statistics.failed
    records = tracer.records()
    assert {record.name for record in records} >= {"batch", "query", "shard", "merge"}
    missing = [record.name for record in records if not record.attributes.get("phase")]
    assert not missing, f"spans without a phase attribute: {missing}"
    assert OTHER_PHASE not in {entry.phase for entry in analyze(records).phases}


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_a_tight_pool_search_counts_its_pages_and_opens_no_span_per_page(index_dir, backend):
    """Disk I/O is judged by the pool's counters: one increment per page,
    equal to the result's own counts, and no span per page."""
    tracer = Tracer()
    with ShardedEngine.open(
        index_dir, buffer_pool_bytes=TIGHT_POOL_BYTES, backend=backend
    ) as engine:
        engine.instrument(tracer)
        report = engine.search_many([QUERY, SECOND_QUERY], min_score=MIN_SCORE, tracer=tracer)
    assert not report.statistics.failed
    statistics = [outcome.result.statistics for outcome in report.outcomes]
    misses = sum(stats.buffer_misses for stats in statistics)
    assert misses > 0
    metrics = tracer.metrics
    assert metrics.counter("pool.misses").value == misses
    assert metrics.counter("pool.hits").value == sum(stats.buffer_hits for stats in statistics)
    # One batch; per query a query span, its shard spans (one on the serial
    # scatter, one per partition on processes) and a merge: the span count
    # does not grow with the pages read.
    names = [record.name for record in tracer.records()]
    assert sorted(set(names)) == ["batch", "merge", "query", "shard"]
    shard_spans = 1 if backend == "serial" else SHARDS
    assert len(names) == 1 + 2 * (1 + shard_spans + 1)


def test_a_pool_that_fits_reads_the_image_into_memory_and_counts_no_pages(index_dir):
    """The default pool holds the whole image, which is then searched as the
    in-memory tree: no page is requested, so no pool counter is made."""
    tracer = Tracer()
    with ShardedEngine.open(index_dir) as engine:
        engine.instrument(tracer)
        report = engine.search_many([QUERY], min_score=MIN_SCORE, tracer=tracer)
    assert not report.statistics.failed
    (outcome,) = report.outcomes
    assert outcome.result.hits
    assert outcome.result.statistics.buffer_misses == 0
    assert not [name for name in tracer.metrics.names() if name.startswith("pool.")]
