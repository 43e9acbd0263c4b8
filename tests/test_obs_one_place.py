"""Every report of a search has one place: the ``--trace`` tree or ``--metrics``.

There is no live instrument beside the two end-of-run outputs, so each thing
an operator asks about a run is pinned here to where it is read:

* each query -> a ``query`` span under one ``batch`` root, and a process
  scatter's dispatch to each partition -> ``shard`` / ``merge`` spans under
  that;
* timeouts, aborts and errors -> span attributes and statuses (and the
  batch's ``timed_out`` / ``aborted`` counts that ``--metrics`` prints);
* buffer-pool eviction bursts -> the pool's own ``evictions`` count, which
  the results' ``buffer_evictions`` sum to;
* a batch's fan-out and size -> the ``batch`` span's ``backend`` and
  ``queries`` attributes (its queue never holds more than the batch);
* peak RSS -> the ``peak_rss_mb`` line that ``--metrics`` reads from
  ``VmHWM`` when the run ends;
* a wedged run -> Ctrl-C, which still writes all of them on the way out
  (the ``--metrics`` numbers of the queries that finished).
"""

from __future__ import annotations

import ast
import io
import os
import random
import sys
import threading
from collections import defaultdict

import pytest

from repro import cli
from repro.cli import main as cli_main
from repro.core.engine import OasisEngine
from repro.obs import Recording, Tracer
from repro.obs.recording import load, validate, write
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from repro.storage.disk_tree import DiskSuffixTree
from support import AMINO_ACIDS, random_protein

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CORE = "WKDDGNGYISAAE"
QUERIES = [CORE, "MKVLAADTGLAV", "WKDDGNGYLSAAE"]
MIN_SCORE = 40


def _database() -> SequenceDatabase:
    rng = random.Random(11)
    texts = []
    for index in range(6):
        planted = list(CORE)
        if index % 2:
            planted[rng.randrange(len(planted))] = rng.choice(AMINO_ACIDS)
        texts.append(
            random_protein(rng, rng.randint(10, 30))
            + "".join(planted)
            + random_protein(rng, rng.randint(10, 30))
        )
    texts.extend(random_protein(rng, rng.randint(20, 60)) for _ in range(3))
    return SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET, name="one-place")


@pytest.fixture(scope="module")
def open_sharded(tmp_path_factory):
    """Open a sharded engine over ``_database()``; one index per shard count."""
    root = tmp_path_factory.mktemp("one-place-indexes")
    built = {}

    def opened(shards: int) -> ShardedEngine:
        if shards not in built:
            built[shards] = root / f"index-{shards}"
            ShardedIndexBuilder(pam30(), FixedGapModel(-8), shard_count=shards).build(
                _database(), built[shards]
            )
        return ShardedEngine.open(built[shards])

    return opened


def _valid_recording(tracer: Tracer) -> Recording:
    """The tracer's spans as ``--trace`` writes them, checked to be one tree."""
    recording = Recording.of(tracer.records(), reason="trace", trace_id=tracer.trace_id)
    assert validate(recording) == []
    return recording


def _by_name(recording: Recording):
    grouped = defaultdict(list)
    for record in recording.spans:
        grouped[record.name].append(record)
    return grouped


def _children(records, parent):
    return [record for record in records if record.parent_id == parent.span_id]


# --------------------------------------------------------------------- #
# Query and shard dispatch: spans
# --------------------------------------------------------------------- #
class TestDispatchSpans:
    def _assert_one_batch_of_scattered_queries(self, recording, shards, report):
        spans = _by_name(recording)
        (batch,) = spans["batch"]
        assert batch.parent_id is None
        assert batch.attributes["completed"] == len(QUERIES)
        assert "abandoned" not in batch.attributes
        queries = spans["query"]
        assert len(queries) == len(QUERIES)
        merged = []
        for query in queries:
            assert query.parent_id == batch.span_id
            # One dispatch per shard, each shard exactly once, then one merge.
            dispatched = _children(spans["shard"], query)
            assert sorted(record.attributes["shard"] for record in dispatched) == list(range(shards))
            (merge,) = _children(spans["merge"], query)
            merged.append(merge.attributes["hits"])
            assert query.attributes["timed_out"] is False
            assert query.attributes["aborted"] is False
        assert len(spans["shard"]) == shards * len(QUERIES)
        assert {record.status for record in recording.spans} == {"ok"}
        assert sorted(merged) == sorted(len(outcome.result) for outcome in report.outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_each_query_of_a_serial_index_batch_is_one_span(self, open_sharded, shards, workers):
        """The serial scatter searches the whole tree once, whatever the
        partitions: one ``query`` span per query, and no dispatch."""
        tracer = Tracer()
        with open_sharded(shards) as engine:
            report = engine.search_many(
                QUERIES, workers=workers, min_score=MIN_SCORE, tracer=tracer
            )
        assert not report.statistics.failed
        recording = _valid_recording(tracer)
        spans = _by_name(recording)
        assert sorted(spans) == ["batch", "query"]
        (batch,) = spans["batch"]
        assert batch.attributes["completed"] == len(QUERIES)
        assert "abandoned" not in batch.attributes
        queries = spans["query"]
        assert [query.parent_id for query in queries] == [batch.span_id] * len(QUERIES)
        assert {query.attributes["phase"] for query in queries} == {"expand"}
        assert not any(
            query.attributes.get("timed_out") or query.attributes.get("aborted")
            for query in queries
        )
        assert {record.status for record in recording.spans} == {"ok"}
        assert sorted(query.attributes["hits"] for query in queries) == sorted(
            len(outcome.result) for outcome in report.outcomes
        )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_process_scatter_dispatches_are_adopted_spans(self, shards, tmp_path):
        """Shard spans recorded in worker processes come back into the tree."""
        with ShardedEngine.build_on_disk(
            _database(), tmp_path / "index", pam30(), FixedGapModel(-8), shard_count=shards
        ):
            pass
        tracer = Tracer()
        with ShardedEngine.open(tmp_path / "index", backend="processes:2") as engine:
            report = engine.search_many(QUERIES, workers=1, min_score=MIN_SCORE, tracer=tracer)
        assert not report.statistics.failed
        recording = _valid_recording(tracer)
        self._assert_one_batch_of_scattered_queries(recording, shards, report)
        assert {record.pid for record in _by_name(recording)["shard"]} != {os.getpid()}

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_a_streamed_query_is_one_span(self, open_sharded, shards):
        tracer = Tracer()
        with open_sharded(shards) as engine:
            hits = list(engine.search_online(CORE, min_score=MIN_SCORE, tracer=tracer))
        spans = _by_name(_valid_recording(tracer))
        (query,) = spans["query"]
        assert query.parent_id is None and query.attributes["phase"] == "expand"
        assert query.attributes["hits"] == len(hits) > 0
        assert sorted(spans) == ["query"]

    @pytest.mark.parametrize("engine_kind", ["memory", "disk", "sharded"])
    def test_a_recording_of_a_real_search_round_trips_through_its_file(
        self, open_sharded, engine_kind, tmp_path
    ):
        database = _database()
        if engine_kind == "memory":
            engine = OasisEngine.build(database, pam30(), FixedGapModel(-8))
        elif engine_kind == "disk":
            engine = OasisEngine.build_on_disk(
                database, pam30(), tmp_path / "image.oasis", FixedGapModel(-8), block_size=512
            )
        else:
            engine = open_sharded(2)
        tracer = Tracer()
        with engine:
            engine.search_many(QUERIES, workers=2, min_score=MIN_SCORE, tracer=tracer)
        recording = _valid_recording(tracer)
        path = tmp_path / "trace.jsonl"
        write(path, recording)
        loaded = load(path)
        assert loaded.spans == recording.spans
        assert loaded.header == recording.header
        assert validate(loaded) == []


# --------------------------------------------------------------------- #
# Timeouts, aborts, errors: span attributes and statuses
# --------------------------------------------------------------------- #
class TestStopsAndFailures:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_an_expired_deadline_marks_every_query_span_of_an_index(self, open_sharded, shards):
        tracer = Tracer()
        with open_sharded(shards) as engine:
            report = engine.search_many(
                QUERIES, workers=1, min_score=MIN_SCORE, timeout=1e-7, tracer=tracer
            )
        assert report.statistics.timed_out == len(QUERIES)
        spans = _by_name(_valid_recording(tracer))
        assert [query.attributes["timed_out"] for query in spans["query"]] == [True] * len(QUERIES)
        # The serial scatter searches the whole tree once: the query span is the search's.
        assert sorted(spans) == ["batch", "query"]

    @pytest.mark.parametrize("engine_kind", ["memory", "disk"])
    def test_an_expired_deadline_on_one_index_marks_the_query_span(self, engine_kind, tmp_path):
        if engine_kind == "memory":
            engine = OasisEngine.build(_database(), pam30(), FixedGapModel(-8))
        else:
            engine = OasisEngine.build_on_disk(
                _database(), pam30(), tmp_path / "image.oasis", FixedGapModel(-8), block_size=512
            )
        tracer = Tracer()
        with engine:
            report = engine.search_many(
                QUERIES, workers=2, min_score=MIN_SCORE, timeout=1e-7, tracer=tracer
            )
        assert report.statistics.timed_out == len(QUERIES)
        queries = _by_name(_valid_recording(tracer))["query"]
        assert [query.attributes.get("timed_out") for query in queries] == [True] * len(QUERIES)

    @pytest.mark.parametrize("engine_kind", ["memory", "sharded"])
    def test_a_cancelled_query_span_says_aborted(self, open_sharded, engine_kind):
        if engine_kind == "memory":
            engine = OasisEngine.build(_database(), pam30(), FixedGapModel(-8))
        else:
            engine = open_sharded(2)
        tracer = Tracer()
        with engine:
            execution = engine.execute(CORE, tracer=tracer, min_score=MIN_SCORE)
            execution.abort()
            result = execution.result()
        assert len(result) == 0
        (query,) = _by_name(_valid_recording(tracer))["query"]
        assert query.attributes["aborted"] is True
        assert result.parameters["aborted"] is True

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_abandoned_batch_is_marked_on_its_span(self, workers, monkeypatch):
        """Ctrl-C during the second query: the batch span still closes,
        saying how far it got."""
        tracer = Tracer()
        with OasisEngine.build(_database(), pam30(), FixedGapModel(-8)) as engine:
            execute = engine.execute

            def interrupt_the_second(request, tracer=None):
                if request.query == QUERIES[1]:
                    raise KeyboardInterrupt
                return execute(request, tracer=tracer)

            monkeypatch.setattr(engine, "execute", interrupt_the_second)
            with pytest.raises(KeyboardInterrupt):
                engine.search_many(QUERIES, workers=workers, tracer=tracer, min_score=MIN_SCORE)
        spans = _by_name(_valid_recording(tracer))
        (batch,) = spans["batch"]
        assert batch.attributes["backend"] == ("serial" if workers == 1 else "threads:2")
        assert batch.attributes["queries"] == len(QUERIES)
        assert batch.attributes["completed"] == 1
        assert batch.attributes["abandoned"] is True
        assert 1 <= len(spans["query"]) <= len(QUERIES)
        assert all(query.parent_id == batch.span_id for query in spans["query"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_query_that_fails_mid_search_has_an_error_span(self, workers, monkeypatch):
        def broken_siblings(_node):
            raise RuntimeError("unreadable node")

        tracer = Tracer()
        with OasisEngine.build(_database(), pam30(), FixedGapModel(-8)) as engine:
            # No record arrays for the compiled kernel: every node is read
            # through siblings(), which fails.
            monkeypatch.setattr(engine.cursor, "node_records", None)
            monkeypatch.setattr(engine.cursor, "siblings", broken_siblings)
            report = engine.search_many(
                QUERIES, workers=workers, min_score=MIN_SCORE, tracer=tracer
            )
        assert report.statistics.failed == len(QUERIES)
        spans = _by_name(_valid_recording(tracer))
        assert spans["batch"][0].attributes["completed"] == len(QUERIES)
        for query in spans["query"]:
            assert query.status == "error"
            assert query.attributes["error"] == "RuntimeError: unreadable node"
        assert len(spans["query"]) == len(QUERIES)

    def test_a_failing_index_search_is_the_error_span_under_its_batch(
        self, open_sharded, monkeypatch
    ):
        def broken_siblings(_node):
            raise RuntimeError("unreadable node")

        tracer = Tracer()
        with open_sharded(3) as engine:
            monkeypatch.setattr(engine.cursor, "node_records", None)
            monkeypatch.setattr(engine.cursor, "siblings", broken_siblings)
            report = engine.search_many([CORE], workers=1, min_score=MIN_SCORE, tracer=tracer)
        assert report.statistics.failed == 1
        spans = _by_name(_valid_recording(tracer))
        assert sorted(spans) == ["batch", "query"]
        (query,) = spans["query"]
        assert query.status == "error"
        assert query.attributes["error"] == "RuntimeError: unreadable node"
        assert query.parent_id == spans["batch"][0].span_id

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_query_rejected_before_it_runs_leaves_the_tree_whole(self, workers):
        """A symbol outside the alphabet fails the query before its span opens:
        the batch counts it, the other queries' spans are there."""
        tracer = Tracer()
        with OasisEngine.build(_database(), pam30(), FixedGapModel(-8)) as engine:
            report = engine.search_many(
                [CORE, "MK1Z", QUERIES[1]], workers=workers, min_score=MIN_SCORE, tracer=tracer
            )
        assert report.statistics.failed == 1
        spans = _by_name(_valid_recording(tracer))
        assert spans["batch"][0].attributes["completed"] == 3
        assert len(spans["query"]) == 2
        assert {query.status for query in spans["query"]} == {"ok"}


# --------------------------------------------------------------------- #
# Eviction bursts: the pool's own evictions count
# --------------------------------------------------------------------- #
class TestEvictionCounter:
    @pytest.mark.parametrize("frames", [1, 2, 8, None], ids=["1", "2", "8", "whole"])
    def test_the_counter_is_every_eviction_of_a_clock_pool(self, frames, tmp_path):
        block_size = 512
        image = tmp_path / "image.oasis"
        database = _database()
        with OasisEngine.build_on_disk(
            database, pam30(), image, FixedGapModel(-8), block_size=block_size
        ):
            pass
        pool_bytes = (frames or os.path.getsize(image) // block_size + 1) * block_size
        tracer = Tracer()
        # The pool itself, at every size: an engine reads an image that fits
        # its pool ("whole") into memory instead.
        disk = DiskSuffixTree(image, database, buffer_pool_bytes=pool_bytes)
        with OasisEngine(disk, pam30(), FixedGapModel(-8)) as engine:
            report = engine.search_many(QUERIES, workers=1, min_score=MIN_SCORE, tracer=tracer)
            pool = engine.cursor.pool
            evictions, misses = pool.statistics.evictions, pool.statistics.misses
            frame_count = pool.frame_count
        # Frames fill on demand; once full, every miss evicts one.
        assert evictions == max(0, misses - frame_count)
        if frames is None:
            assert evictions == 0
        assert evictions == sum(outcome.result.statistics.buffer_evictions for outcome in report.outcomes)
        # Each query span carries its own share of the pool traffic.
        queries = _by_name(_valid_recording(tracer))["query"]
        assert sum(query.attributes.get("buffer_misses", 0) for query in queries) == misses

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_a_sharded_index_counts_the_evictions_of_every_shard_pool(self, shards, tmp_path):
        tracer = Tracer()
        with ShardedEngine.build_on_disk(
            _database(),
            tmp_path / "index",
            pam30(),
            FixedGapModel(-8),
            shard_count=shards,
            block_size=512,
            buffer_pool_bytes=2048,
        ) as engine:
            report = engine.search_many(QUERIES, workers=1, min_score=MIN_SCORE, tracer=tracer)
            pools = [engine.cursor.pool]
        assert not report.statistics.failed
        evictions = report.statistics.search.buffer_evictions
        assert evictions == sum(pool.statistics.evictions for pool in pools) > 0
        for pool in pools:
            assert pool.statistics.evictions == max(0, pool.statistics.misses - pool.frame_count)


# --------------------------------------------------------------------- #
# Peak RSS: one line, read from VmHWM when the run ends
# --------------------------------------------------------------------- #
STATUS_FILES = {
    "linux": ("Name:\tpython\nVmRSS:\t  2048 kB\nVmHWM:\t  4096 kB\n", 4096 * 1024),
    "no VmHWM line": ("Name:\tpython\nVmRSS:\t  2048 kB\n", None),
    "malformed value": ("VmHWM:\t  lots kB\n", None),
    "truncated line": ("VmHWM:\n", None),
}


@pytest.mark.parametrize("case", sorted(STATUS_FILES))
def test_peak_rss_is_read_from_vmhwm_or_absent(case, monkeypatch):
    text, expected = STATUS_FILES[case]
    opened = []

    def fake_open(path, *args, **kwargs):
        opened.append(path)
        return io.StringIO(text)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    assert cli._peak_rss_bytes() == expected
    assert opened == ["/proc/self/status"]


def test_peak_rss_is_absent_without_procfs(monkeypatch):
    def no_procfs(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli, "open", no_procfs, raising=False)
    assert cli._peak_rss_bytes() is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux procfs")
def test_peak_rss_is_at_least_the_current_rss():
    with open("/proc/self/status", encoding="ascii") as status:
        (current,) = [int(line.split()[1]) * 1024 for line in status if line.startswith("VmRSS:")]
    assert cli._peak_rss_bytes() >= current


# --------------------------------------------------------------------- #
# The CLI: the same reports, in the files and dumps a run leaves
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    root = tmp_path_factory.mktemp("one-place")
    fasta, queries, index = root / "db.fasta", root / "queries.txt", root / "index"
    generate = ["generate", "--output", str(fasta), "--queries", str(queries)]
    assert cli_main(generate + ["--families", "4", "--query-count", "3", "--seed", "3"]) == 0
    build = ["index", "build", "--database", str(fasta), "--output", str(index)]
    assert cli_main(build + ["--shards", "2"]) == 0
    return fasta, queries, index


def _search(workload, *extra):
    """A bare ``--index`` in ``extra`` (or a ``--backend``) searches the index."""
    fasta, queries, index = workload
    on_index = "--index" in extra or "--backend" in extra
    source = ["--index", str(index)] if on_index else ["--database", str(fasta)]
    extra = tuple(flag for flag in extra if flag != "--index")
    return ["search", *source, "--queries", str(queries), "--min-score", "15", *extra]


#: run -> (extra flags, shard spans per query): the serial scatter searches
#: the whole tree once, under the query span itself, a process scatter each
#: of the index's 2 partitions.
CLI_RUNS = {
    "database": ((), 0),
    "index, serial scatter": (("--backend", "serial"), 0),
    "index, default scatter, 2 workers": (("--index", "--workers", "2"), 0),
    "index, process scatter": (("--backend", "processes:2"), 2),
}


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_a_cli_trace_holds_a_span_per_query_and_dispatch(run, workload, tmp_path, capsys):
    extra, shards = CLI_RUNS[run]
    trace = tmp_path / "trace.jsonl"
    assert cli_main(_search(workload, *extra, "--trace", str(trace))) == 0
    capsys.readouterr()
    recording = load(trace)
    assert validate(recording) == []
    spans = _by_name(recording)
    (batch,) = spans["batch"]
    assert len(spans["query"]) == batch.attributes["completed"] == 3
    assert len(spans.get("shard", ())) == 3 * shards


@pytest.mark.parametrize("sharded", [False, True], ids=["database", "2 shards"])
def test_a_cli_timeout_is_in_the_trace_and_the_metrics(sharded, workload, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    extra = ("--index",) if sharded else ()
    flags = ("--timeout", "0.0000001", "--trace", str(trace), "--metrics")
    assert cli_main(_search(workload, *extra, *flags)) == 0
    err = capsys.readouterr().err
    recording = load(trace)
    assert validate(recording) == []
    queries = _by_name(recording)["query"]
    assert [query.attributes["timed_out"] for query in queries] == [True] * 3
    assert {"queries = 3", "timed_out = 3"} <= set(err.splitlines())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("interrupted", [1, 2, 3])
def test_a_run_interrupted_at_any_query_leaves_its_reports(
    interrupted, workers, workload, tmp_path, monkeypatch, capsys
):
    """Ctrl-C at the first, middle or last query of a batch: the trace is one
    valid tree holding the queries that ran, and the metrics dump (of the
    queries that finished) and the slow log are printed on the way out."""
    original = OasisEngine.execute
    calls = []
    lock = threading.Lock()

    def interrupt_one(self, *args, **kwargs):
        with lock:
            calls.append(None)
            number = len(calls)
        if number == interrupted:
            raise KeyboardInterrupt
        return original(self, *args, **kwargs)

    monkeypatch.setattr(OasisEngine, "execute", interrupt_one)
    trace = tmp_path / "trace.jsonl"
    flags = ("--workers", str(workers), "--trace", str(trace), "--metrics", "--slow-log", "0")
    with pytest.raises(KeyboardInterrupt):
        cli_main(_search(workload, *flags))
    err = capsys.readouterr().err
    assert "--- metrics ---" in err
    if sys.platform.startswith("linux"):
        assert "peak_rss_mb = " in err
    recording = load(trace)
    assert validate(recording) == []
    spans = _by_name(recording)
    (batch,) = spans["batch"]
    assert batch.attributes["abandoned"] is True
    assert batch.attributes["completed"] < 3
    assert f"queries = {batch.attributes['completed']}" in err.splitlines()
    assert len(spans["query"]) <= 3 - 1
    if spans["query"]:
        assert "slow queries" in err


def test_no_module_installs_a_signal_handler():
    """A one-shot CLI has nothing to poke while it runs.  A signal handler
    added to ``src/`` must use the self-pipe pattern and bring a lint rule
    that holds it to that (CONTRIBUTING)."""
    offenders = []
    for directory, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"signal", "set_wakeup_fd", "setitimer"}
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "signal"
                ):
                    offenders.append(f"{os.path.relpath(path, SRC)}:{node.lineno}")
    assert offenders == []
