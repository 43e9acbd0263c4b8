"""Backend coverage for the sharded subsystem: scatter, images, budgeting.

The load-bearing property is backend *transparency*: for the same catalog
and queries, the ``serial`` (default) and ``processes:N`` scatter backends
must produce byte-identical ordered results (and identical to the
monolithic engine).  Alongside parity, this module covers the failure paths
the process backend introduces (worker errors and crashes surface per query,
deadlines hold across processes), the refusal of a thread scatter, one image
whatever the partition count, and the image's buffer budget.
"""

from __future__ import annotations

import glob
import os
import pathlib
import random
import sys
import threading
import time

import pytest

from repro.core.engine import OasisEngine
from repro.core.kernels import ReferenceKernel
from repro.core.oasis import QueryExecution
from repro.core.request import SearchRequest
from repro.scoring.data import pam30
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import (
    CatalogMismatchError,
    ShardedEngine,
    ShardedIndexBuilder,
    shard_pool_budgets,
)
from repro.sharding import engine as engine_module
from repro.sharding.engine import check_scatter_backend
from repro.sharding.remote import ShardSearchTask, run_shard_search, spawn_pool
from repro.testing import proc_kill_worker
from support import POOL_BODIES, on_pool_body, random_protein, record_frontiers

QUERIES = ["WKDDGNGYISAAE", "MKVLAADT", "DKDGDGCITTKEL"]
EVALUE = 1_000.0
BACKENDS = ["serial", "processes:2"]
BLOCK_SIZE = 512


def hit_signature(hits):
    """Everything parity promises, including (via list order) the ordering."""
    return [
        (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue)
        for hit in hits
    ]


@pytest.fixture(scope="module")
def backend_database() -> SequenceDatabase:
    rng = random.Random(23)
    core = "WKDDGNGYISAAE"
    texts = []
    for index in range(12):
        mutated = list(core)
        if index % 3 == 1:
            mutated[rng.randrange(len(mutated))] = "A"
        texts.append(
            random_protein(rng, rng.randint(8, 40))
            + "".join(mutated)
            + random_protein(rng, rng.randint(8, 40))
        )
    for _ in range(8):
        texts.append(random_protein(rng, rng.randint(12, 70)))
    return SequenceDatabase.from_texts(
        texts, alphabet=PROTEIN_ALPHABET, name="backendable"
    )


@pytest.fixture(scope="module")
def monolithic(backend_database, pam30_matrix, gap8) -> OasisEngine:
    return OasisEngine.build(backend_database, matrix=pam30_matrix, gap_model=gap8)


@pytest.fixture(scope="module")
def expected_signatures(monolithic):
    return {
        query: hit_signature(monolithic.search(query, evalue=EVALUE).hits)
        for query in QUERIES
    }


@pytest.fixture(scope="module")
def index_directories(tmp_path_factory, backend_database, pam30_matrix, gap8):
    """One persistent index per shard count, built once for the module."""
    root = tmp_path_factory.mktemp("backend-indexes")
    directories = {}
    for shard_count in (1, 2, 4):
        directory = root / f"index-{shard_count}"
        ShardedIndexBuilder(
            pam30_matrix,
            gap8,
            shard_count=shard_count,
            block_size=BLOCK_SIZE,
        ).build(backend_database, directory)
        directories[shard_count] = str(directory)
    return directories


class TestScatterBackendParity:
    """serial / processes x 1/2/4 shards, all byte-identical."""

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_disk_scatter_matches_monolithic(
        self, index_directories, expected_signatures, backend, shard_count
    ):
        with ShardedEngine.open(
            index_directories[shard_count], backend=backend
        ) as sharded:
            assert sharded.backend_spec == backend
            for query in QUERIES:
                got = sharded.search(query, evalue=EVALUE)
                assert hit_signature(got.hits) == expected_signatures[query], (
                    f"{backend} x{shard_count} diverged from monolithic on {query!r}"
                )

    @pytest.mark.parametrize("body", POOL_BODIES)
    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_over_tight_pools_matches_monolithic(
        self, monkeypatch, index_directories, expected_signatures, backend, shard_count, body
    ):
        """One frame per shard: every page is fought over.

        The batch threads of this process interleave at every miss: the C
        body releases the GIL around each read, and on the Python body each
        miss sleeps first, outside the pool lock.  Worker processes read
        on the C body wherever it builds.
        """
        on_pool_body(monkeypatch, body, miss_sleep=1e-5)
        with ShardedEngine.open(
            index_directories[shard_count],
            buffer_pool_bytes=shard_count * BLOCK_SIZE,
            backend=backend,
        ) as sharded:
            report = sharded.search_many(QUERIES * 2, workers=2, evalue=EVALUE)
        assert report.statistics.failed == 0
        for query, result in report:
            assert hit_signature(result.hits) == expected_signatures[query], (
                f"{backend} x{shard_count} diverged from monolithic on {query!r}"
            )
            assert result.statistics.buffer_misses > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_second_pass_matches_the_first(
        self, index_directories, expected_signatures, backend
    ):
        """Long-lived shard engines and warm pools carry nothing between queries."""
        with ShardedEngine.open(index_directories[4], backend=backend) as sharded:
            cold = sharded.search_many(QUERIES, workers=2, evalue=EVALUE)
            warm = sharded.search_many(QUERIES, workers=1, evalue=EVALUE)
        assert warm.statistics.backend == "serial"
        for (query, first), (_, second) in zip(cold, warm):
            assert hit_signature(first.hits) == expected_signatures[query]
            assert hit_signature(second.hits) == expected_signatures[query]
            assert second.columns_expanded == first.columns_expanded

    def test_process_scatter_max_results_is_global_top_k(
        self, index_directories, expected_signatures
    ):
        with ShardedEngine.open(
            index_directories[4], backend="processes:2"
        ) as sharded:
            top3 = sharded.search(QUERIES[0], evalue=EVALUE, max_results=3)
            assert hit_signature(top3.hits) == expected_signatures[QUERIES[0]][:3]

    def test_process_scatter_alignments_match_serial(self, index_directories):
        with ShardedEngine.open(index_directories[2]) as serial:
            expected = serial.search(QUERIES[0], evalue=EVALUE, compute_alignments=True)
        with ShardedEngine.open(index_directories[2], backend="processes:2") as processed:
            got = processed.search(QUERIES[0], evalue=EVALUE, compute_alignments=True)
        assert [hit.alignment for hit in got.hits] == [
            hit.alignment for hit in expected.hits
        ]

    def test_worker_outcome_equals_the_in_process_partition_result(
        self, monkeypatch, index_directories
    ):
        """What a worker sends back is what ``execution.result()`` builds here.

        Same image, same query, same root children, same (cold) pool budget:
        the hits, the E-values (bit-identical floats), the alignments and
        every work counter agree -- only the clock differs.
        """
        query = QUERIES[0]
        options = dict(evalue=EVALUE, compute_alignments=True)
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            frontiers = record_frontiers(monkeypatch, sharded)
            scattered = sharded.execute(query, **options)
            remote = sharded._scatter(scattered, None)
            # The workers' results are the partition results: no frontier ran here.
            assert frontiers == []
            partitions = sharded.partitions
        local = []
        with OasisEngine.open(index_directories[2]) as tree:
            for symbols in partitions:
                execution = tree.execute(query, **options)
                execution.root_symbols = symbols
                local.append(execution.result())
        assert sum(len(result) for result in remote) > 0
        for shard, (got, expected) in enumerate(zip(remote, local)):
            assert hit_signature(got.hits) == hit_signature(expected.hits)
            assert all(isinstance(hit.evalue, float) for hit in got.hits)
            assert [hit.alignment for hit in got.hits] == [
                hit.alignment for hit in expected.hits
            ]
            assert all(hit.alignment is not None for hit in got.hits)
            assert got.parameters["min_score"] == expected.parameters["min_score"]
            counters, reference = got.statistics.as_dict(), expected.statistics.as_dict()
            assert counters.pop("elapsed_seconds") > 0 and reference.pop("elapsed_seconds") > 0
            assert counters == reference, f"partition {shard}"

    def test_process_scatter_reports_per_shard_statistics(self, index_directories):
        with ShardedEngine.open(index_directories[4], backend="processes:2") as sharded:
            result = sharded.search(QUERIES[0], evalue=EVALUE)
            rows = result.parameters["shard_stats"]
            assert [row["shard"] for row in rows] == [0, 1, 2, 3]
            assert result.columns_expanded == sum(
                row["columns_expanded"] for row in rows
            )
            assert result.columns_expanded > 0
            assert sum(row["hits"] for row in rows) == len(result)

    def test_search_many_parity_and_backend_recorded(
        self, index_directories, expected_signatures
    ):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            report = sharded.search_many(QUERIES, workers=2, evalue=EVALUE)
            assert report.statistics.backend == "threads:2"
            assert report.statistics.as_dict()["backend"] == "threads:2"
            for query, result in report:
                assert hit_signature(result.hits) == expected_signatures[query]

    def test_the_default_scatter_is_serial(self, index_directories):
        with ShardedEngine.open(index_directories[2]) as sharded:
            assert sharded.backend_spec == "serial"
            assert "serial" in repr(sharded)


class TestSerialScatter:
    """The default scatter is one search of the whole tree, on the calling thread."""

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_one_search_of_the_whole_tree_runs_on_the_calling_thread(
        self, monkeypatch, index_directories, expected_signatures, shard_count
    ):
        ran = []
        result = QueryExecution.result

        def recording(execution):
            ran.append((threading.current_thread(), execution))
            return result(execution)

        monkeypatch.setattr(QueryExecution, "result", recording)
        with ShardedEngine.open(index_directories[shard_count]) as sharded:
            frontiers = record_frontiers(monkeypatch, sharded)
            scattered = sharded.execute(QUERIES[0], evalue=EVALUE)
            got = scattered.result()
        assert hit_signature(got.hits) == expected_signatures[QUERIES[0]]
        # The query's own execution ran the search: no inner one, one frontier.
        assert ran == [(threading.current_thread(), scattered)]
        assert len(frontiers) == 1 and scattered.root_symbols is None

    def test_the_engine_build_on_disk_returns_scatters_serially(
        self, monkeypatch, tmp_path, backend_database, pam30_matrix, gap8, expected_signatures
    ):
        ran = []
        result = QueryExecution.result

        def recording(execution):
            ran.append(threading.current_thread())
            return result(execution)

        monkeypatch.setattr(QueryExecution, "result", recording)
        with ShardedEngine.build_on_disk(
            backend_database, tmp_path / "index", pam30_matrix, gap8, shard_count=2
        ) as sharded:
            assert sharded.backend_spec == "serial"
            got = sharded.search(QUERIES[0], evalue=EVALUE)
        assert hit_signature(got.hits) == expected_signatures[QUERIES[0]]
        assert ran == [threading.current_thread()]


#: A thread scatter's refusal names the two forms a scatter accepts.
BOTH_FORMS = r"'serial' or 'processes\[:N\]'"


class TestScatterBackendForms:
    """A scatter is ``serial`` or ``processes[:N]``; threads ran slower than the loop."""

    @pytest.mark.parametrize(
        "backend, scatter",
        [
            (None, ("serial", None)),
            ("serial", ("serial", None)),
            ("processes", ("processes", None)),
            ("processes:3", ("processes", 3)),
            (" Processes:2 ", ("processes", 2)),
        ],
    )
    def test_an_accepted_form_names_its_kind_and_workers(self, backend, scatter):
        assert check_scatter_backend(backend) == scatter

    @pytest.mark.parametrize(
        "backend",
        ["threads", "threads:2", "thread:4", "sync", "serial:1", "process", "procs:2"],
    )
    def test_a_refused_form_is_a_value_error(self, backend):
        with pytest.raises(ValueError, match=BOTH_FORMS):
            check_scatter_backend(backend)

    @pytest.mark.parametrize("backend", ["bogus", "fibers:9"])
    def test_an_unknown_kind_names_only_the_scatter_forms(self, index_directories, backend):
        with pytest.raises(ValueError, match=BOTH_FORMS) as refused:
            ShardedEngine.open(index_directories[2], backend=backend)
        assert "unknown backend" in str(refused.value)
        assert "threads" not in str(refused.value)

    @pytest.mark.parametrize(
        "backend, message",
        [
            ("processes:x", "bad worker count"),
            ("processes:", "bad worker count"),
            ("processes:0", "at least 1"),
            ("processes:-2", "at least 1"),
        ],
    )
    def test_a_bad_worker_count_keeps_its_own_message(self, backend, message):
        with pytest.raises(ValueError, match=message):
            check_scatter_backend(backend)

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_a_bare_process_spec_gets_one_worker_per_shard(self, index_directories, shard_count):
        with ShardedEngine.open(index_directories[shard_count], backend="processes") as sharded:
            assert sharded.backend_spec == f"processes:{shard_count}"

    @pytest.mark.parametrize("backend", ["threads", "threads:2", "thread:4"])
    def test_open_refuses_threads_naming_the_two_forms(self, index_directories, backend):
        with pytest.raises(ValueError, match=BOTH_FORMS):
            ShardedEngine.open(index_directories[2], backend=backend)

    def test_build_on_disk_refuses_threads_before_building(
        self, tmp_path, backend_database, pam30_matrix, gap8
    ):
        directory = tmp_path / "never-built"
        with pytest.raises(ValueError, match="processes"):
            ShardedEngine.build_on_disk(
                backend_database, directory, pam30_matrix, gap8, backend="threads:2"
            )
        assert not directory.exists()

    def test_the_constructor_refuses_threads(self, index_directories, monolithic):
        with ShardedEngine.open(index_directories[1]) as opened:
            with pytest.raises(ValueError, match="serial"):
                ShardedEngine(
                    [opened],
                    opened.database,
                    opened.matrix,
                    opened.gap_model,
                    catalog=opened.catalog,
                    directory=opened.directory,
                    shard_buffer_bytes=[opened.buffer_pool_bytes],
                    backend="threads:1",
                )

    def test_the_constructor_takes_exactly_one_engine(self, index_directories):
        with ShardedEngine.open(index_directories[1]) as opened:
            with pytest.raises(ValueError, match="one tree: pass one engine, not 2"):
                ShardedEngine(
                    [opened] * 2,
                    opened.database,
                    opened.matrix,
                    opened.gap_model,
                    catalog=opened.catalog,
                    directory=opened.directory,
                    shard_buffer_bytes=[opened.buffer_pool_bytes],
                )


class TestProcessBackendFailurePaths:
    def test_process_backend_requires_bundled_fasta(
        self, tmp_path, backend_database, pam30_matrix, gap8
    ):
        """write_database=False indexes must be rejected at open, not fail
        every query later with FileNotFoundError inside the workers."""
        directory = tmp_path / "no-fasta"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            backend_database, directory, write_database=False
        )
        with pytest.raises(ValueError, match="self-contained"):
            ShardedEngine.open(
                directory, database=backend_database, backend="processes:2"
            )
        # The serial scatter keeps working: the parent has the database.
        with ShardedEngine.open(directory, database=backend_database) as sharded:
            assert sharded.search(QUERIES[0], evalue=EVALUE) is not None

    def test_a_reference_kernel_with_a_rule_off_is_refused_on_processes(
        self, tmp_path, backend_database, pam30_matrix, gap8
    ):
        """The workers get the kernel by name, so with every rule on: a rule
        switched off is refused at open, before any worker starts, and the
        serial scatter searches with it."""
        directory = tmp_path / "index"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            backend_database, directory
        )
        kernel = ReferenceKernel(prune_threshold=False)
        with pytest.raises(ValueError, match="runs every pruning rule"):
            ShardedEngine.open(directory, backend="processes:2", kernel=kernel)
        with ShardedEngine.open(directory, kernel=kernel) as sharded:
            result = sharded.search(QUERIES[0], evalue=EVALUE)
        assert result.statistics.kernel == "reference" and len(result) > 0

    def test_worker_failure_is_a_per_query_error_not_a_hang(
        self, tmp_path, backend_database, pam30_matrix, gap8
    ):
        """A shard image vanishing under the workers fails the query loudly."""
        directory = tmp_path / "doomed"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            backend_database, directory
        )
        with ShardedEngine.open(directory, backend="processes:2") as sharded:
            # The parent holds open file handles; the workers have not opened
            # anything yet.  Deleting the images breaks only the workers.
            for image in glob.glob(str(directory / "*.oasis")):
                os.remove(image)
            report = sharded.search_many(QUERIES, workers=2, evalue=EVALUE)
            assert report.statistics.failed == len(QUERIES)
            for outcome in report.outcomes:
                assert not outcome.ok
                assert outcome.error is not None

    def test_rebuilt_index_is_rejected_by_workers(
        self, tmp_path, backend_database, pam30_matrix, gap8
    ):
        """Workers load catalogs lazily; a rebuild-in-place must fail loudly.

        The parent keeps its original catalog and E-value model, so letting
        workers silently search a replacement index would return wrong
        results -- the task ships the parent's fingerprint and the worker
        re-checks it against what it actually loaded.
        """
        from repro.scoring.gaps import FixedGapModel

        directory = tmp_path / "rebuilt"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            backend_database, directory
        )
        with ShardedEngine.open(directory, backend="processes:2") as sharded:
            # Rebuild in place with a different gap penalty before any
            # worker has opened anything.
            ShardedIndexBuilder(
                pam30_matrix, FixedGapModel(-4), shard_count=2
            ).build(backend_database, directory)
            report = sharded.search_many(QUERIES[:1], workers=1, evalue=EVALUE)
            assert report.statistics.failed == 1
            assert "changed on disk" in report.outcomes[0].error

    def test_a_bundled_fasta_rewritten_under_the_engine_fails_in_the_workers(
        self, tmp_path, backend_database, pam30_matrix, gap8
    ):
        """Workers open the index as the parent does, database check included.

        The FASTA keeps every identifier and length but not its residues, so
        only the content digest tells it from the indexed database: a worker
        that skipped the check would search the image against the wrong
        sequences and answer with nothing, silently.
        """
        directory = tmp_path / "rewritten"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            backend_database, directory
        )
        with ShardedEngine.open(directory, backend="processes:2") as sharded:
            fasta = directory / "database.fasta"
            shifted = str.maketrans("ACDEFGHIKLMNPQRSTVWY", "CDEFGHIKLMNPQRSTVWYA")
            fasta.write_text(
                "".join(
                    line if line.startswith(">") else line.translate(shifted)
                    for line in fasta.read_text().splitlines(keepends=True)
                )
            )
            with pytest.raises(CatalogMismatchError, match="database content"):
                sharded.search(QUERIES[0], evalue=EVALUE)

    def test_reopened_engine_searches_the_rebuilt_index(
        self, tmp_path, backend_database, pam30_matrix, gap8, monolithic
    ):
        """An engine's workers die with it: the reopened engine's own workers
        load the rebuilt catalog, so its queries succeed."""
        from repro.scoring.gaps import FixedGapModel

        directory = tmp_path / "recycled"
        ShardedIndexBuilder(
            pam30_matrix, FixedGapModel(-4), shard_count=2
        ).build(backend_database, directory)
        with ShardedEngine.open(directory, backend="processes:2") as first:
            assert len(first.search(QUERIES[0], min_score=20)) >= 0
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            backend_database, directory
        )
        with ShardedEngine.open(directory, backend="processes:2") as second:
            got = second.search(QUERIES[0], evalue=EVALUE)
            expected = monolithic.search(QUERIES[0], evalue=EVALUE)
            assert hit_signature(got.hits) == hit_signature(expected.hits)

    def test_a_killed_worker_fails_one_query_and_the_next_runs_on_fresh_workers(
        self, monkeypatch, index_directories, expected_signatures
    ):
        """A worker that dies outright breaks the pool: the query in flight is
        one failed outcome, and the engine replaces the pool for the next,
        which answers as ``OasisEngine.build`` does."""
        with ShardedEngine.open(index_directories[4], backend="processes:2") as sharded:
            # Spawned workers import the task function by name: this one
            # exits the worker process without a word.
            monkeypatch.setattr(engine_module, "run_shard_search", proc_kill_worker)
            report = sharded.search_many(QUERIES[:1], workers=1, evalue=EVALUE)
            monkeypatch.undo()
            (outcome,) = report.outcomes
            assert report.statistics.failed == 1
            assert "BrokenProcessPool" in outcome.error
            got = sharded.search(QUERIES[0], evalue=EVALUE)
        assert hit_signature(got.hits) == expected_signatures[QUERIES[0]]

    def test_timeout_honoured_across_processes(self, index_directories):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            result = sharded.execute(
                QUERIES[0], evalue=EVALUE, time_budget=1e-9
            ).result()
            assert result.parameters.get("timed_out") is True

    def test_expired_task_answers_without_opening_the_shard(self, tmp_path):
        """A task that outwaited its deadline in the pool queue costs nothing.

        The directory does not exist: had the worker tried to open the
        catalog, this would raise instead of returning.
        """
        task = ShardSearchTask(
            directory=str(tmp_path / "never-built"),
            shard=0,
            root_symbols=b"\x00",
            request=SearchRequest("wkddgngyisaae", min_score=20),
            matrix=pam30(),
            deadline_epoch=time.time() - 1.0,
            buffer_pool_bytes=1 << 16,
            fingerprint={},
            database_digest="",
        )
        result, spans = run_shard_search(task)
        assert result.hits == [] and result.query == "WKDDGNGYISAAE"
        assert result.parameters == {"timed_out": True}
        assert result.statistics is None and spans == []

    def test_batch_timeout_flag_survives_process_scatter(self, index_directories):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            report = sharded.search_many(
                QUERIES, workers=2, evalue=EVALUE, timeout=1e-9
            )
            assert report.statistics.timed_out == len(QUERIES)

    def test_an_abort_cancels_the_partition_tasks_not_yet_started(
        self, index_directories, monkeypatch
    ):
        """One worker, four partitions: an abort once the tasks are
        submitted cancels those still queued when the scatter polls the
        execution's abort flag, and they never run."""
        wait = engine_module.futures_wait
        with ShardedEngine.open(index_directories[4], backend="processes:1") as sharded:
            execution = sharded.execute(QUERIES[0], evalue=EVALUE)

            def abort_then_wait(pending, timeout):
                execution.abort()
                return wait(pending, timeout=timeout)

            monkeypatch.setattr(engine_module, "futures_wait", abort_then_wait)
            result = execution.result()
        rows = result.parameters["shard_stats"]
        assert len(rows) == 4
        assert result.parameters["aborted"] is True and execution.aborted
        assert 1 <= sum(row["aborted"] for row in rows) < 4

    def test_result_after_close_raises(self, index_directories):
        sharded = ShardedEngine.open(index_directories[2], backend="processes:2")
        execution = sharded.execute(QUERIES[0], evalue=EVALUE)
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            execution.result()

    def test_search_after_close_raises(self, index_directories):
        sharded = ShardedEngine.open(index_directories[2], backend="processes:2")
        assert len(sharded.search(QUERIES[0], evalue=EVALUE)) > 0
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.search(QUERIES[0], evalue=EVALUE)


class FakePool:
    """Stands in for a process pool: records how it was shut down."""

    def __init__(self):
        self.shutdowns = []

    def shutdown(self, wait=True, **kwargs):
        self.shutdowns.append(wait)


class TestTheEnginesPool:
    """A process engine owns one pool: made on first scatter, shut at close."""

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_a_serial_engine_makes_no_pool(self, index_directories, shard_count):
        with ShardedEngine.open(index_directories[shard_count]) as sharded:
            sharded.search(QUERIES[0], evalue=EVALUE)
            sharded.search_many(QUERIES, workers=2, evalue=EVALUE)
            assert sharded._pool is None

    def test_streaming_on_a_process_engine_makes_no_pool(
        self, index_directories, expected_signatures
    ):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            streamed = list(sharded.search_online(QUERIES[0], evalue=EVALUE))
            assert hit_signature(streamed) == expected_signatures[QUERIES[0]]
            assert sharded._pool is None

    def test_the_pool_is_made_on_the_first_scatter_and_kept(self, index_directories):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            assert sharded._pool is None
            sharded.search(QUERIES[0], evalue=EVALUE)
            pool = sharded._pool
            assert pool is not None
            sharded.search(QUERIES[1], evalue=EVALUE)
            assert sharded._pool is pool

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_spec_sizes_the_pool(self, index_directories, workers):
        with ShardedEngine.open(
            index_directories[4], backend=f"processes:{workers}"
        ) as sharded:
            sharded.search(QUERIES[0], evalue=EVALUE)
            assert sharded._pool._max_workers == workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_threaded_batch_scatters_through_one_pool(
        self, monkeypatch, index_directories, expected_signatures, workers
    ):
        made = []

        def counting_spawn_pool(count):
            made.append(count)
            return spawn_pool(count)

        monkeypatch.setattr(engine_module, "spawn_pool", counting_spawn_pool)
        interval = sys.getswitchinterval()
        # More batch threads than cores, switching often: a check-then-make
        # race on the pool would make a second one.
        sys.setswitchinterval(1e-6)
        try:
            with ShardedEngine.open(index_directories[4], backend="processes:2") as sharded:
                report = sharded.search_many(QUERIES * 2, workers=workers, evalue=EVALUE)
        finally:
            sys.setswitchinterval(interval)
        assert made == [2]
        assert report.statistics.failed == 0
        for query, result in report:
            assert hit_signature(result.hits) == expected_signatures[query]

    def test_close_shuts_the_workers_down_and_is_idempotent(self, index_directories):
        sharded = ShardedEngine.open(index_directories[2], backend="processes:2")
        sharded.search(QUERIES[0], evalue=EVALUE)
        workers = list(sharded._pool._processes.values())
        assert workers and all(worker.is_alive() for worker in workers)
        sharded.close()
        assert sharded._pool is None
        assert not any(worker.is_alive() for worker in workers)
        sharded.close()

    def test_a_closed_engine_makes_no_pool(self, index_directories):
        sharded = ShardedEngine.open(index_directories[2], backend="processes:2")
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded._process_pool()
        assert sharded._pool is None

    def test_discarding_the_current_pool_shuts_it_without_waiting(self, index_directories):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            broken = sharded._pool = FakePool()
            sharded._discard_pool(broken)
            assert sharded._pool is None
            assert broken.shutdowns == [False]

    def test_a_stale_broken_pool_does_not_discard_its_replacement(self, index_directories):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            stale, replacement = FakePool(), FakePool()
            sharded._pool = replacement
            sharded._discard_pool(stale)
            assert sharded._pool is replacement
            assert stale.shutdowns == [] and replacement.shutdowns == []
            sharded._pool = None

    def test_a_crash_under_a_threaded_batch_fails_its_queries_not_the_engine(
        self, monkeypatch, index_directories, expected_signatures
    ):
        with ShardedEngine.open(index_directories[4], backend="processes:2") as sharded:
            monkeypatch.setattr(engine_module, "run_shard_search", proc_kill_worker)
            report = sharded.search_many(QUERIES, workers=3, evalue=EVALUE)
            monkeypatch.undo()
            assert report.statistics.failed == len(QUERIES)
            assert all("BrokenProcessPool" in outcome.error for outcome in report.outcomes)
            again = sharded.search_many(QUERIES, workers=3, evalue=EVALUE)
        assert again.statistics.failed == 0
        for query, result in again:
            assert hit_signature(result.hits) == expected_signatures[query]


class TestOneImage:
    def test_the_image_is_the_same_whatever_the_partition_count(
        self, index_directories, backend_database
    ):
        images = {
            shard_count: glob.glob(os.path.join(directory, "*.oasis"))
            for shard_count, directory in index_directories.items()
        }
        assert all(len(paths) == 1 for paths in images.values())
        contents = {pathlib.Path(paths[0]).read_bytes() for paths in images.values()}
        assert len(contents) == 1

    def test_the_catalog_records_the_partitions_and_one_entry_spanning_the_database(
        self, index_directories, backend_database
    ):
        from repro.sharding import ShardCatalog

        catalog = ShardCatalog.load(index_directories[4])
        assert catalog.partitions == 4
        (entry,) = catalog.shards
        assert (entry.start_sequence, entry.stop_sequence) == (0, len(backend_database))
        assert entry.residues == backend_database.total_symbols


class TestBufferBudgeting:
    def test_budgets_proportional_to_residues(self):
        budgets = shard_pool_budgets(1000, [600, 300, 100], block_size=10)
        assert budgets == [600, 300, 100]

    def test_one_frame_floor_when_budget_is_tiny(self):
        # Total budget far below shard_count * block_size: nobody may round
        # down to a zero-frame pool.
        budgets = shard_pool_budgets(64, [500, 300, 200], block_size=512)
        assert budgets == [512, 512, 512]

    def test_floor_applies_to_small_shards_only(self):
        budgets = shard_pool_budgets(10_000, [9_000, 500, 500], block_size=1024)
        assert budgets[0] == 9_000
        assert budgets[1] == budgets[2] == 1024

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            shard_pool_budgets(1000, [], block_size=512)
        with pytest.raises(ValueError):
            shard_pool_budgets(1000, [1, 2], block_size=0)

    @pytest.mark.parametrize(
        "budget, expected", [(2 * BLOCK_SIZE, 2 * BLOCK_SIZE), (64, BLOCK_SIZE)]
    )
    def test_open_gives_the_image_the_whole_budget_at_least_one_frame(
        self, index_directories, budget, expected
    ):
        with ShardedEngine.open(index_directories[4], buffer_pool_bytes=budget) as sharded:
            assert sharded.buffer_pool_bytes == expected
            assert sharded.cursor.pool.frame_count == expected // BLOCK_SIZE
            assert len(sharded.search(QUERIES[0], evalue=EVALUE)) > 0
