"""Backend coverage for the sharded subsystem: scatter, builds, budgeting.

The load-bearing property is backend *transparency*: for the same catalog
and queries, the ``serial`` (default) and ``processes:N`` scatter backends
must produce byte-identical ordered results (and identical to the
monolithic engine), whichever backend built the index.  Alongside parity,
this module covers the failure paths the process backend introduces
(worker errors surface per query, deadlines hold across processes), the
refusal of a thread scatter, and the proportional per-shard buffer
budgeting.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random
import threading
import time

import pytest

from repro.core.engine import OasisEngine
from repro.core.oasis import QueryExecution
from repro.core.request import SearchRequest
from repro.exec import BackendSpec, ProcessBackend, SerialBackend, ThreadBackend
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder, shard_pool_budgets
from repro.sharding.engine import check_scatter_backend
from repro.sharding.remote import ShardSearchTask, run_shard_search
from repro.storage.buffer_pool import BufferPool
from repro.testing import random_protein

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

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_over_tight_pools_matches_monolithic(
        self, monkeypatch, index_directories, expected_signatures, backend, shard_count
    ):
        """One frame per shard and sleeping misses: every page is fought over.

        The sleep (outside the pool lock, as a disk read would be) lets the
        batch threads of this process interleave at every miss; worker
        processes read without it.
        """
        read_physical = BufferPool._read_physical

        def slow_read(pool, block):
            time.sleep(1e-5)
            return read_physical(pool, block)

        monkeypatch.setattr(BufferPool, "_read_physical", slow_read)
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

    def test_worker_outcome_equals_the_in_process_shard_result(self, index_directories):
        """What a worker sends back is what ``execution.result()`` builds here.

        Same shard, same query, same (cold) pool budget: the hits, the global
        E-values (the task carries the model, so the floats are bit-identical),
        the alignments and every work counter agree -- only the clock differs.
        """
        query = QUERIES[0]
        options = dict(evalue=EVALUE, compute_alignments=True)
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            scattered = sharded.execute(query, **options)
            remote = sharded._scatter(scattered, None)
            local = [shard.execute(query, **options).result() for shard in sharded.shards]
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
            assert counters == reference, f"shard {shard}"
        # The worker's results are the shard results: nothing was built here.
        assert scattered.executions == []

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

    def test_shared_backend_instance_is_caller_owned(
        self, index_directories, expected_signatures
    ):
        with SerialBackend() as shared:
            with ShardedEngine.open(index_directories[2], backend=shared) as sharded:
                got = sharded.search(QUERIES[0], evalue=EVALUE)
                assert hit_signature(got.hits) == expected_signatures[QUERIES[0]]
            # The engine closed, but the caller's backend must survive.
            assert not shared.closed
            assert shared.submit(len, "abc").result() == 3

    def test_the_default_scatter_is_serial(self, index_directories):
        with ShardedEngine.open(index_directories[2]) as sharded:
            assert sharded.backend_spec == "serial"
            assert "serial" in repr(sharded)


class TestSerialScatter:
    """The default scatter is the plain loop: each shard on the calling thread, in order."""

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_every_shard_runs_on_the_calling_thread_in_order(
        self, monkeypatch, index_directories, expected_signatures, shard_count
    ):
        ran = []
        result = QueryExecution.result

        def recording(execution):
            ran.append((threading.current_thread(), execution))
            return result(execution)

        monkeypatch.setattr(QueryExecution, "result", recording)
        with ShardedEngine.open(index_directories[shard_count]) as sharded:
            scattered = sharded.execute(QUERIES[0], evalue=EVALUE)
            got = scattered.result()
        assert hit_signature(got.hits) == expected_signatures[QUERIES[0]]
        assert [thread for thread, _ in ran] == [threading.current_thread()] * shard_count
        assert [execution for _, execution in ran] == scattered.executions

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
        assert ran == [threading.current_thread()] * 2


#: A thread scatter's refusal names the two forms a scatter accepts.
BOTH_FORMS = r"'serial' or 'processes\[:N\]'"


class TestScatterBackendForms:
    """A scatter is ``serial`` or ``processes[:N]``; threads ran slower than the loop."""

    @pytest.mark.parametrize(
        "backend, kind",
        [
            (None, "serial"),
            ("serial", "serial"),
            ("sync", "serial"),
            (SerialBackend(), "serial"),
            ("processes", "processes"),
            ("procs:3", "processes"),
            (BackendSpec("processes", 2), "processes"),
        ],
    )
    def test_an_accepted_form_names_its_kind(self, backend, kind):
        assert check_scatter_backend(backend) == kind

    @pytest.mark.parametrize("backend", ["threads", "threads:2", BackendSpec("threads", 2)])
    def test_a_refused_form_is_a_value_error(self, backend):
        with pytest.raises(ValueError, match=BOTH_FORMS):
            check_scatter_backend(backend)

    @pytest.mark.parametrize("backend", ["bogus", "fibers:9"])
    def test_an_unknown_kind_names_only_the_scatter_forms(self, index_directories, backend):
        with pytest.raises(ValueError, match=BOTH_FORMS) as refused:
            ShardedEngine.open(index_directories[2], backend=backend)
        assert "unknown backend" in str(refused.value)
        assert "threads" not in str(refused.value)

    def test_a_bad_worker_count_keeps_its_own_message(self):
        with pytest.raises(ValueError, match="bad worker count"):
            check_scatter_backend("processes:x")

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_a_bare_process_spec_gets_one_worker_per_shard(self, index_directories, shard_count):
        with ShardedEngine.open(index_directories[shard_count], backend="processes") as sharded:
            assert sharded.backend_spec == f"processes:{shard_count}"

    @pytest.mark.parametrize("backend", ["threads", "threads:2", "thread:4", ThreadBackend(2)])
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
                    opened.shards,
                    opened.database,
                    opened.matrix,
                    opened.gap_model,
                    catalog=opened.catalog,
                    directory=opened.directory,
                    shard_buffer_bytes=opened.shard_buffer_bytes,
                    backend="threads:1",
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

    def test_reopened_engine_recovers_long_lived_workers(
        self, tmp_path, backend_database, pam30_matrix, gap8, monolithic
    ):
        """Workers of a shared backend must not pin a stale catalog forever.

        With a caller-owned ProcessBackend the workers outlive the engine;
        after a rebuild + reopen, their first mismatch evicts the cached
        catalog and reloads, so the *new* engine's queries succeed instead
        of failing CatalogMismatchError until the backend is recycled.
        """
        from repro.scoring.gaps import FixedGapModel

        directory = tmp_path / "recycled"
        ShardedIndexBuilder(
            pam30_matrix, FixedGapModel(-4), shard_count=2
        ).build(backend_database, directory)
        with ProcessBackend(2) as shared:
            with ShardedEngine.open(directory, backend=shared) as first:
                assert len(first.search(QUERIES[0], min_score=20)) >= 0
            ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
                backend_database, directory
            )
            with ShardedEngine.open(directory, backend=shared) as second:
                got = second.search(QUERIES[0], evalue=EVALUE)
                expected = monolithic.search(QUERIES[0], evalue=EVALUE)
                assert hit_signature(got.hits) == hit_signature(expected.hits)

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
            shard_index=0,
            request=SearchRequest("wkddgngyisaae", min_score=20),
            deadline_epoch=time.time() - 1.0,
            buffer_pool_bytes=1 << 16,
            fingerprint={},
            database_digest="",
        )
        result, spans, metrics = run_shard_search(task)
        assert result.hits == [] and result.query == "WKDDGNGYISAAE"
        assert result.parameters == {"timed_out": True}
        assert result.statistics is None and spans == [] and metrics == {}

    def test_batch_timeout_flag_survives_process_scatter(self, index_directories):
        with ShardedEngine.open(index_directories[2], backend="processes:2") as sharded:
            report = sharded.search_many(
                QUERIES, workers=2, evalue=EVALUE, timeout=1e-9
            )
            assert report.statistics.timed_out == len(QUERIES)

    def test_result_after_close_raises(self, index_directories):
        sharded = ShardedEngine.open(index_directories[2], backend="processes:2")
        execution = sharded.execute(QUERIES[0], evalue=EVALUE)
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            execution.result()


class TestParallelShardBuilds:
    @pytest.mark.parametrize("backend", ["threads:2", "processes:2"])
    def test_backend_builds_identical_images(
        self, tmp_path, backend_database, pam30_matrix, gap8, backend
    ):
        """Whatever builds the shards, the bytes on disk are the same."""

        def digest_directory(directory):
            digests = {}
            for path in sorted(glob.glob(os.path.join(str(directory), "*"))):
                with open(path, "rb") as handle:
                    digests[os.path.basename(path)] = hashlib.sha256(
                        handle.read()
                    ).hexdigest()
            return digests

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / backend.replace(":", "-")
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=3).build(
            backend_database, serial_dir
        )
        ShardedIndexBuilder(
            pam30_matrix, gap8, shard_count=3, backend=backend
        ).build(backend_database, parallel_dir)
        assert digest_directory(serial_dir) == digest_directory(parallel_dir)

    def test_parallel_build_opens_and_searches(
        self, tmp_path, backend_database, pam30_matrix, gap8, expected_signatures
    ):
        with ShardedEngine.build_on_disk(
            backend_database,
            tmp_path / "built-parallel",
            pam30_matrix,
            gap8,
            shard_count=4,
            build_backend="threads:4",
        ) as sharded:
            got = sharded.search(QUERIES[0], evalue=EVALUE)
            assert hit_signature(got.hits) == expected_signatures[QUERIES[0]]


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

    def test_open_assigns_proportional_pools_with_floor(
        self, index_directories, backend_database
    ):
        # A budget below shard_count * block_size: every pool must still get
        # one frame, and the search must still answer correctly.
        with ShardedEngine.open(
            index_directories[4], buffer_pool_bytes=2 * BLOCK_SIZE
        ) as sharded:
            assert len(sharded.shard_buffer_bytes) == 4
            for shard, budget in zip(sharded.shards, sharded.shard_buffer_bytes):
                assert budget >= BLOCK_SIZE
                assert shard.cursor.pool.frame_count >= 1
            assert len(sharded.search(QUERIES[0], evalue=EVALUE)) > 0

    def test_open_budgets_follow_catalog_residues(self, index_directories):
        with ShardedEngine.open(
            index_directories[2], buffer_pool_bytes=1_000_000
        ) as sharded:
            entries = sharded.catalog.shards
            budgets = sharded.shard_buffer_bytes
            total = sum(entry.residues for entry in entries)
            for entry, budget in zip(entries, budgets):
                assert budget == max(
                    BLOCK_SIZE, 1_000_000 * entry.residues // total
                )
