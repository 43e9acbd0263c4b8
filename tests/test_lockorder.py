"""The runtime lock-order detector, unit-level and wired into the engine.

Unit level: an ABBA acquisition order must raise
:class:`~repro.analysis.lockorder.LockOrderError` naming the cycle --
deterministically, from the accumulated order graph, whether or not the
interleaving actually deadlocked.  Reentrancy, consistent nesting and
release-order tolerance must all stay silent.

Integration level: a full sharded ``processes:2`` search (plus the
always-in-process streaming path) under instrumented ``BufferPool`` and
backend locks must come back cycle-free, with the instrumentation proven
live by the monitor's acquisition counter -- and a deliberate ABBA on those
same real locks must be reported.  A threaded batch over one disk pool of
two frames, and of one, must keep its hits and its request count; forced
onto the Python body of the pool (the C body takes no Python lock), it
must also stay cycle-free and never read a page while it holds the pool
lock.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from repro.analysis.lockorder import LockOrderError, LockOrderMonitor, OrderedLock
from repro.core.engine import OasisEngine
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from repro.testing import instrument_lock_order
from support import python_pool_body, random_protein

QUERY = "WKDDGNGYISAAE"
EVALUE = 1_000.0
BLOCK_SIZE = 512
#: Below every image here, so each engine searches through a clock pool and
#: its lock: an image that fits its pool is read into memory, without one.
TIGHT_POOL_BYTES = 2 * BLOCK_SIZE


def make_locks(monitor, *names):
    return [OrderedLock(threading.Lock(), name, monitor) for name in names]


class TestMonitorUnit:
    def test_single_threaded_abba_is_reported(self):
        monitor = LockOrderMonitor()
        a, b = make_locks(monitor, "A", "B")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError) as caught:
            with b:
                with a:
                    pass
        assert caught.value.cycle == ["A", "B"]
        assert "A -> B -> A" in str(caught.value)

    def test_cross_thread_abba_is_reported(self):
        monitor = LockOrderMonitor()
        a, b = make_locks(monitor, "A", "B")

        def take_ab():
            with a:
                with b:
                    pass

        worker = threading.Thread(target=take_ab)
        worker.start()
        worker.join()
        # This thread now closes the cycle in the *shared* graph, even
        # though neither thread ever deadlocked.
        with pytest.raises(LockOrderError):
            with b:
                with a:
                    pass

    def test_consistent_order_is_silent(self):
        monitor = LockOrderMonitor()
        a, b, c = make_locks(monitor, "A", "B", "C")
        for _ in range(3):
            with a:
                with b:
                    with c:
                        pass
        monitor.assert_acyclic()
        assert monitor.edges() == [("A", "B"), ("A", "C"), ("B", "C")]

    def test_rlock_reentrancy_adds_no_edge(self):
        monitor = LockOrderMonitor()
        lock = OrderedLock(threading.RLock(), "R", monitor)
        with lock:
            with lock:
                pass
        monitor.assert_acyclic()
        assert monitor.edges() == []
        assert monitor.acquisition_count == 2

    def test_real_lock_is_released_when_cycle_raises(self):
        # The error fires inside acquire(); the wrapper must not leave the
        # underlying primitive held while the exception unwinds.
        monitor = LockOrderMonitor()
        a, b = make_locks(monitor, "A", "B")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError):
            with b:
                with a:
                    pass
        assert not a.locked()
        assert not b.locked()

    def test_nonblocking_acquire_failure_records_nothing(self):
        monitor = LockOrderMonitor()
        lock = OrderedLock(threading.Lock(), "L", monitor)
        with lock:
            grabbed = []

            def try_take():
                grabbed.append(lock.acquire(blocking=False))

            worker = threading.Thread(target=try_take)
            worker.start()
            worker.join()
            assert grabbed == [False]
        assert monitor.acquisition_count == 1

    def test_reset_clears_the_graph(self):
        monitor = LockOrderMonitor()
        a, b = make_locks(monitor, "A", "B")
        with a:
            with b:
                pass
        monitor.reset()
        # The reversed order is now first sight, not a cycle.
        with b:
            with a:
                pass
        monitor.assert_acyclic()
        assert monitor.edges() == [("B", "A")]


@pytest.fixture(scope="module")
def lockorder_database() -> SequenceDatabase:
    rng = random.Random(11)
    texts = [
        random_protein(rng, rng.randint(10, 30)) + QUERY + random_protein(rng, 10)
        for _ in range(6)
    ]
    texts += [random_protein(rng, rng.randint(20, 60)) for _ in range(6)]
    return SequenceDatabase.from_texts(
        texts, alphabet=PROTEIN_ALPHABET, name="lockorderable"
    )


@pytest.fixture(scope="module")
def sharded_directory(tmp_path_factory, lockorder_database, pam30_matrix, gap8):
    directory = tmp_path_factory.mktemp("lockorder-index") / "index"
    ShardedIndexBuilder(
        pam30_matrix, gap8, shard_count=2, block_size=BLOCK_SIZE
    ).build(lockorder_database, directory)
    return str(directory)


def on_the_python_body(engine):
    """Serve ``engine``'s pool by the Python body of ``BufferPool.page``, as
    where the compiled step does not build: the ``live`` kernel reads every
    node through ``siblings()``, and each request takes the pool lock."""
    assert engine.kernel == "live"
    return python_pool_body(engine.cursor.pool)


class TestEngineIntegration:
    @pytest.mark.parametrize("kernel", [None, "live"], ids=["default", "python-body"])
    def test_disk_engine_search_is_cycle_free(
        self, lockorder_database, pam30_matrix, gap8, tmp_path, kernel
    ):
        monitor = LockOrderMonitor()
        engine = OasisEngine.build_on_disk(
            lockorder_database,
            pam30_matrix,
            str(tmp_path / "mono.oasis"),
            gap_model=gap8,
            block_size=BLOCK_SIZE,
            buffer_pool_bytes=TIGHT_POOL_BYTES,
            kernel=kernel,
        )
        try:
            if kernel == "live":
                on_the_python_body(engine)
            # The C body is bound on the instance; the Python body is the class's.
            python_body = "page" not in vars(engine.cursor.pool)
            installed = instrument_lock_order(monitor, engine.cursor.pool)
            # The pool has exactly one lock: reads are positional (pread),
            # so there is no file-offset lock beside it.
            assert installed == ["BufferPool[0]._lock"]
            result = engine.search(QUERY, evalue=EVALUE)
            acquisitions = monitor.acquisition_count
        finally:
            engine.cursor.close()
        assert result.hits and result.statistics.buffer_misses > 0
        # The C body holds no Python lock; the Python body takes it per request.
        assert (acquisitions > 0) == python_body
        monitor.assert_acyclic()

    def test_threaded_batch_over_a_two_frame_pool(
        self, monkeypatch, lockorder_database, pam30_matrix, gap8, tmp_path
    ):
        """Four threads share one pool that holds two pages.

        The C body releases the GIL around each read, and the Python body
        reads outside its lock, so the threads interleave inside one
        another's cursor calls.  The hits must not move; the requests of
        each query are fixed, so only their split into hits and misses may.
        """
        self.check_threaded_batch(
            monkeypatch, lockorder_database, pam30_matrix, gap8, tmp_path, frames=2
        )

    def test_threaded_batch_over_a_one_frame_pool(
        self, monkeypatch, lockorder_database, pam30_matrix, gap8, tmp_path
    ):
        """The same with one frame: every install evicts the page another
        thread may be reading, which it must still read whole."""
        self.check_threaded_batch(
            monkeypatch, lockorder_database, pam30_matrix, gap8, tmp_path, frames=1
        )

    @staticmethod
    def check_threaded_batch(monkeypatch, database, matrix, gap_model, tmp_path, frames):
        """The default engine (the compiled page step where it builds), then
        one forced onto the Python body, whose lock and reads are watched."""
        queries = [QUERY] + [
            database[index].text[5:17] for index in range(0, len(database), 2)
        ]

        def threaded_batch(engine):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch threads inside cursor calls too
            try:
                return engine.search_many(queries, workers=4, timeout=60, evalue=EVALUE).results()
            finally:
                sys.setswitchinterval(interval)

        def signature(results):
            return [[(hit.sequence_index, hit.score) for hit in result] for result in results]

        def open_engine(kernel):
            return OasisEngine.build_on_disk(
                database,
                matrix,
                str(tmp_path / f"{frames}-frame-{kernel}.oasis"),
                gap_model=gap_model,
                block_size=BLOCK_SIZE,
                buffer_pool_bytes=frames * BLOCK_SIZE,
                kernel=kernel,
            )

        engine = open_engine(None)
        try:
            pool = engine.cursor.pool
            assert pool.frame_count == frames
            serial = engine.search_many(queries, workers=1, evalue=EVALUE).results()
            serial_requests = pool.statistics.requests
            pool.clear()
            pool.reset_statistics()
            threaded = threaded_batch(engine)
        finally:
            engine.cursor.close()
        assert any(signature(serial))
        assert signature(threaded) == signature(serial)
        assert pool.statistics.requests == serial_requests
        assert pool.statistics.misses > 0

        monitor = LockOrderMonitor()
        reads, locked_reads = [], []
        pread = os.pread

        def checked_pread(*args):
            # No read while this thread holds the pool lock: the monitor keeps
            # a stack of the instrumented locks each thread holds.
            reads.append(1)
            if "BufferPool[0]._lock" in monitor._stack():
                locked_reads.append(args)
            return pread(*args)

        engine = open_engine("live")
        try:
            pool = on_the_python_body(engine)
            assert instrument_lock_order(monitor, pool) == ["BufferPool[0]._lock"]
            monkeypatch.setattr(os, "pread", checked_pread)
            threaded = threaded_batch(engine)
        finally:
            engine.cursor.close()
        assert signature(threaded) == signature(serial)
        assert monitor.acquisition_count > 0
        monitor.assert_acyclic()
        assert pool.statistics.requests == serial_requests
        assert pool.statistics.misses > 0
        assert len(reads) == pool.statistics.misses
        assert locked_reads == []

    def test_sharded_process_search_is_cycle_free(self, sharded_directory):
        """The headline scenario: processes:2 scatter + streaming, no cycles.

        Process scatter itself runs in worker processes, but the parent
        still owns the engine's pool lock, and the streaming path
        (``search_online``) always executes in-process against the parent's
        per-shard buffer pools -- so the instrumented locks see real
        traffic from both paths.
        """
        monitor = LockOrderMonitor()
        with ShardedEngine.open(
            sharded_directory, buffer_pool_bytes=TIGHT_POOL_BYTES, backend="processes:2"
        ) as engine:
            pools = [engine.cursor.pool]
            installed = instrument_lock_order(monitor, engine, *pools)
            assert any("_pool_lock" in name for name in installed)
            scattered = engine.search(QUERY, evalue=EVALUE).hits
            streamed = list(engine.search_online(QUERY, evalue=EVALUE))
        assert scattered
        assert streamed
        assert monitor.acquisition_count > 0
        monitor.assert_acyclic()

    def test_deliberate_abba_on_real_pool_locks_is_reported(self, sharded_directory):
        monitor = LockOrderMonitor()
        with ShardedEngine.open(
            sharded_directory, buffer_pool_bytes=TIGHT_POOL_BYTES, backend="processes:2"
        ) as engine:
            pool = engine.cursor.pool
            instrument_lock_order(monitor, engine, pool)
            with engine._pool_lock:
                with pool._lock:
                    pass
            with pytest.raises(LockOrderError) as caught:
                with pool._lock:
                    with engine._pool_lock:
                        pass
        assert "._pool_lock" in str(caught.value)
        assert "BufferPool[1]._lock" in str(caught.value)
