"""Unit tests for the background resource sampler (`repro.obs.sampler`)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import ResourceSampler, Tracer, read_rss_bytes
from repro.obs.sampler import PROC_STATUS_PATH


class FakePool:
    def __init__(self, resident=8.0, frames=16.0, hit_ratio=0.5):
        self.state = {
            "resident_pages": resident,
            "frame_count": frames,
            "occupancy": resident / frames,
            "hit_ratio": hit_ratio,
        }

    def resource_sample(self):
        return dict(self.state)


class FakeBackend:
    def __init__(self, depth=3.0):
        self.depth = depth

    def queue_depth(self):
        return self.depth


class TestReadRss:
    def test_reads_vmrss_from_status_format(self, tmp_path):
        status = tmp_path / "status"
        status.write_text("Name:\tx\nVmRSS:\t  1234 kB\nThreads:\t4\n")
        assert read_rss_bytes(str(status)) == 1234 * 1024

    def test_missing_file_returns_none(self, tmp_path):
        assert read_rss_bytes(str(tmp_path / "absent")) is None

    def test_missing_field_returns_none(self, tmp_path):
        status = tmp_path / "status"
        status.write_text("Name:\tx\n")
        assert read_rss_bytes(str(status)) is None

    def test_real_procfs_when_present(self):
        # On Linux this is a positive byte count; elsewhere None is correct.
        value = read_rss_bytes(PROC_STATUS_PATH)
        assert value is None or value > 0


class TestLifecycle:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceSampler(None, interval=0.0)
        with pytest.raises(ValueError):
            ResourceSampler(Tracer(), interval=-1.0)

    def test_disabled_sampler_is_inert(self):
        sampler = ResourceSampler(None, pools=[FakePool()], backends=[FakeBackend()])
        assert not sampler.enabled
        sampler.start()
        assert sampler._thread is None
        assert sampler.sample_once() is None
        sampler.stop()
        assert sampler.samples == []

    def test_context_manager_samples_and_sets_gauges(self):
        tracer = Tracer()
        sampler = ResourceSampler(
            tracer, interval=0.005, pools=[FakePool()], backends=[FakeBackend()]
        )
        with sampler:
            pass
        # At least the immediate start sample and the final stop sample.
        assert len(sampler.samples) >= 2
        names = set(tracer.metrics.snapshot())
        assert {
            "sampler.rss_bytes",
            "sampler.pool_occupancy",
            "sampler.pool_hit_ratio",
            "sampler.queue_depth",
            "sampler.threads",
            "sampler.ticks",
        } <= names
        assert tracer.metrics.gauge("sampler.queue_depth").value == 3.0
        assert tracer.metrics.gauge("sampler.pool_occupancy").value == 0.5
        assert tracer.metrics.counter("sampler.ticks").value == len(sampler.samples)

    def test_stop_is_idempotent_and_start_twice_is_safe(self):
        sampler = ResourceSampler(Tracer(), interval=0.005)
        sampler.start()
        sampler.start()
        sampler.stop()
        count = len(sampler.samples)
        sampler.stop()
        assert len(sampler.samples) == count


class TestSampling:
    def test_pool_aggregation_over_multiple_pools(self):
        sampler = ResourceSampler(
            Tracer(),
            pools=[
                FakePool(resident=4.0, frames=8.0, hit_ratio=1.0),
                FakePool(resident=8.0, frames=8.0, hit_ratio=0.0),
            ],
        )
        sample = sampler.sample_once()
        assert sample.pool_resident_pages == 12.0
        # Frame-weighted occupancy: 12 resident over 16 frames.
        assert sample.pool_occupancy == pytest.approx(0.75)
        assert sample.pool_hit_ratio == pytest.approx(0.5)

    def test_queue_depth_sums_backends(self):
        sampler = ResourceSampler(
            Tracer(), backends=[FakeBackend(2.0), FakeBackend(5.0)]
        )
        assert sampler.sample_once().queue_depth == 7.0

    def test_no_taps_still_samples_process_state(self):
        sample = ResourceSampler(Tracer()).sample_once()
        assert sample.pool_occupancy == 0.0
        assert sample.queue_depth == 0.0
        assert sample.thread_count >= 1

    def test_samples_merge_through_snapshot_machinery(self):
        worker = Tracer()
        with ResourceSampler(worker, interval=0.005, backends=[FakeBackend(4.0)]):
            pass
        parent = Tracer()
        parent.metrics.merge_snapshot(worker.metrics.snapshot())
        assert parent.metrics.gauge("sampler.queue_depth").value == 4.0
        assert "sampler.ticks" in parent.metrics.render()


class TestForEngine:
    def test_discovers_sharded_engine_taps(self):
        class Cursor:
            def __init__(self):
                self.pool = FakePool()

        class SubEngine:
            def __init__(self):
                self.cursor = Cursor()

        class Sharded:
            def __init__(self):
                self.shards = [SubEngine(), SubEngine()]
                self._backend = FakeBackend()

        sampler = ResourceSampler.for_engine(Tracer(), Sharded())
        assert len(sampler.pools) == 2
        assert len(sampler.backends) == 1

    def test_monolithic_engine_without_pool_yields_no_taps(self):
        class Engine:
            cursor = object()

        sampler = ResourceSampler.for_engine(Tracer(), Engine())
        assert sampler.pools == []
        assert sampler.backends == []
        # Still useful: process state samples fine with no taps.
        assert sampler.sample_once() is not None

    def test_an_in_memory_engine_has_no_pool_tap(
        self, small_protein_database, pam30_matrix, gap8
    ):
        from repro.core.engine import OasisEngine

        engine = OasisEngine.build(small_protein_database, pam30_matrix, gap8)
        sampler = ResourceSampler.for_engine(Tracer(), engine)
        assert sampler.pools == [] and sampler.backends == []

    def test_a_disk_engine_taps_its_buffer_pool(
        self, tmp_path, small_protein_database, pam30_matrix, gap8
    ):
        from repro.core.engine import OasisEngine

        with OasisEngine.build_on_disk(
            small_protein_database,
            pam30_matrix,
            tmp_path / "index.oasis",
            gap8,
            block_size=512,
            buffer_pool_bytes=4096,
        ) as engine:
            sampler = ResourceSampler.for_engine(Tracer(), engine)
            assert sampler.pools == [engine.cursor.pool]
            engine.search("WKDDGNGYISAAE", min_score=20)
            sample = sampler.sample_once()
        assert sample.pool_resident_pages > 0
        assert 0.0 < sample.pool_occupancy <= 1.0
        assert 0.0 <= sample.pool_hit_ratio <= 1.0

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_an_opened_sharded_index_taps_every_shard_pool(
        self, tmp_path, small_protein_database, pam30_matrix, gap8, shard_count
    ):
        from repro.sharding import ShardedEngine

        with ShardedEngine.build_on_disk(
            small_protein_database,
            tmp_path / "index",
            pam30_matrix,
            gap8,
            shard_count=shard_count,
            block_size=512,
        ) as engine:
            sampler = ResourceSampler.for_engine(Tracer(), engine)
            assert sampler.pools == [shard.cursor.pool for shard in engine.shards]
            assert len(sampler.pools) == shard_count
            assert len(sampler.backends) == 1
            engine.search("WKDDGNGYISAAE", min_score=20)
            sample = sampler.sample_once()
        assert sample.pool_resident_pages > 0
        assert sample.queue_depth == 0.0  # nothing in flight between searches


def sampler_threads():
    return [t for t in threading.enumerate() if t.name == "repro-resource-sampler"]


class TestOnlineStreamSampling:
    """A sampler wrapped around a `search_online` stream, as `search --sample` does."""

    QUERY = "WKDDGNGYISAAE"

    @pytest.fixture
    def engine(self, small_protein_database, pam30_matrix, gap8):
        from repro.sharding import ShardedEngine

        with ShardedEngine.build(
            small_protein_database, pam30_matrix, gap8, shard_count=2
        ) as built:
            yield built

    def test_stream_is_sampled_for_its_lifetime(self, engine):
        tracer = Tracer()
        with ResourceSampler.for_engine(tracer, engine, interval=0.001) as sampler:
            hits = list(engine.search_online(self.QUERY, min_score=40, tracer=tracer))
        assert hits
        # The scatter backend is tapped; the start and stop samples bracket the stream.
        assert len(sampler.backends) == 1
        assert len(sampler.samples) >= 2
        snapshot = tracer.metrics.snapshot()
        assert snapshot["sampler.ticks"]["value"] == len(sampler.samples)
        assert "sampler.rss_bytes" in snapshot

    def test_abandoned_stream_stops_the_sampler(self, engine):
        tracer = Tracer()
        with ResourceSampler.for_engine(tracer, engine, interval=0.001):
            stream = engine.search_online(self.QUERY, min_score=40, tracer=tracer)
            next(stream)
            assert sampler_threads()
            stream.close()
        # The sampling thread wound down with the block around the stream.
        assert not sampler_threads()

    def test_streaming_results_identical_with_and_without_sampling(self, engine):
        tracer = Tracer()
        plain = list(engine.search_online(self.QUERY, min_score=40))
        with ResourceSampler.for_engine(tracer, engine, interval=0.001):
            sampled = list(engine.search_online(self.QUERY, min_score=40, tracer=tracer))
        assert [(h.sequence_index, h.score) for h in plain] == [
            (h.sequence_index, h.score) for h in sampled
        ]

    def test_no_sampler_without_tracer(self, engine):
        with ResourceSampler.for_engine(None, engine, interval=0.001) as sampler:
            stream = engine.search_online(self.QUERY, min_score=40)
            assert list(stream)
            assert not sampler_threads()
        assert sampler.samples == []
