"""Unit tests for the block file and the clock buffer pool."""

import time

import pytest

from repro.storage.blocks import BlockFile
from repro.storage.buffer_pool import BufferPool, Region


def resident(pool, region, block_in_region):
    """Whether the page is in one of the pool's frames (no request, no statistics)."""
    return pool._region_starts[region] + block_in_region in pool.table


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "data.blk"
    with BlockFile(path, block_size=64, create=True) as handle:
        for index in range(10):
            handle.write_block(index, bytes([index]) * 64)
    return BlockFile(path, block_size=64)


class TestBlockFile:
    def test_block_count(self, block_file):
        assert block_file.block_count == 10

    def test_read_block_contents(self, block_file):
        assert block_file.read_block(3) == bytes([3]) * 64

    def test_read_past_end_zero_padded(self, block_file):
        assert block_file.read_block(50) == b"\x00" * 64

    def test_read_counts(self, block_file):
        block_file.read_block(0)
        block_file.read_block(1)
        assert block_file.reads == 2

    def test_write_short_block_padded(self, tmp_path):
        with BlockFile(tmp_path / "x.blk", block_size=32, create=True) as handle:
            handle.write_block(0, b"abc")
            assert handle.read_block(0) == b"abc" + b"\x00" * 29

    def test_write_oversized_block_rejected(self, tmp_path):
        with BlockFile(tmp_path / "x.blk", block_size=8, create=True) as handle:
            with pytest.raises(ValueError):
                handle.write_block(0, b"123456789")

    def test_negative_block_rejected(self, block_file):
        with pytest.raises(ValueError):
            block_file.read_block(-1)

    def test_invalid_block_size(self, tmp_path):
        with pytest.raises(ValueError):
            BlockFile(tmp_path / "x.blk", block_size=0, create=True)

    def test_append_bytes_starts_on_boundary(self, tmp_path):
        with BlockFile(tmp_path / "x.blk", block_size=16, create=True) as handle:
            handle.write_block(0, b"header")
            start = handle.append_bytes(b"a" * 40)
            assert start == 1
            assert handle.block_count == 4  # header + ceil(40/16)


def make_pool(block_file, capacity_blocks):
    offsets = {Region.SYMBOLS: 0, Region.INTERNAL_NODES: 4, Region.LEAF_NODES: 7}
    return BufferPool(
        block_file,
        capacity_bytes=capacity_blocks * block_file.block_size,
        region_offsets=offsets,
    )


class TestBufferPool:
    def test_miss_then_hit(self, block_file):
        pool = make_pool(block_file, 4)
        first = pool.get_page(Region.SYMBOLS, 0)
        second = pool.get_page(Region.SYMBOLS, 0)
        assert first == second == bytes([0]) * 64
        assert pool.statistics.hits == 1
        assert pool.statistics.misses == 1
        assert pool.statistics.hit_ratio == pytest.approx(0.5)

    def test_region_offsets_applied(self, block_file):
        pool = make_pool(block_file, 4)
        # INTERNAL_NODES block 1 is absolute block 5.
        assert pool.get_page(Region.INTERNAL_NODES, 1) == bytes([5]) * 64

    def test_per_region_statistics(self, block_file):
        pool = make_pool(block_file, 4)
        pool.get_page(Region.SYMBOLS, 0)
        pool.get_page(Region.SYMBOLS, 0)
        pool.get_page(Region.LEAF_NODES, 0)
        assert pool.statistics.region_hit_ratio(Region.SYMBOLS) == pytest.approx(0.5)
        assert pool.statistics.region_hit_ratio(Region.LEAF_NODES) == 0.0
        assert pool.statistics.region_hit_ratio(Region.INTERNAL_NODES) == 0.0

    def test_eviction_when_capacity_exceeded(self, block_file):
        pool = make_pool(block_file, 2)
        pool.get_page(Region.SYMBOLS, 0)
        pool.get_page(Region.SYMBOLS, 1)
        pool.get_page(Region.SYMBOLS, 2)  # evicts one of the first two
        assert pool.resident_pages == 2

    def test_clock_gives_second_chance(self, block_file):
        pool = make_pool(block_file, 3)
        for block in range(3):
            pool.get_page(Region.SYMBOLS, block)
        # Every bit is set, so the first replacement sweeps the whole clock,
        # clears all three bits and takes the frame it started from (page 0).
        pool.get_page(Region.SYMBOLS, 3)
        assert not resident(pool, Region.SYMBOLS, 0)
        assert pool.statistics.evictions == 1
        # Pages 1 and 2 now have clear bits and the hand stands on page 1.
        # A hit sets page 1's bit again: the next sweep must pass over it
        # (second chance) and evict page 2, where FIFO would evict page 1.
        pool.get_page(Region.SYMBOLS, 1)
        pool.get_page(Region.SYMBOLS, 4)
        assert resident(pool, Region.SYMBOLS, 1)
        assert not resident(pool, Region.SYMBOLS, 2)
        assert pool.statistics.evictions == 2
        # The chance is spent: page 1's bit was cleared by that sweep, so it
        # is the victim of the next one (page 3's set bit is passed over).
        pool.get_page(Region.SYMBOLS, 5)
        assert not resident(pool, Region.SYMBOLS, 1)
        assert resident(pool, Region.SYMBOLS, 3)
        assert pool.statistics.evictions == 3

    def test_working_set_fits_no_more_misses(self, block_file):
        pool = make_pool(block_file, 4)
        for _ in range(5):
            for block in range(3):
                pool.get_page(Region.SYMBOLS, block)
        assert pool.statistics.misses == 3
        assert pool.statistics.hits == 12

    def test_a_frame_keeps_its_page_after_eviction(self, block_file):
        # A hit reads a frame taken from the table without the lock: the
        # install that evicts it must put a new frame in its clock slot, not
        # write another block's bytes into it.
        pool = make_pool(block_file, 1)
        pool.get_page(Region.SYMBOLS, 0)
        frame = pool.table[0]
        pool.get_page(Region.SYMBOLS, 1)
        assert not resident(pool, Region.SYMBOLS, 0)
        assert pool.statistics.evictions == 1
        assert (frame.block, frame.data) == (0, bytes([0]) * 64)
        assert pool.table[1] is not frame
        block_file.close()

    def test_clear_drops_pages_keeps_statistics(self, block_file):
        pool = make_pool(block_file, 4)
        pool.get_page(Region.SYMBOLS, 0)
        pool.clear()
        assert pool.resident_pages == 0
        assert pool.statistics.misses == 1

    def test_clear_restarts_the_clock(self, block_file):
        pool = make_pool(block_file, 2)
        for block in range(3):
            pool.get_page(Region.SYMBOLS, block)
        pool.clear()
        # Refilling after clear() behaves like a fresh pool: two pages fit
        # without an eviction, the third evicts the first one installed.
        evictions = pool.statistics.evictions
        pool.get_page(Region.SYMBOLS, 5)
        pool.get_page(Region.SYMBOLS, 6)
        assert pool.statistics.evictions == evictions
        pool.get_page(Region.SYMBOLS, 7)
        assert not resident(pool, Region.SYMBOLS, 5)
        assert resident(pool, Region.SYMBOLS, 6)

    def test_frames_created_on_demand(self, block_file):
        # A pool far larger than its file (the 256 MB default over a small
        # image) holds one frame per page it was asked for, never more than
        # the file has blocks.
        pool = make_pool(block_file, 1 << 20)
        assert pool.frame_count == 1 << 20
        assert pool.resident_pages == 0
        for _ in range(2):
            for block in range(4):
                pool.get_page(Region.SYMBOLS, block)
        assert pool.resident_pages == 4 <= block_file.block_count
        assert pool.statistics.evictions == 0

    def test_reset_statistics(self, block_file):
        pool = make_pool(block_file, 4)
        pool.get_page(Region.SYMBOLS, 0)
        pool.reset_statistics()
        assert pool.statistics.requests == 0

    def test_snapshot_keys(self, block_file):
        pool = make_pool(block_file, 4)
        pool.get_page(Region.SYMBOLS, 0)
        snapshot = pool.statistics.snapshot()
        assert {"requests", "hits", "misses", "hit_ratio"} <= set(snapshot)

    def test_a_miss_never_sleeps(self, block_file, monkeypatch):
        # A miss is a read and a count: what it would cost on a 2003-era disk
        # is the Figure 7 driver's to charge, never a sleep in the pool.
        def no_sleep(seconds):
            raise AssertionError(f"the pool slept {seconds} s on a miss")

        monkeypatch.setattr(time, "sleep", no_sleep)
        pool = make_pool(block_file, 2)
        for block in (0, 1, 2, 0):
            pool.get_page(Region.SYMBOLS, block)
        assert pool.statistics.misses == 4
        assert "simulated_io_seconds" not in pool.statistics.snapshot()

    def test_invalid_capacity(self, block_file):
        with pytest.raises(ValueError):
            make_pool(block_file, 0)

    def test_minimum_one_frame(self, block_file):
        pool = BufferPool(
            block_file,
            capacity_bytes=1,
            region_offsets={Region.SYMBOLS: 0, Region.INTERNAL_NODES: 4, Region.LEAF_NODES: 7},
        )
        assert pool.frame_count == 1
        pool.get_page(Region.SYMBOLS, 0)
        pool.get_page(Region.SYMBOLS, 1)
        assert pool.resident_pages == 1


class TestMissPath:
    """A miss is one ``os.pread`` through the file's descriptor."""

    def test_a_miss_does_not_go_through_read_block(self, block_file):
        pool = make_pool(block_file, 2)
        assert pool.get_page(Region.LEAF_NODES, 2) == bytes([9]) * 64
        # Past the end of the file: a short read is an error, not a zero page.
        with pytest.raises(ValueError, match="block 40 reads 0 of 64 bytes"):
            pool.get_page(Region.SYMBOLS, 40)
        assert pool.statistics.misses == 2
        assert block_file.reads == 0
        assert pool.resident_pages == 1

    def test_pool_sees_blocks_written_before_it_was_built(self, tmp_path):
        with BlockFile(tmp_path / "w.blk", block_size=32, create=True) as handle:
            handle.write_block(1, b"abc")  # still in the file object's buffer
            pool = make_pool(handle, 2)
            assert pool.get_page(Region.SYMBOLS, 1) == b"abc" + b"\x00" * 29

    def test_reading_a_closed_file_is_a_value_error(self, block_file):
        pool = make_pool(block_file, 2)
        pool.get_page(Region.SYMBOLS, 0)
        block_file.close()
        assert block_file.descriptor is None
        assert pool.get_page(Region.SYMBOLS, 0) == bytes([0]) * 64  # cached: no read
        with pytest.raises(ValueError, match="closed"):
            pool.get_page(Region.SYMBOLS, 1)
        block_file.close()  # a second close is a no-op

    def test_a_failed_read_is_counted_as_one_miss(self, block_file):
        pool = make_pool(block_file, 2)
        with pytest.raises(ValueError, match="cut short"):
            pool.get_page(Region.SYMBOLS, 40)
        statistics = pool.statistics
        assert (statistics.hits, statistics.misses, statistics.evictions) == (0, 1, 0)
