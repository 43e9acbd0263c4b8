"""Unit tests for the block file and the clock buffer pool.

The pool's unit tests run on both bodies of ``BufferPool.page``: the Python
one, as where the compiled step does not build, and the C one where it
does.  A twin test drives the two with the same requests over real images
and holds their whole state equal after every request.
"""

import os
import random
import shutil
import time

import pytest
from hypothesis import given, strategies as st

from repro.core import kernels
from repro.core.kernels import available_kernels
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.blocks import BlockFile
from repro.storage.buffer_pool import (
    COUNTERS,
    EVICTIONS,
    FILLED,
    HAND,
    HITS,
    MISSES,
    READ_NANOSECONDS,
    REGION_MISSES,
    BufferPool,
    Region,
)
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.layout import DiskLayout
from support import python_pool_body, random_protein

COMPILED = "compiled" in available_kernels()
needs_compiled = pytest.mark.skipif(not COMPILED, reason="the compiled step does not build here")


@pytest.fixture(params=["python", "compiled"] if COMPILED else ["python"])
def body(request, monkeypatch):
    """Which body serves ``pool.page`` for pools built in the test."""
    if request.param == "python":
        monkeypatch.setattr(kernels, "_compiled_step", lambda: "the Python body is forced")
    return request.param

#: Each region's first block in the test file.
OFFSETS = {Region.SYMBOLS: 0, Region.INTERNAL_NODES: 4, Region.LEAF_NODES: 7}


def get(pool, region, block_in_region):
    """One request for block ``block_in_region`` of ``region``."""
    return pool.page(OFFSETS[region] + block_in_region, region)


def resident(pool, region, block_in_region):
    """Whether the page is in one of the pool's frames (no request, no statistics)."""
    return pool.slot_of[OFFSETS[region] + block_in_region] >= 0


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
    return BufferPool(block_file, capacity_bytes=capacity_blocks * block_file.block_size)


@pytest.mark.usefixtures("body")
class TestBufferPool:
    def test_miss_then_hit(self, block_file):
        pool = make_pool(block_file, 4)
        first = get(pool, Region.SYMBOLS, 0)
        second = get(pool, Region.SYMBOLS, 0)
        assert first == second == bytes([0]) * 64
        assert pool.statistics.hits == 1
        assert pool.statistics.misses == 1
        assert pool.statistics.hit_ratio == pytest.approx(0.5)

    def test_a_page_is_addressed_by_its_absolute_block(self, block_file):
        pool = make_pool(block_file, 4)
        assert pool.page(5, Region.INTERNAL_NODES) == bytes([5]) * 64
        assert pool.statistics.per_region_misses == [0, 1, 0]

    def test_per_region_statistics(self, block_file):
        pool = make_pool(block_file, 4)
        get(pool, Region.SYMBOLS, 0)
        get(pool, Region.SYMBOLS, 0)
        get(pool, Region.LEAF_NODES, 0)
        assert pool.statistics.region_hit_ratio(Region.SYMBOLS) == pytest.approx(0.5)
        assert pool.statistics.region_hit_ratio(Region.LEAF_NODES) == 0.0
        assert pool.statistics.region_hit_ratio(Region.INTERNAL_NODES) == 0.0

    def test_eviction_when_capacity_exceeded(self, block_file):
        pool = make_pool(block_file, 2)
        get(pool, Region.SYMBOLS, 0)
        get(pool, Region.SYMBOLS, 1)
        get(pool, Region.SYMBOLS, 2)  # evicts one of the first two
        assert pool.resident_pages == 2

    def test_clock_gives_second_chance(self, block_file):
        pool = make_pool(block_file, 3)
        for block in range(3):
            get(pool, Region.SYMBOLS, block)
        # Every bit is set, so the first replacement sweeps the whole clock,
        # clears all three bits and takes the frame it started from (page 0).
        get(pool, Region.SYMBOLS, 3)
        assert not resident(pool, Region.SYMBOLS, 0)
        assert pool.statistics.evictions == 1
        # Pages 1 and 2 now have clear bits and the hand stands on page 1.
        # A hit sets page 1's bit again: the next sweep must pass over it
        # (second chance) and evict page 2, where FIFO would evict page 1.
        get(pool, Region.SYMBOLS, 1)
        get(pool, Region.SYMBOLS, 4)
        assert resident(pool, Region.SYMBOLS, 1)
        assert not resident(pool, Region.SYMBOLS, 2)
        assert pool.statistics.evictions == 2
        # The chance is spent: page 1's bit was cleared by that sweep, so it
        # is the victim of the next one (page 3's set bit is passed over).
        get(pool, Region.SYMBOLS, 5)
        assert not resident(pool, Region.SYMBOLS, 1)
        assert resident(pool, Region.SYMBOLS, 3)
        assert pool.statistics.evictions == 3

    def test_working_set_fits_no_more_misses(self, block_file):
        pool = make_pool(block_file, 4)
        for _ in range(5):
            for block in range(3):
                get(pool, Region.SYMBOLS, block)
        assert pool.statistics.misses == 3
        assert pool.statistics.hits == 12

    def test_a_frame_keeps_its_page_after_eviction(self, block_file):
        # A page is read while another thread's miss may evict its frame:
        # the install must put the new block's bytes in the frame, never
        # write them into the bytes already returned.
        pool = make_pool(block_file, 1)
        page = get(pool, Region.SYMBOLS, 0)
        get(pool, Region.SYMBOLS, 1)
        assert not resident(pool, Region.SYMBOLS, 0)
        assert pool.statistics.evictions == 1
        assert page == bytes([0]) * 64
        assert pool.pages == [bytes([1]) * 64] and list(pool.blocks) == [1]
        block_file.close()

    def test_clear_drops_pages_keeps_statistics(self, block_file):
        pool = make_pool(block_file, 4)
        get(pool, Region.SYMBOLS, 0)
        pool.clear()
        assert pool.resident_pages == 0
        assert pool.statistics.misses == 1

    def test_clear_restarts_the_clock(self, block_file):
        pool = make_pool(block_file, 2)
        for block in range(3):
            get(pool, Region.SYMBOLS, block)
        pool.clear()
        # Refilling after clear() behaves like a fresh pool: two pages fit
        # without an eviction, the third evicts the first one installed.
        evictions = pool.statistics.evictions
        get(pool, Region.SYMBOLS, 5)
        get(pool, Region.SYMBOLS, 6)
        assert pool.statistics.evictions == evictions
        get(pool, Region.SYMBOLS, 7)
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
                get(pool, Region.SYMBOLS, block)
        assert pool.resident_pages == 4 <= block_file.block_count
        assert pool.statistics.evictions == 0

    def test_reset_statistics(self, block_file):
        pool = make_pool(block_file, 4)
        get(pool, Region.SYMBOLS, 0)
        pool.reset_statistics()
        assert pool.statistics.requests == 0

    def test_snapshot_keys(self, block_file):
        pool = make_pool(block_file, 4)
        get(pool, Region.SYMBOLS, 0)
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
            get(pool, Region.SYMBOLS, block)
        assert pool.statistics.misses == 4
        assert "simulated_io_seconds" not in pool.statistics.snapshot()

    def test_invalid_capacity(self, block_file):
        with pytest.raises(ValueError):
            make_pool(block_file, 0)

    def test_minimum_one_frame(self, block_file):
        pool = BufferPool(block_file, capacity_bytes=1)
        assert pool.frame_count == 1
        get(pool, Region.SYMBOLS, 0)
        get(pool, Region.SYMBOLS, 1)
        assert pool.resident_pages == 1


@pytest.mark.usefixtures("body")
class TestMissPath:
    """A miss is one ``os.pread`` through the file's descriptor."""

    def test_a_miss_does_not_go_through_read_block(self, block_file):
        pool = make_pool(block_file, 2)
        assert get(pool, Region.LEAF_NODES, 2) == bytes([9]) * 64
        # Past the end of the file: a short read is an error, not a zero page.
        with pytest.raises(ValueError, match="block 40 reads 0 of 64 bytes"):
            get(pool, Region.SYMBOLS, 40)
        assert pool.statistics.misses == 2
        assert block_file.reads == 0
        assert pool.resident_pages == 1

    def test_pool_sees_blocks_written_before_it_was_built(self, tmp_path):
        with BlockFile(tmp_path / "w.blk", block_size=32, create=True) as handle:
            handle.write_block(1, b"abc")  # still in the file object's buffer
            pool = make_pool(handle, 2)
            assert get(pool, Region.SYMBOLS, 1) == b"abc" + b"\x00" * 29

    def test_reading_a_closed_file_is_a_value_error(self, block_file):
        pool = make_pool(block_file, 2)
        get(pool, Region.SYMBOLS, 0)
        block_file.close()
        assert block_file.descriptor is None
        assert get(pool, Region.SYMBOLS, 0) == bytes([0]) * 64  # cached: no read
        with pytest.raises(ValueError, match="closed"):
            get(pool, Region.SYMBOLS, 1)
        block_file.close()  # a second close is a no-op

    def test_a_failed_read_is_counted_as_one_miss(self, block_file):
        pool = make_pool(block_file, 2)
        with pytest.raises(ValueError, match="cut short"):
            get(pool, Region.SYMBOLS, 40)
        statistics = pool.statistics
        assert (statistics.hits, statistics.misses, statistics.evictions) == (0, 1, 0)


@pytest.mark.usefixtures("body")
class TestReadSeconds:
    """The pool times its own I/O: the wall time inside ``pread``."""

    def test_a_miss_adds_read_time_and_a_hit_adds_none(self, block_file):
        pool = make_pool(block_file, 2)
        assert pool.statistics.read_seconds == 0.0
        get(pool, Region.SYMBOLS, 0)
        after_miss = pool.statistics.read_seconds
        assert after_miss > 0
        get(pool, Region.SYMBOLS, 0)
        assert pool.statistics.read_seconds == after_miss
        assert pool.statistics.snapshot()["read_seconds"] == after_miss

    def test_reset_clears_it(self, block_file):
        pool = make_pool(block_file, 2)
        get(pool, Region.SYMBOLS, 0)
        pool.reset_statistics()
        assert pool.statistics.read_seconds == 0.0


def test_the_statistics_are_a_live_view(block_file):
    """A statistics object kept by a caller reads the pool's current counts."""
    pool = make_pool(block_file, 2)
    statistics = pool.statistics
    get(pool, Region.LEAF_NODES, 0)
    get(pool, Region.LEAF_NODES, 0)
    assert (statistics.hits, statistics.misses, statistics.requests) == (1, 1, 2)
    assert statistics.per_region_hits == [0, 0, 1]
    assert statistics.per_region_misses == [0, 0, 1]
    assert statistics.region_hit_ratio(Region.LEAF_NODES) == 0.5
    pool.reset_statistics()
    assert statistics.requests == 0 and statistics.hit_ratio == 0.0


# --------------------------------------------------------------------------- #
# The twin: the Python and the C body of BufferPool.page, request for request
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """One image of a random protein database per block size, and its layout."""
    rng = random.Random(5)
    database = SequenceDatabase.from_texts(
        [random_protein(rng, rng.randint(20, 120)) for _ in range(12)],
        alphabet=PROTEIN_ALPHABET,
    )
    directory = tmp_path_factory.mktemp("twin")
    built = {}
    for block_size in (72, 256, 2048):
        path = directory / f"tree-{block_size}.oasis"
        build_disk_image(database, path, block_size=block_size)
        built[block_size] = (path, DiskLayout.read_header(path))
    return database, built


def region_of(layout, block):
    """The region an absolute block of the image belongs to (the header counts as symbols)."""
    if block >= layout.leaves_start_block:
        return Region.LEAF_NODES
    if block >= layout.internal_start_block:
        return Region.INTERNAL_NODES
    return Region.SYMBOLS


def compiled_pool(path, block_size, frames):
    """A pool of ``frames`` frames (or the whole image) over the image at
    ``path``: where the compiled step builds, its requests are the C body."""
    capacity = os.path.getsize(path) if frames == "whole" else frames * block_size
    pool = BufferPool(BlockFile(path, block_size=block_size), capacity_bytes=capacity)
    assert pool.page.func is kernels._compiled_step().page
    return pool


def twin_pools(path, block_size, frames):
    """A pool for each body over the image at ``path``: the test serves the
    first by the Python body, ``BufferPool.page`` called on it."""
    return compiled_pool(path, block_size, frames), compiled_pool(path, block_size, frames)


def pool_state(pool):
    """Everything a request changes: the counters (read time by its sign
    only), the frames' blocks in clock order, the hand and the bits."""
    counters = list(pool.counters)
    counters[READ_NANOSECONDS] = counters[READ_NANOSECONDS] > 0
    return counters, list(pool.blocks), pool.counters[HAND], bytes(pool.referenced)


def request_both(python, compiled, block, region):
    """One request of each body; the pages, or the errors, must be equal."""
    outcomes = []
    for serve in (lambda: BufferPool.page(python, block, region), lambda: compiled.page(block, region)):
        try:
            outcomes.append(serve())
        except ValueError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]
    assert pool_state(python) == pool_state(compiled)
    return outcomes[0]


@needs_compiled
@given(
    block_size=st.sampled_from([72, 256, 2048]),
    frames=st.sampled_from([1, 2, 3, "whole"]),
    picks=st.lists(st.floats(min_value=0, max_value=1, exclude_max=True), max_size=80),
    repeats=st.lists(st.integers(0, 3), max_size=80),
)
def test_both_bodies_keep_one_clock(images, block_size, frames, picks, repeats):
    """Requests skewed towards a few hot blocks, as a search's are, so hits,
    second chances and evictions all happen; the clear of a closed cursor
    restarts both clocks alike."""
    _, built = images
    path, layout = built[block_size]
    python, compiled = twin_pools(path, block_size, frames)
    blocks = layout.total_blocks
    try:
        for index, pick in enumerate(picks):
            block = int(pick * pick * blocks)
            page = request_both(python, compiled, block, region_of(layout, block))
            assert page == python._file.read_block(block)
            for _ in range(repeats[index] if index < len(repeats) else 0):
                request_both(python, compiled, block, region_of(layout, block))
        python.clear()
        compiled.clear()
        assert pool_state(python) == pool_state(compiled)
        assert python.counters[FILLED] == 0 and set(python.slot_of) <= {-1}
        request_both(python, compiled, 0, Region.SYMBOLS)
        assert len(python.counters) == len(compiled.counters) == COUNTERS
    finally:
        python._file.close()
        compiled._file.close()


@needs_compiled
@pytest.mark.parametrize("frames", [1, 2, "whole"])
def test_a_cut_image_is_one_miss_and_a_value_error_on_both_bodies(images, tmp_path, frames):
    _, built = images
    path, layout = built[256]
    cut = tmp_path / "cut.oasis"
    shutil.copyfile(path, cut)
    os.truncate(cut, os.path.getsize(cut) - 100)
    python, compiled = twin_pools(cut, 256, frames)
    last = layout.total_blocks - 1
    try:
        request_both(python, compiled, 0, Region.SYMBOLS)
        message = request_both(python, compiled, last, Region.LEAF_NODES)
        assert "reads 156 of 256 bytes -- the file is cut short" in message
        assert (python.statistics.misses, python.statistics.per_region_misses) == (2, [1, 0, 1])
        assert python.statistics.evictions == 0 and python.slot_of[last] == -1
    finally:
        python._file.close()
        compiled._file.close()


@needs_compiled
def test_a_closed_file_is_a_value_error_before_any_request_on_both_bodies(images):
    database, built = images
    path, _ = built[72]
    python = DiskSuffixTree(path, database, buffer_pool_bytes=2 * 72)
    compiled = DiskSuffixTree(path, database, buffer_pool_bytes=2 * 72)
    python_pool_body(python.pool)
    for cursor in (python, compiled):
        cursor.siblings(cursor.root)
    assert pool_state(python.pool) == pool_state(compiled.pool)
    for cursor in (python, compiled):
        before = pool_state(cursor.pool)
        cursor.close()
        with pytest.raises(ValueError, match="closed"):
            cursor.siblings(cursor.root)
        with pytest.raises(ValueError, match="closed"):
            cursor.arc_symbols(("L", 0, 0, 3, 3))
        # The close dropped the frames; no request was made after it.
        assert pool_state(cursor.pool)[0][2:] == before[0][2:]
    assert pool_state(python.pool) == pool_state(compiled.pool)
    # A request on a closed file, straight to the pool, is a counted miss.
    assert request_both(python.pool, compiled.pool, 1, Region.SYMBOLS) == (
        "read from a closed block file"
    )


# --------------------------------------------------------------------------- #
# The spare: the C body reads a miss into the page the last eviction freed
# --------------------------------------------------------------------------- #
FRAMES = [1, 2, "whole"]


def request_block(pool, layout, block):
    return pool.page(block, region_of(layout, block))


@needs_compiled
@pytest.mark.parametrize("frames", FRAMES)
def test_a_held_page_keeps_its_block_after_its_frame_is_evicted(images, frames):
    _, built = images
    path, layout = built[72]
    pool = compiled_pool(path, 72, frames)
    try:
        held = {block: request_block(pool, layout, block) for block in (0, 1)}
        for block in list(range(2, layout.total_blocks)) * 2:
            request_block(pool, layout, block)
        if frames == "whole":
            assert pool.statistics.evictions == 0  # a pool that holds the image never evicts
        else:
            assert pool.statistics.misses > len(pool.blocks)
            assert pool.slot_of[0] == pool.slot_of[1] == -1
        for block, page in held.items():
            assert page == pool._file.read_block(block)
    finally:
        pool._file.close()


@needs_compiled
@pytest.mark.parametrize("frames", FRAMES)
def test_a_hashed_and_dropped_page_is_reused_with_its_hash_forgotten(images, frames):
    _, built = images
    path, layout = built[72]
    pool = compiled_pool(path, 72, frames)
    try:
        page = request_block(pool, layout, 0)
        hash(page)
        dropped = id(page)
        del page
        block = 1
        while pool.slot_of[0] >= 0 and block < layout.total_blocks:
            request_block(pool, layout, block)
            block += 1
        if frames == "whole":
            # A pool that holds the image evicts nothing and keeps no spare.
            assert pool.statistics.evictions == 0 and pool.spare == [None]
            return
        assert id(pool.spare[0]) == dropped
        page = request_block(pool, layout, block)
        fresh = pool._file.read_block(block)
        assert id(page) == dropped and page == fresh != pool._file.read_block(0)
        assert hash(page) == hash(fresh)
    finally:
        pool._file.close()


@needs_compiled
@pytest.mark.parametrize("frames", FRAMES)
def test_a_full_pool_installs_its_spare(images, frames):
    """Once the pool is full and nobody holds a page, each miss evicts a page
    only the pool held, and the next miss installs that very page."""
    _, built = images
    path, layout = built[72]
    pool = compiled_pool(path, 72, frames)
    try:
        block = 0
        while pool.resident_pages < len(pool.blocks):
            request_block(pool, layout, block)
            block += 1
        assert pool.spare == [None]
        installed = 0
        for block in range(block, layout.total_blocks):
            spare = id(pool.spare[0]) if pool.spare[0] is not None else None
            page = request_block(pool, layout, block)
            assert spare is None or id(page) == spare
            assert pool.pages[pool.slot_of[block]] is page
            installed += spare is not None
            del page
        assert installed == max(0, layout.total_blocks - len(pool.blocks) - 1)
    finally:
        pool._file.close()


@needs_compiled
@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("failure", ["short read", "read error"])
def test_a_failed_read_into_the_spare_is_one_miss(images, tmp_path, frames, failure):
    """A read that fails with the spare taken counts what the cut-image test
    counts: one miss of its region, no eviction, nothing installed."""
    _, built = images
    path, layout = built[256]
    cut = tmp_path / "cut.oasis"
    shutil.copyfile(path, cut)
    os.truncate(cut, os.path.getsize(cut) - 100)
    pool = compiled_pool(cut, 256, frames)
    last = layout.total_blocks - 1
    directory = os.open(tmp_path, os.O_RDONLY)
    try:
        for block in (0, 1, 2, 0, 1, 2):
            request_block(pool, layout, block)
        assert (pool.spare[0] is None) == (frames == "whole")
        before = list(pool.counters)
        if failure == "read error":
            descriptor = pool._file.descriptor
            pool._file.descriptor = directory  # pread on a directory: EISDIR
            with pytest.raises(OSError):
                request_block(pool, layout, last)
            pool._file.descriptor = descriptor
        else:
            with pytest.raises(ValueError, match="reads 156 of 256 bytes -- the file is cut short"):
                request_block(pool, layout, last)
        after = pool.statistics
        assert after.misses == before[MISSES] + 1
        assert after.per_region_misses == [
            before[REGION_MISSES + region] + (region == Region.LEAF_NODES) for region in Region
        ]
        assert (after.hits, after.evictions) == (before[HITS], before[EVICTIONS])
        assert pool.slot_of[last] == -1 and pool.spare == [None]
        # The pool still serves its blocks.
        assert request_block(pool, layout, 3) == pool._file.read_block(3)
    finally:
        os.close(directory)
        pool._file.close()
