"""Unit tests for the disk layout records, the image builder and DiskSuffixTree."""

import random
import struct

import pytest

from repro.core.engine import OasisEngine
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.storage.buffer_pool import Region
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.layout import (
    DiskLayout,
    FLAG_LAST_SIBLING,
    InternalNodeRecord,
    LeafNodeRecord,
    NO_POINTER,
)
from repro.suffixtree.generalized import GeneralizedSuffixTree

from repro.testing import PAPER_TARGET, random_dna, random_protein


class TestRecords:
    def test_internal_record_roundtrip(self):
        record = InternalNodeRecord(
            depth=7, symbol_ptr=123, first_internal_child=5, first_leaf_child=NO_POINTER, flags=1
        )
        assert InternalNodeRecord.unpack(record.pack()) == record

    def test_internal_record_size(self):
        assert InternalNodeRecord.SIZE == 17

    def test_last_sibling_flag(self):
        record = InternalNodeRecord(0, 0, 0, 0, FLAG_LAST_SIBLING)
        assert record.is_last_sibling
        assert not InternalNodeRecord(0, 0, 0, 0, 0).is_last_sibling

    def test_leaf_record_roundtrip(self):
        record = LeafNodeRecord(next_sibling=42)
        assert LeafNodeRecord.unpack(record.pack()) == record

    def test_leaf_record_size(self):
        assert LeafNodeRecord.SIZE == 4


class TestDiskLayout:
    def make_layout(self):
        return DiskLayout(
            block_size=512,
            symbol_count=1000,
            internal_count=600,
            leaf_slots=1000,
            sequence_count=10,
            symbols_start_block=1,
            internal_start_block=3,
            leaves_start_block=24,
        )

    def test_header_roundtrip(self):
        layout = self.make_layout()
        assert DiskLayout.unpack_header(layout.pack_header()) == layout

    def test_header_magic_checked(self):
        with pytest.raises(ValueError):
            DiskLayout.unpack_header(b"NOTANIDX" + b"\x00" * 64)

    def test_records_per_block(self):
        layout = self.make_layout()
        assert layout.internal_records_per_block == 512 // 17
        assert layout.leaf_records_per_block == 128
        assert layout.symbols_per_block == 512

    def test_page_addressing_never_straddles_blocks(self):
        layout = self.make_layout()
        per_block = layout.internal_records_per_block
        block, offset = layout.internal_page(per_block)  # first record of block 1
        assert block == 1
        assert offset == 0
        block, offset = layout.internal_page(per_block - 1)
        assert block == 0
        assert offset + InternalNodeRecord.SIZE <= 512

    def test_block_counts_and_size(self):
        layout = self.make_layout()
        assert layout.symbols_block_count == 2
        assert layout.total_blocks == 1 + layout.symbols_block_count + layout.internal_block_count + layout.leaves_block_count
        assert layout.index_size_bytes == layout.total_blocks * 512

    def test_bytes_per_symbol(self):
        layout = self.make_layout()
        assert layout.bytes_per_symbol == pytest.approx(layout.index_size_bytes / 1000)

    def test_region_offsets_mapping(self):
        offsets = self.make_layout().region_offsets()
        assert offsets[Region.SYMBOLS] == 1
        assert offsets[Region.INTERNAL_NODES] == 3
        assert offsets[Region.LEAF_NODES] == 24


@pytest.fixture
def paper_image(tmp_path, paper_database):
    tree = GeneralizedSuffixTree.build(paper_database)
    path = tmp_path / "paper.oasis"
    layout = build_disk_image(tree, path, block_size=256)
    return path, layout, tree


class TestDiskImageBuilder:
    def test_layout_counts_match_tree(self, paper_image, paper_database):
        _, layout, tree = paper_image
        assert layout.symbol_count == paper_database.total_symbols_with_terminals
        assert layout.internal_count == tree.internal_node_count
        assert layout.leaf_slots == layout.symbol_count
        assert layout.sequence_count == 1

    def test_header_readable_from_file(self, paper_image):
        path, layout, _ = paper_image
        from repro.storage.blocks import BlockFile

        with BlockFile(path, block_size=256) as handle:
            loaded = DiskLayout.unpack_header(handle.read_block(0))
        assert loaded == layout

    def test_space_utilisation_in_expected_range(self, tmp_path):
        # With the default 2 KB blocks and a realistically sized database the
        # image should land in the low tens of bytes per symbol, the same
        # regime as the paper's 12.5.
        rng = random.Random(0)
        texts = [random_dna(rng, rng.randint(100, 400)) for _ in range(30)]
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        layout = build_disk_image(tree, tmp_path / "dna.oasis", block_size=2048)
        assert 8.0 <= layout.bytes_per_symbol <= 30.0


class TestDiskSuffixTree:
    def test_rejects_mismatched_database(self, paper_image):
        path, _, _ = paper_image
        other = SequenceDatabase.from_texts(["ACGTACGT"], alphabet=DNA_ALPHABET)
        with pytest.raises(ValueError):
            DiskSuffixTree(path, other)

    def test_contains_and_occurrences_match_memory_tree(self, paper_image, paper_database):
        path, _, tree = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=1024) as disk:
            assert disk.contains("TACG")
            assert disk.find_occurrences("TACG") == tree.find_occurrences("TACG")
            assert not disk.contains("GGG")

    def test_statistics_accumulate(self, paper_image, paper_database):
        path, _, _ = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=1024) as disk:
            disk.find_occurrences("TACG")
            assert disk.statistics.requests > 0
            disk.reset_statistics()
            assert disk.statistics.requests == 0

    def test_leaf_positions_cover_all_suffixes(self, paper_image, paper_database):
        path, _, _ = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=4096) as disk:
            positions = sorted(disk.leaf_positions(disk.root))
            assert positions == list(range(len(PAPER_TARGET)))

    def test_string_depth_and_arcs(self, paper_image, paper_database):
        path, _, _ = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=4096) as disk:
            for child in disk.children(disk.root):
                start, length = disk.arc(child)
                assert length > 0
                assert len(disk.arc_symbols(child)) == length
                assert disk.string_depth(child) == length

    def test_suffix_start_requires_leaf(self, paper_image, paper_database):
        path, _, _ = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=4096) as disk:
            with pytest.raises(TypeError):
                disk.suffix_start(disk.root)

    def test_bytes_per_symbol_property(self, paper_image, paper_database):
        path, _, _ = paper_image
        with DiskSuffixTree(path, paper_database) as disk:
            assert disk.bytes_per_symbol > 0
            assert disk.internal_node_count > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_roundtrip_matches_memory_tree(self, tmp_path, seed):
        rng = random.Random(seed)
        texts = [random_dna(rng, rng.randint(20, 120)) for _ in range(6)]
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        path = tmp_path / f"random{seed}.oasis"
        build_disk_image(tree, path, block_size=512)
        with DiskSuffixTree(path, database, buffer_pool_bytes=2048) as disk:
            for _ in range(60):
                query = random_dna(rng, rng.randint(1, 7))
                assert disk.find_occurrences(query) == tree.find_occurrences(query)

    def test_tiny_buffer_pool_still_correct(self, paper_image, paper_database):
        path, _, tree = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=256) as disk:
            assert disk.pool.frame_count == 1
            assert disk.find_occurrences("TAG") == tree.find_occurrences("TAG")
            assert disk.statistics.hit_ratio < 1.0


# --------------------------------------------------------------------------- #
# The page-at-a-time read path, held to a record-at-a-time reader
# --------------------------------------------------------------------------- #
class RecordWalker:
    """An independent reader of an image: one record per ``struct.unpack``.

    Shares nothing with ``DiskSuffixTree``: raw offsets into the file's
    bytes, no pool, no ``layout`` helpers, a per-position suffix-end table.
    """

    def __init__(self, path, database):
        with open(path, "rb") as handle:
            self.image = handle.read()
        header = struct.unpack("<8sHIQQQQQQQ", self.image[:70])
        self.block_size = header[2]
        self.symbols_start, self.internal_start, self.leaves_start = header[7:10]
        self.suffix_end = {}
        for index, start in enumerate(database.sequence_starts):
            end = start + len(database[index]) + 1
            for position in range(start, end):
                self.suffix_end[position] = end

    def _record(self, region_start, index, fmt):
        size = struct.calcsize(fmt)
        per_block = self.block_size // size
        offset = (region_start + index // per_block) * self.block_size
        offset += (index % per_block) * size
        return struct.unpack(fmt, self.image[offset : offset + size])

    def symbols(self, start, length):
        first = self.symbols_start * self.block_size + start
        return self.image[first : first + length]

    def children(self, handle):
        _, index, _, _, depth = handle
        _, _, child, leaf, _ = self._record(self.internal_start, index, "<IIIIB")
        handles = []
        while child != NO_POINTER:
            child_depth, symbol_ptr, _, _, flags = self._record(
                self.internal_start, child, "<IIIIB"
            )
            handles.append(("I", child, symbol_ptr, child_depth - depth, child_depth))
            child = NO_POINTER if flags & FLAG_LAST_SIBLING else child + 1
        while leaf != NO_POINTER:
            end = self.suffix_end[leaf]
            handles.append(("L", leaf, leaf + depth, end - leaf - depth, end - leaf))
            (leaf,) = self._record(self.leaves_start, leaf, "<I")
        return handles


def lcg_text(symbols, length, state):
    """Text from an inline LCG: the same on every Python version."""
    out = []
    for _ in range(length):
        state = (state * 1103515245 + 12345) % (1 << 31)
        out.append(symbols[(state >> 16) % len(symbols)])
    return "".join(out), state


def walk_databases():
    rng = random.Random(5)
    yield SequenceDatabase.from_texts([PAPER_TARGET], alphabet=DNA_ALPHABET, name="paper")
    yield SequenceDatabase.from_texts(
        [random_dna(rng, rng.randint(20, 90)) for _ in range(7)],
        alphabet=DNA_ALPHABET,
        name="dna",
    )
    yield SequenceDatabase.from_texts(
        [random_protein(rng, rng.randint(10, 70)) for _ in range(9)],
        alphabet=PROTEIN_ALPHABET,
        name="protein",
    )


#: 72 is the smallest useful block: the header needs 70 bytes.  It holds four
#: internal records, so sibling runs straddle blocks all the time.
BLOCK_SIZES = (72, 256, 2048)


class TestPageAtATimeReadPath:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("pool_fits", [False, True], ids=["one-frame", "fits"])
    def test_children_match_record_walker(self, tmp_path, block_size, pool_fits):
        for database in walk_databases():
            tree = GeneralizedSuffixTree.build(database)
            path = tmp_path / f"{database.name}.oasis"
            layout = build_disk_image(tree, path, block_size=block_size)
            walker = RecordWalker(path, database)
            pool_bytes = layout.index_size_bytes if pool_fits else 1
            with DiskSuffixTree(path, database, buffer_pool_bytes=pool_bytes) as disk:
                assert disk.pool.frame_count == (layout.total_blocks if pool_fits else 1)
                per_block = layout.internal_records_per_block
                pending, internal_seen, straddled = [disk.root], 0, 0
                while pending:
                    node = pending.pop()
                    internal_seen += 1
                    children = disk.children(node)
                    assert children == walker.children(node)
                    run = [child[1] for child in children if child[0] == "I"]
                    if run and run[0] // per_block != run[-1] // per_block:
                        straddled += 1
                    for child in children:
                        assert disk.arc_symbols(child) == walker.symbols(child[2], child[3])
                        if not disk.is_leaf(child):
                            pending.append(child)
                assert internal_seen == layout.internal_count
                if block_size == 72 and database.name != "paper":
                    assert straddled > 0

    def test_arcs_match_memory_tree_across_pages(self, tmp_path, small_protein_database):
        database = small_protein_database
        tree = GeneralizedSuffixTree.build(database)
        path = tmp_path / "arcs.oasis"
        build_disk_image(tree, path, block_size=72)
        crossing = 0
        with DiskSuffixTree(path, database, buffer_pool_bytes=72 * 3) as disk:
            pending = [(tree.root, disk.root)]
            while pending:
                memory_node, disk_node = pending.pop()
                by_arc = {tree.arc(child): child for child in tree.children(memory_node)}
                disk_children = disk.children(disk_node)
                assert len(disk_children) == len(by_arc)
                for child in disk_children:
                    start, length = disk.arc(child)
                    twin = by_arc[(start, length)]
                    symbols = disk.arc_symbols(child)
                    assert isinstance(symbols, bytes)
                    assert symbols == tree.arc_symbols(twin)
                    assert disk.arc_label(child) == tree.arc_label(twin)
                    crossing += start // 72 != (start + length - 1) // 72
                    if not disk.is_leaf(child):
                        pending.append((twin, child))
        assert crossing > 0

    def test_exact_match_helpers_agree_with_memory_tree(self, tmp_path):
        rng = random.Random(3)
        texts = [random_dna(rng, rng.randint(30, 90)) for _ in range(5)]
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        path = tmp_path / "exact.oasis"
        build_disk_image(tree, path, block_size=128)
        found = 0
        with DiskSuffixTree(path, database, buffer_pool_bytes=512) as disk:
            for trial in range(80):
                if trial % 2:
                    query = random_dna(rng, rng.randint(1, 9))
                else:  # a real substring, long enough to run down multi-symbol arcs
                    text = rng.choice(texts)
                    start = rng.randrange(len(text) - 12)
                    query = text[start : start + rng.randint(4, 12)]
                assert disk.contains(query) == tree.contains(query)
                codes = database.alphabet.encode(query)
                memory_node = tree.find_exact(codes)
                disk_node = disk.find_exact(codes)
                assert (memory_node is None) == (disk_node is None)
                if memory_node is None:
                    continue
                found += 1
                assert disk.arc(disk_node) == tree.arc(memory_node)
                assert disk.arc_label(disk_node) == tree.arc_label(memory_node)
                label = tree.path_label(memory_node)
                assert label.startswith(query)
                assert label.endswith(disk.arc_label(disk_node))
                assert len(label) == disk.string_depth(disk_node)
                assert sorted(disk.occurrences_below(disk_node)) == sorted(
                    tree.occurrences_below(memory_node)
                )
        assert found >= 40

    #: ``(misses, evictions)`` of the search below, measured at the commit
    #: before the page-at-a-time cursor (one pool request per record).  Fewer
    #: requests must not mean different reads.
    RECORD_AT_A_TIME_COUNTS = {1: (836, 835), 8: (513, 505)}

    @pytest.mark.parametrize("frames", [1, 8])
    def test_misses_and_evictions_are_those_of_the_record_reader(
        self, tmp_path, unit_dna_matrix, frames
    ):
        texts, state = [], 2003
        for length in (140, 90, 200, 60, 170):
            text, state = lcg_text("ACGT", length, state)
            texts.append(text)
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET, name="lcg")
        query = texts[2][40:58]
        engine = OasisEngine.build_on_disk(
            database,
            unit_dna_matrix,
            tmp_path / "counts.oasis",
            gap_model=FixedGapModel(-1),
            block_size=128,
            buffer_pool_bytes=128 * frames,
        )
        try:
            result = engine.search(query, min_score=10)
            statistics = engine.cursor.pool.statistics
            assert result.hits
            assert result.statistics.buffer_misses == statistics.misses
            assert (statistics.misses, statistics.evictions) == self.RECORD_AT_A_TIME_COUNTS[frames]
            assert statistics.hits > 0
        finally:
            engine.cursor.close()

    def test_default_pool_holds_no_more_frames_than_the_image_has_blocks(
        self, tmp_path, small_dna_database
    ):
        tree = GeneralizedSuffixTree.build(small_dna_database)
        path = tmp_path / "default-pool.oasis"
        layout = build_disk_image(tree, path, block_size=256)
        with DiskSuffixTree(path, small_dna_database) as disk:
            assert disk.pool.frame_count * 256 == 256 * 1024 * 1024
            assert disk.pool.resident_pages == 0
            for _ in range(2):
                assert len(list(disk.leaf_positions(disk.root))) == small_dna_database.total_symbols
                for child in disk.children(disk.root):
                    disk.arc_symbols(child)
            assert 0 < disk.pool.resident_pages <= layout.total_blocks - 1
            assert disk.pool.statistics.evictions == 0
            assert disk.pool.statistics.misses == disk.pool.resident_pages
