"""Unit tests for the disk layout records, the image builder and DiskSuffixTree."""

import random
import struct
from collections import deque

import pytest

from cursor_lookups import (
    arc_label,
    contains,
    find_exact,
    find_occurrences,
    occurrences_below,
    path_label,
)
from repro.core.engine import OasisEngine
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.blocks import BlockFile
from repro.storage.builder import build_disk_image
from repro.storage.buffer_pool import BufferPool, Region
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES, open_image
from repro.storage.layout import (
    FORMAT_VERSION,
    INTERNAL_STRUCT,
    LAST_SIBLING_BIT,
    LEAF_STRUCT,
    NO_POINTER,
    VALUE_MASK,
    DiskLayout,
    ImageFormatError,
)
from repro.suffixtree.cursor import SuffixTreeCursor
from repro.suffixtree.generalized import GeneralizedSuffixTree

from support import PAPER_TARGET, python_pool_body, random_dna, random_protein


class TestRecords:
    """The two wire formats: four words per internal node, one per leaf."""

    def test_internal_record_is_four_words(self):
        assert INTERNAL_STRUCT.format == "<IIII"
        assert INTERNAL_STRUCT.size == 16
        assert 2048 % INTERNAL_STRUCT.size == 0  # a power-of-two block has no padding

    def test_leaf_record_size(self):
        assert LEAF_STRUCT.format == "<I"
        assert LEAF_STRUCT.size == 4

    def test_last_sibling_flag_is_bit_31(self):
        assert LAST_SIBLING_BIT == 1 << 31
        assert VALUE_MASK == LAST_SIBLING_BIT - 1
        assert NO_POINTER == LAST_SIBLING_BIT | VALUE_MASK

    def test_internal_record_roundtrip(self, tmp_path, paper_database):
        # What the builder writes, read back field by field: the paper's
        # example tree has the root and its children A, C, G, TA in level
        # order, then A's internal child AG (see Figure 2).
        tree = GeneralizedSuffixTree.build(paper_database)
        path = tmp_path / "records.oasis"
        build_disk_image(tree, path, block_size=256)
        walker = RecordWalker(path, paper_database, pool_bytes=256)
        records = [walker.internal_record(index) for index in range(6)]
        depths = [record[0] for record in records]
        assert depths == [0, 1, 1, 1, 2, 2]
        assert [record[4] for record in records] == [True, False, False, False, True, True]
        assert [record[2] for record in records] == [1, 5] + [NO_POINTER] * 4
        # Arc starts: symbol_ptr is where the incoming arc's label begins.
        assert [PAPER_TARGET[record[1]] for record in records[1:5]] == list("ACGT")
        # Only the root has no leaf child; the runs follow each other.
        assert [record[3] for record in records] == [NO_POINTER, 0, 1, 4, 7, 9]

    def test_leaf_record_roundtrip(self, tmp_path, paper_database):
        tree = GeneralizedSuffixTree.build(paper_database)
        path = tmp_path / "records.oasis"
        build_disk_image(tree, path, block_size=256)
        walker = RecordWalker(path, paper_database, pool_bytes=256)
        leaves = [walker.leaf_record(index) for index in range(11)]
        # A's one leaf (ACGCCTAG), then C's three, G's three, TA's two, AG's two.
        assert [start for start, _ in leaves] == [3, 6, 4, 7, 5, 1, 10, 2, 8, 0, 9]
        assert [index for index, (_, last) in enumerate(leaves) if last] == [0, 3, 6, 8, 10]


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

    def test_header_of_another_format_version_is_a_typed_error(self):
        assert FORMAT_VERSION == 2
        stale = struct.pack("<8sHIQQQQQQQ", b"OASISIDX", 1, 512, 1000, 600, 1000, 10, 1, 3, 24)
        with pytest.raises(ImageFormatError) as caught:
            DiskLayout.unpack_header(stale)
        message = str(caught.value)
        assert "v1" in message and "v2" in message and "rebuild the index" in message
        assert isinstance(caught.value, ValueError)

    def test_records_per_block(self):
        layout = self.make_layout()
        assert layout.internal_records_per_block == 32
        assert layout.leaf_records_per_block == 128
        assert layout.symbols_per_block == 512

    def test_records_never_straddle_blocks(self):
        # Whole records per block, padding after them: 72 bytes hold four
        # 16-byte internal records, and 600 of them need 150 blocks.
        layout = self.make_layout()
        layout.block_size = 72
        assert layout.internal_records_per_block * INTERNAL_STRUCT.size == 64
        assert layout.internal_block_count == 150
        assert layout.leaf_records_per_block * LEAF_STRUCT.size == 72

    def test_block_counts_and_size(self):
        layout = self.make_layout()
        assert layout.symbols_block_count == 2
        assert layout.total_blocks == 1 + layout.symbols_block_count + layout.internal_block_count + layout.leaves_block_count
        assert layout.index_size_bytes == layout.total_blocks * 512

    def test_bytes_per_symbol(self):
        layout = self.make_layout()
        assert layout.bytes_per_symbol == pytest.approx(layout.index_size_bytes / 1000)


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
        assert layout.leaf_slots == tree.leaf_count == len(PAPER_TARGET)
        assert layout.sequence_count == 1

    def test_leaf_array_has_one_record_per_leaf_and_no_empty_slots(self, tmp_path):
        for database in walk_databases():
            tree = GeneralizedSuffixTree.build(database)
            path = tmp_path / f"{database.name}.oasis"
            layout = build_disk_image(tree, path, block_size=256)
            assert layout.leaf_slots == tree.leaf_count == database.total_symbols
            assert layout.leaf_slots == layout.symbol_count - len(database)
            walker = RecordWalker(path, database, pool_bytes=256)
            starts = [walker.leaf_record(index)[0] for index in range(layout.leaf_slots)]
            assert sorted(starts) == sorted(tree.leaf_positions(tree.root))

    def test_image_is_smaller_than_format_v1_on_the_paper_example(self, tmp_path, paper_database):
        # v1: 17-byte internal records and one 4-byte leaf slot per symbol
        # position.  With 96-byte blocks the example's six internal records
        # fill one block exactly in v2 and needed two in v1.
        tree = GeneralizedSuffixTree.build(paper_database)
        layout = build_disk_image(tree, tmp_path / "v2.oasis", block_size=96)
        symbols = layout.symbol_count
        v1_blocks = 1 + -(-symbols // 96) + -(-layout.internal_count // (96 // 17)) + -(-symbols // 24)
        assert layout.total_blocks < v1_blocks
        assert layout.bytes_per_symbol < v1_blocks * 96 / symbols
        payload = symbols + 16 * layout.internal_count + 4 * layout.leaf_slots
        assert payload < symbols + 17 * layout.internal_count + 4 * symbols

    def test_header_readable_from_file(self, paper_image):
        path, layout, _ = paper_image
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


#: Both trees that can serve an image: the pool of ``tight`` is one 256-byte
#: block, below every image here; the default pool fits all of them.
POOLS = {"fits": DEFAULT_BUFFER_POOL_BYTES, "tight": 256}


class TestBrokenImages:
    """A broken image is refused with the same error whichever tree would serve it."""

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_rejects_mismatched_database(self, paper_image, pool):
        path, _, _ = paper_image
        other = SequenceDatabase.from_texts(["ACGTACGT"], alphabet=DNA_ALPHABET)
        with pytest.raises(ValueError, match="does not match the database"):
            open_image(path, other, POOLS[pool])

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_rejects_an_image_of_another_format_version(
        self, paper_image, paper_database, pool
    ):
        path, _, _ = paper_image
        with open(path, "r+b") as handle:
            handle.seek(8)  # the version field follows the 8-byte magic
            handle.write((1).to_bytes(2, "little"))
        with pytest.raises(ImageFormatError, match="rebuild the index"):
            open_image(path, paper_database, POOLS[pool])

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_a_truncated_image_is_refused_at_open(self, tmp_path, small_dna_database, pool):
        path = tmp_path / "cut.oasis"
        layout = build_disk_image(small_dna_database, path, block_size=256)
        assert path.stat().st_size == layout.index_size_bytes  # whole blocks only
        with open(path, "r+b") as handle:
            handle.truncate(layout.index_size_bytes - 256)
        expected = f"{layout.index_size_bytes - 256} bytes.*describes {layout.index_size_bytes}"
        with pytest.raises(ImageFormatError, match=expected):
            open_image(path, small_dna_database, POOLS[pool])


class TestDiskSuffixTree:

    def test_contains_and_occurrences_match_memory_tree(self, paper_image, paper_database):
        path, _, tree = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=1024) as disk:
            assert contains(disk, "TACG")
            assert find_occurrences(disk, "TACG") == find_occurrences(tree, "TACG")
            assert not contains(disk, "GGG")

    def test_statistics_accumulate(self, paper_image, paper_database):
        path, _, _ = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=1024) as disk:
            find_occurrences(disk, "TACG")
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

    def test_a_closed_cursor_answers_no_call(self, tmp_path, small_protein_database):
        # Whether a page is still resident must not decide whether a call on
        # a closed cursor succeeds: close() drops the frames, and every call
        # raises, on a node whose page was read and on one whose was not.
        path = tmp_path / "closed.oasis"
        layout = build_disk_image(small_protein_database, path, block_size=72)
        disk = DiskSuffixTree(path, small_protein_database, buffer_pool_bytes=72 * 16)
        deep = list(internal_nodes(disk))[-1]
        leaf = next(child for child in disk.children(deep) if disk.is_leaf(child))
        disk.pool.clear()
        disk.children(disk.root)
        per_block = layout.internal_records_per_block
        assert disk.pool.slot_of[layout.internal_start_block] >= 0  # the root's record
        assert disk.pool.slot_of[layout.internal_start_block + deep[1] // per_block] == -1
        disk.close()
        assert disk.pool.resident_pages == 0
        for node in (disk.root, deep, leaf):
            for call in (disk.children, disk.siblings, disk.arc_symbols):
                with pytest.raises(ValueError, match="read from a closed block file"):
                    call(node)
        with pytest.raises(ValueError, match="read from a closed block file"):
            disk.sequences_below(disk.root)
        disk.close()  # a second close is a no-op

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
                assert find_occurrences(disk, query) == find_occurrences(tree, query)

    def test_tiny_buffer_pool_still_correct(self, paper_image, paper_database):
        path, _, tree = paper_image
        with DiskSuffixTree(path, paper_database, buffer_pool_bytes=256) as disk:
            assert disk.pool.frame_count == 1
            assert find_occurrences(disk, "TAG") == find_occurrences(tree, "TAG")
            assert disk.statistics.hit_ratio < 1.0


# --------------------------------------------------------------------------- #
# The page-at-a-time read path, held to a record-at-a-time reader
# --------------------------------------------------------------------------- #
class RecordWalker(SuffixTreeCursor):
    """An independent reader of a v2 image: one record per ``struct.unpack``.

    Shares no decoding with ``DiskSuffixTree``: its own header parse, literal
    formats and masks, no ``layout`` helpers, a per-position suffix-end table.
    Every record and every symbol is one request to a pool of its own, so its
    misses and evictions are what reading record by record costs -- the
    numbers the page-at-a-time cursor must reproduce with fewer requests.
    """

    def __init__(self, path, database, pool_bytes):
        with open(path, "rb") as handle:
            header = struct.unpack("<8sHIQQQQQQQ", handle.read(70))
        assert header[1] == 2
        self.block_size = header[2]
        self.starts = dict(zip(Region, header[7:10]))
        self.pool = BufferPool(
            BlockFile(path, block_size=self.block_size), capacity_bytes=pool_bytes
        )
        # The Python body of the pool, where the cursor's runs in C.
        python_pool_body(self.pool)
        self._database = database
        self.suffix_end = {}
        for index, start in enumerate(database.sequence_starts):
            end = start + len(database[index]) + 1
            for position in range(start, end):
                self.suffix_end[position] = end
        #: ``(first index, record count)`` of the leaf run of the last children() call.
        self.last_leaf_run = None

    def _record(self, region, index, fmt):
        size = struct.calcsize(fmt)
        per_block = self.block_size // size
        page = self.pool.page(self.starts[region] + index // per_block, region)
        return struct.unpack_from(fmt, page, (index % per_block) * size)

    def internal_record(self, index):
        word, symbol_ptr, child, leaf = self._record(Region.INTERNAL_NODES, index, "<IIII")
        return word & 0x7FFFFFFF, symbol_ptr, child, leaf, bool(word >> 31)

    def leaf_record(self, index):
        (word,) = self._record(Region.LEAF_NODES, index, "<I")
        return word & 0x7FFFFFFF, bool(word >> 31)

    def symbols(self, start, length):
        size = self.block_size
        return bytes(
            self.pool.page(self.starts[Region.SYMBOLS] + position // size, Region.SYMBOLS)[
                position % size
            ]
            for position in range(start, start + length)
        )

    def children(self, handle):
        _, index, _, _, depth = handle
        _, _, child, leaf, _ = self.internal_record(index)
        handles = []
        last = child == 0xFFFFFFFF
        while not last:
            child_depth, symbol_ptr, _, _, last = self.internal_record(child)
            handles.append(("I", child, symbol_ptr, child_depth - depth, child_depth))
            child += 1
        first_leaf, last = leaf, leaf == 0xFFFFFFFF
        while not last:
            start, last = self.leaf_record(leaf)
            end = self.suffix_end[start]
            handles.append(("L", start, start + depth, end - start - depth, end - start))
            leaf += 1
        self.last_leaf_run = (first_leaf, leaf - first_leaf) if leaf > first_leaf else None
        return handles

    # The rest of the cursor interface, so an engine can search through it.
    database = property(lambda self: self._database)
    root = property(lambda self: ("I", 0, 0, 0, 0))

    def is_leaf(self, node):
        return node[0] == "L"

    def arc(self, node):
        return node[2], node[3]

    def arc_symbols(self, node):
        return self.symbols(node[2], node[3])

    def string_depth(self, node):
        return node[4]

    def suffix_start(self, node):
        return node[1]

    def leaf_positions(self, node):
        if node[0] == "L":
            yield node[1]
        else:
            for child in self.children(node):
                yield from self.leaf_positions(child)


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
#: internal records (and 8 bytes of padding) and 18 leaf records, so sibling
#: runs of both kinds straddle blocks all the time.
BLOCK_SIZES = (72, 256, 2048)


class TestPageAtATimeReadPath:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("pool_fits", [False, True], ids=["one-frame", "fits"])
    def test_children_match_record_walker(self, tmp_path, block_size, pool_fits):
        for database in walk_databases():
            tree = GeneralizedSuffixTree.build(database)
            path = tmp_path / f"{database.name}.oasis"
            layout = build_disk_image(tree, path, block_size=block_size)
            pool_bytes = layout.index_size_bytes if pool_fits else 1
            walker = RecordWalker(path, database, pool_bytes)
            with DiskSuffixTree(path, database, buffer_pool_bytes=pool_bytes) as disk:
                assert disk.pool.frame_count == (layout.total_blocks if pool_fits else 1)
                per_block = layout.internal_records_per_block
                leaves_per_block = layout.leaf_records_per_block
                pending, internal_seen = deque([disk.root]), 0
                straddled = leaf_straddled = one_leaf_runs = leaves_seen = 0
                shapes = set()
                while pending:
                    node = pending.popleft()
                    internal_seen += 1
                    children = disk.children(node)
                    assert children == walker.children(node)
                    run = [child[1] for child in children if child[0] == "I"]
                    if run and run[0] // per_block != run[-1] // per_block:
                        straddled += 1
                    shapes.add((bool(run), len(run) < len(children)))
                    if walker.last_leaf_run is not None:
                        first, count = walker.last_leaf_run
                        assert count == len(children) - len(run)
                        assert first == leaves_seen  # runs follow each other in level order
                        leaves_seen += count
                        one_leaf_runs += count == 1
                        if first // leaves_per_block != (first + count - 1) // leaves_per_block:
                            leaf_straddled += 1
                    # A level-order walk on both sides, so the page requests line up.
                    for child in children:
                        assert disk.arc_symbols(child) == walker.symbols(child[2], child[3])
                        if not disk.is_leaf(child):
                            pending.append(child)
                assert internal_seen == layout.internal_count
                assert leaves_seen == layout.leaf_slots
                # Only internal children, only leaf children, and both.
                assert shapes == {(True, False), (False, True), (True, True)}
                # A run of one leaf has the flag on its first record (the
                # random protein tree is too shallow to have one).
                assert one_leaf_runs > 0 or database.name == "protein"
                if block_size == 72 and database.name != "paper":
                    assert straddled > 0
                    assert leaf_straddled > 0
                ours, theirs = disk.pool.statistics, walker.pool.statistics
                assert (ours.misses, ours.evictions) == (theirs.misses, theirs.evictions)
                assert ours.requests < theirs.requests
                if pool_fits:
                    assert ours.evictions == 0

    def test_sixteen_byte_records_in_a_block_that_is_not_a_multiple_of_sixteen(
        self, tmp_path, small_protein_database
    ):
        # 72 = 4 records + 8 bytes of padding: record 4 starts block 1.
        tree = GeneralizedSuffixTree.build(small_protein_database)
        path = tmp_path / "padded.oasis"
        layout = build_disk_image(tree, path, block_size=72)
        assert layout.internal_records_per_block == 4
        assert layout.internal_block_count == -(-layout.internal_count // 4)
        image = path.read_bytes()
        walker = RecordWalker(path, small_protein_database, pool_bytes=72)
        for block in range(layout.internal_block_count):
            start = (layout.internal_start_block + block) * 72
            assert image[start + 64 : start + 72] == b"\x00" * 8
            word, symbol_ptr, child, leaf = struct.unpack_from("<IIII", image, start)
            assert walker.internal_record(4 * block) == (
                word & 0x7FFFFFFF, symbol_ptr, child, leaf, bool(word >> 31)
            )
        with DiskSuffixTree(path, small_protein_database, buffer_pool_bytes=72) as disk:
            assert sorted(disk.leaf_positions(disk.root)) == sorted(tree.leaf_positions(tree.root))

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
                    assert arc_label(disk, child) == arc_label(tree, twin)
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
                assert contains(disk, query) == contains(tree, query)
                codes = database.alphabet.encode(query)
                memory_node = find_exact(tree, codes)
                disk_node = find_exact(disk, codes)
                assert (memory_node is None) == (disk_node is None)
                if memory_node is None:
                    continue
                found += 1
                assert disk.arc(disk_node) == tree.arc(memory_node)
                assert arc_label(disk, disk_node) == arc_label(tree, memory_node)
                label = path_label(tree, memory_node)
                assert label.startswith(query)
                assert label.endswith(arc_label(disk, disk_node))
                assert len(label) == disk.string_depth(disk_node)
                assert sorted(occurrences_below(disk, disk_node)) == sorted(
                    occurrences_below(tree, memory_node)
                )
        assert found >= 40

    @pytest.mark.parametrize("frames", [1, 8])
    def test_misses_and_evictions_are_those_of_the_record_reader(
        self, tmp_path, unit_dna_matrix, frames
    ):
        # The same search through the page-at-a-time cursor and through the
        # record-at-a-time reader, each on a pool of its own of the same
        # size: fewer requests must not mean different reads.
        texts, state = [], 2003
        for length in (140, 90, 200, 60, 170):
            text, state = lcg_text("ACGT", length, state)
            texts.append(text)
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET, name="lcg")
        query = texts[2][40:58]
        path = tmp_path / "counts.oasis"
        engine = OasisEngine.build_on_disk(
            database,
            unit_dna_matrix,
            path,
            gap_model=FixedGapModel(-1),
            block_size=128,
            buffer_pool_bytes=128 * frames,
        )
        walker = RecordWalker(path, database, pool_bytes=128 * frames)
        reference = OasisEngine(walker, unit_dna_matrix, FixedGapModel(-1))
        try:
            result = engine.search(query, min_score=10)
            expected = reference.search(query, min_score=10)
            statistics = engine.cursor.pool.statistics
            assert result.hits
            assert [(hit.sequence_index, hit.score) for hit in result] == [
                (hit.sequence_index, hit.score) for hit in expected
            ]
            assert result.statistics.buffer_misses == statistics.misses
            assert (statistics.misses, statistics.evictions) == (
                walker.pool.statistics.misses,
                walker.pool.statistics.evictions,
            )
            assert statistics.misses > 100
            # The exact page requests of the cursor before it read a node's
            # sibling list in one pool transaction: the request sequence,
            # not just the reads, is unchanged.
            assert statistics.hits == {1: 36, 8: 425}[frames]
            assert statistics.hits < walker.pool.statistics.hits
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


# --------------------------------------------------------------------------- #
# siblings(): the search's one call, held to the three calls it replaces
# --------------------------------------------------------------------------- #
def composed_siblings(cursor, node):
    """The base-class ``siblings``: ``children`` + ``arc_symbols`` + ``is_leaf``."""
    return SuffixTreeCursor.siblings(cursor, node)


def internal_nodes(cursor):
    """Every internal node, level order, read through ``children`` alone."""
    pending = deque([cursor.root])
    while pending:
        node = pending.popleft()
        yield node
        pending.extend(child for child in cursor.children(node) if not cursor.is_leaf(child))


class TestSiblings:
    def test_memory_tree_siblings_are_the_composition(self):
        for database in walk_databases():
            tree = GeneralizedSuffixTree.build(database)
            count = 0
            for node in internal_nodes(tree):
                siblings = tree.siblings(node)
                assert siblings == composed_siblings(tree, node)
                assert all(type(is_leaf) is bool for _, _, is_leaf in siblings)
                for child, _, is_leaf in siblings:
                    if is_leaf:
                        assert tree.siblings(child) == []
                count += 1
            assert count == tree.internal_node_count

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("pool_fits", [False, True], ids=["one-frame", "fits"])
    def test_disk_siblings_are_the_composition_request_for_request(
        self, tmp_path, block_size, pool_fits
    ):
        for database in walk_databases():
            path = tmp_path / f"{database.name}.oasis"
            layout = build_disk_image(database, path, block_size=block_size)
            pool_bytes = layout.index_size_bytes if pool_fits else 1
            # Two cursors, each with a pool of the same size: one reads every
            # sibling list in one call, the other through the three calls.
            with DiskSuffixTree(path, database, buffer_pool_bytes=pool_bytes) as ours, \
                    DiskSuffixTree(path, database, buffer_pool_bytes=pool_bytes) as theirs:
                nodes = list(internal_nodes(ours))
                assert len(nodes) == layout.internal_count
                for node in nodes:
                    siblings = ours.siblings(node)
                    assert siblings == composed_siblings(theirs, node)
                    assert all(ours.siblings(child) == [] for child, _, leaf in siblings if leaf)
                # A full walk from fresh pools: the same requests, so the
                # same hits, misses and evictions, region by region.
                for cursor in (ours, theirs):
                    cursor.pool.clear()
                    cursor.reset_statistics()
                for node in nodes:
                    ours.siblings(node)
                    composed_siblings(theirs, node)
                mine, reference = ours.statistics, theirs.statistics
                assert (mine.hits, mine.misses, mine.evictions) == (
                    reference.hits,
                    reference.misses,
                    reference.evictions,
                )
                assert mine.per_region_hits == reference.per_region_hits
                assert mine.per_region_misses == reference.per_region_misses
                assert mine.misses > 0
                assert (mine.evictions > 0) == (not pool_fits)
