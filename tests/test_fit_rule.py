"""The fit rule: an image that fits its pool budget is read into the in-memory tree.

``repro.storage.open_image`` is the one place the choice is made, and every
engine opens its images through it: ``OasisEngine.open`` (under
``ShardedEngine.open`` with the whole budget, and in a process worker with
the budget the parent sent) and ``OasisEngine.build_on_disk``.  A pool of
exactly the image's size reads the tree; one byte less searches through the
clock pool.
The read tree must be the built tree, record for record, at block sizes with
and without padding, and must keep no decoded-children table.  It reads its
records when a search first needs them, so an engine whose partitions search
in worker processes holds none; and an engine rebuilt around the cursor
``ShardedEngine.open`` opened (as a timing proxy rebuilds it) returns the
same hits and counters as the engine itself.
"""

import os
import random
import sys

import pytest

import repro.sharding.remote as remote
from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.request import SearchRequest
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.scoring.data import pam30
from repro.sharding import ShardedEngine, ShardedIndexBuilder, ShardSearchTask
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.image import open_image
from repro.storage.layout import ImageFormatError, Region
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import Delegating, random_dna, random_protein

QUERY = "WKDDGNGYISAAE"


def internal_nodes(tree):
    """Handles of every internal node, breadth first from the root."""
    nodes, frontier = [], [tree.root]
    while frontier:
        nodes.extend(frontier)
        frontier = [child for node in frontier for child in tree.children(node) if child[0] == "I"]
    return nodes


def hit_list(result):
    return [(hit.sequence_index, hit.score, hit.evalue) for hit in result]


@pytest.fixture
def shard_index(tmp_path, small_protein_database, pam30_matrix, gap8):
    """A 2-partition index at 512-byte blocks, and the byte size of its image."""
    directory = tmp_path / "index"
    catalog = ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2, block_size=512).build(
        small_protein_database, directory
    )
    return directory, catalog, os.path.getsize(catalog.image_path(directory))


class TestTheBoundary:
    def test_open_image(self, tmp_path, small_protein_database):
        path = tmp_path / "image.oasis"
        layout = build_disk_image(small_protein_database, path, block_size=512)
        size = layout.index_size_bytes
        assert os.path.getsize(path) == size
        assert type(open_image(path, small_protein_database, size)) is GeneralizedSuffixTree
        with open_image(path, small_protein_database, size - 1) as disk:
            assert type(disk) is DiskSuffixTree
            # One frame short of the image: the pool must evict to serve it.
            assert disk.pool.frame_count == layout.total_blocks - 1

    def test_build_on_disk(self, tmp_path, small_protein_database, pam30_matrix, gap8):
        size = build_disk_image(
            small_protein_database, tmp_path / "probe.oasis", block_size=512
        ).index_size_bytes
        for pool_bytes, expected in ((size, GeneralizedSuffixTree), (size - 1, DiskSuffixTree)):
            with OasisEngine.build_on_disk(
                small_protein_database,
                pam30_matrix,
                tmp_path / f"pool-{pool_bytes}.oasis",
                gap_model=gap8,
                block_size=512,
                buffer_pool_bytes=pool_bytes,
            ) as engine:
                assert type(engine.cursor) is expected
                assert len(engine.search(QUERY, min_score=20)) > 0

    def test_sharded_engine_open_gives_the_image_the_whole_budget(self, shard_index):
        directory, _, size = shard_index
        for budget, expected in ((size, GeneralizedSuffixTree), (size - 1, DiskSuffixTree)):
            with ShardedEngine.open(directory, buffer_pool_bytes=budget) as engine:
                assert engine.buffer_pool_bytes == budget
                assert type(engine.cursor) is expected

    def test_the_worker_opens_what_the_parent_opens(self, shard_index):
        directory, catalog, size = shard_index
        request = SearchRequest(QUERY, min_score=20)
        try:
            for pool_bytes in (size, size - 1):
                expected = GeneralizedSuffixTree if pool_bytes == size else DiskSuffixTree
                task = ShardSearchTask(
                    directory=str(directory),
                    shard=1,
                    root_symbols=b"\x00",
                    request=request,
                    matrix=pam30(),
                    deadline_epoch=None,
                    buffer_pool_bytes=pool_bytes,
                    fingerprint=catalog.fingerprint,
                    database_digest=catalog.database_digest,
                )
                assert type(remote._open_engine(task).cursor) is expected
        finally:
            # This process is not a worker: drop what the calls cached here.
            directory = os.path.abspath(directory)
            for key in [key for key in remote._ENGINES if key[0] == directory]:
                remote._ENGINES.pop(key).close()


class TestTheReadTree:
    @pytest.mark.parametrize("block_size", [72, 2048])
    @pytest.mark.parametrize("alphabet", ["protein", "dna"])
    def test_siblings_equal_the_built_and_the_disk_trees(self, tmp_path, block_size, alphabet):
        rng = random.Random(block_size)
        if alphabet == "protein":
            texts = [random_protein(rng, rng.randint(5, 60)) for _ in range(12)]
            database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        else:
            texts = [random_dna(rng, rng.randint(5, 90)) for _ in range(8)]
            database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        built = GeneralizedSuffixTree.build(database)
        path = tmp_path / "image.oasis"
        build_disk_image(built, path, block_size=block_size)
        read = GeneralizedSuffixTree.from_image(path, database)
        assert read.internal_records == built.internal_records
        assert read.leaf_records == built.leaf_records
        with DiskSuffixTree(path, database, buffer_pool_bytes=4 * block_size) as disk:
            nodes = internal_nodes(built)
            assert len(nodes) == built.internal_node_count
            for node in nodes:
                assert read.siblings(node) == built.siblings(node) == disk.siblings(node)

    def test_a_read_tree_searches_as_the_built_tree_and_keeps_nothing(
        self, tmp_path, small_protein_database, pam30_matrix, gap8
    ):
        built = GeneralizedSuffixTree.build(small_protein_database)
        path = tmp_path / "image.oasis"
        build_disk_image(built, path)
        read = GeneralizedSuffixTree.from_image(path, small_protein_database)
        outcomes = []
        for tree in (built, read):
            result = OasisEngine(tree, pam30_matrix, gap8).search(QUERY, min_score=20)
            assert len(result) > 0
            counters = result.statistics.as_dict()
            counters.pop("elapsed_seconds")
            outcomes.append(([(hit.sequence_index, hit.score) for hit in result], counters))
            # The search left the tree its arrays and nothing per node.
            assert set(vars(tree)) <= {
                "_database", "_codes", "_sequence_ends", "_image",
                "internal_records", "leaf_records", "node_records",
            }
        assert outcomes[0] == outcomes[1]

    def test_a_big_endian_host_byteswaps_back(self, tmp_path, monkeypatch, paper_tree):
        """``read_records`` undoes ``storage.builder._little_endian`` on either host."""
        path = tmp_path / "image.oasis"
        monkeypatch.setattr(sys, "byteorder", "big")
        layout = build_disk_image(paper_tree, path, block_size=72)
        with open(path, "rb") as handle:
            assert layout.read_records(handle, Region.INTERNAL_NODES) == paper_tree.internal_records
            assert layout.read_records(handle, Region.LEAF_NODES) == paper_tree.leaf_records


@pytest.mark.parametrize("pool_bytes", [None, 512], ids=["fits", "tight"])
def test_serial_and_process_scatters_agree(shard_index, pool_bytes):
    directory, _, _ = shard_index
    pool = {} if pool_bytes is None else {"buffer_pool_bytes": pool_bytes}
    results = []
    for backend in ("serial", "processes:2"):
        with ShardedEngine.open(directory, backend=backend, **pool) as engine:
            kind = type(engine.cursor)
            assert kind is (GeneralizedSuffixTree if pool_bytes is None else DiskSuffixTree)
            result = engine.search(QUERY, evalue=1_000.0)
            results.append((hit_list(result), result.statistics.columns_expanded))
    assert results[0] == results[1]
    assert results[0][0]


class TestReadOnFirstUse:
    def test_the_first_search_reads_the_records(self, tmp_path, small_protein_database):
        built = GeneralizedSuffixTree.build(small_protein_database)
        path = tmp_path / "image.oasis"
        build_disk_image(built, path)
        read = GeneralizedSuffixTree.from_image(path, small_protein_database)
        assert "internal_records" not in vars(read) and "leaf_records" not in vars(read)
        assert read.siblings(read.root) == built.siblings(built.root)
        assert vars(read)["internal_records"] == built.internal_records
        assert vars(read)["leaf_records"] == built.leaf_records

    def test_a_file_cut_after_the_open_is_refused_at_first_use(
        self, tmp_path, small_protein_database
    ):
        path = tmp_path / "image.oasis"
        build_disk_image(small_protein_database, path, block_size=512)
        read = GeneralizedSuffixTree.from_image(path, small_protein_database)
        os.truncate(path, os.path.getsize(path) - 512)
        with pytest.raises(ImageFormatError, match="truncated"):
            read.siblings(read.root)

    def test_a_region_read_short_is_refused_not_zero_filled(self, tmp_path, small_protein_database):
        """A file cut between the open checks and the read: the read raises."""
        path = tmp_path / "image.oasis"
        layout = build_disk_image(small_protein_database, path, block_size=512)
        os.truncate(path, os.path.getsize(path) - 512)
        with open(path, "rb") as handle:
            with pytest.raises(ImageFormatError, match="leaf_nodes region: the file is truncated"):
                layout.read_records(handle, Region.LEAF_NODES)

    def test_a_process_scatter_reads_no_records_in_this_process(self, shard_index):
        directory, _, _ = shard_index
        with ShardedEngine.open(directory, backend="processes:2") as engine:
            assert len(engine.search(QUERY, evalue=1_000.0)) > 0
            cursor = engine.cursor
            assert type(cursor) is GeneralizedSuffixTree
            assert "internal_records" not in vars(cursor)
            # The streaming path searches this process's tree: it reads then.
            assert list(engine.search_online(QUERY, evalue=1_000.0))
            assert "internal_records" in vars(cursor)


@pytest.mark.parametrize("pool_bytes", [None, 512], ids=["fits", "tight"])
def test_an_engine_rebuilt_around_the_opened_cursors_counts_the_same(shard_index, pool_bytes):
    """Hits and every counter, buffer-pool counters included, as the engine's own."""
    directory, catalog, _ = shard_index
    pool = {} if pool_bytes is None else {"buffer_pool_bytes": pool_bytes}

    def outcome(engine):
        result = engine.execute(QUERY, evalue=1_000.0).result()
        counters = result.statistics.as_dict()
        del counters["elapsed_seconds"]
        return hit_list(result), counters

    with ShardedEngine.open(directory, **pool) as plain:
        converter = SelectivityConverter(
            plain.matrix, plain.database, effective_database_size=plain.database.total_symbols
        )
        rebuilt = ShardedEngine(
            [
                OasisEngine(
                    Delegating(plain.cursor),
                    plain.matrix,
                    plain.gap_model,
                    converter=converter,
                )
            ],
            plain.database,
            plain.matrix,
            plain.gap_model,
            converter=converter,
            catalog=catalog,
            directory=str(directory),
            shard_buffer_bytes=[plain.buffer_pool_bytes],
        )
        # Each engine runs the query twice on the same cursor: the second
        # pass of each sees the same warm state.
        outcome(plain)
        expected = outcome(plain)
        assert outcome(rebuilt) == expected
        assert expected[0]
        assert (expected[1]["buffer_misses"] + expected[1]["buffer_hits"] > 0) == (
            pool_bytes is not None
        )
