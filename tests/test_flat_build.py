"""The disk build path: one sort per image, bounded memory, the builder's refusals.

Every way to a disk image -- ``ShardedIndexBuilder``, ``OasisEngine.build_on_disk``
and the CLI's ``index build`` -- goes through ``build_disk_image``, which
writes the record arrays of ``GeneralizedSuffixTree.build``: the suffixes of
each database are sorted once, and a tree handed in is written without
sorting again.  The peak of what one build allocates is held to a number of
bytes per residue (a count from ``tracemalloc``, no wall clock).
"""

import tracemalloc

import numpy as np
import pytest

import repro.suffixtree.build as build_module
from repro.cli import main
from repro.core.engine import OasisEngine
from repro.datagen import SwissProtLikeGenerator
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sequences.fasta import write_fasta
from repro.sharding.builder import ShardedIndexBuilder
from repro.sharding.engine import ShardedEngine
from repro.storage.builder import build_disk_image
from repro.suffixtree.generalized import GeneralizedSuffixTree


@pytest.fixture
def sorts(monkeypatch):
    """The databases ``sorted_suffixes`` was called on, in order."""
    calls = []
    sort = build_module.sorted_suffixes

    def counting(database):
        calls.append(database)
        return sort(database)

    monkeypatch.setattr(build_module, "sorted_suffixes", counting)
    return calls


class TestNoNodeOnTheDiskPath:
    # No node object is built anywhere any more; what is left to count is
    # the sort, once per image.
    def test_a_tree_is_written_without_sorting_again(self, sorts, tmp_path):
        database = SequenceDatabase.from_texts(["ACGTAC", "GTA"], alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        assert sorts == [database]
        build_disk_image(tree, tmp_path / "from-tree.oasis", block_size=256)
        assert sorts == [database]
        build_disk_image(database, tmp_path / "from-database.oasis", block_size=256)
        assert sorts == [database, database]

    def test_sharded_index_builder(self, sorts, small_protein_database, tmp_path):
        matrix, gap_model = pam30(), FixedGapModel(-8)
        ShardedIndexBuilder(matrix, gap_model, shard_count=2).build(
            small_protein_database, tmp_path / "index"
        )
        # One tree whatever the partition count: one sort.
        assert len(sorts) == 1
        with ShardedEngine.open(tmp_path / "index", backend="serial") as engine:
            assert len(engine.search("WKDDGNGYISAAE", min_score=20)) > 0

    def test_build_on_disk(self, sorts, small_protein_database, tmp_path):
        with OasisEngine.build_on_disk(
            small_protein_database, pam30(), tmp_path / "image.oasis", gap_model=FixedGapModel(-8)
        ) as engine:
            assert len(sorts) == 1
            assert len(engine.search("WKDDGNGYISAAE", min_score=20)) > 0

    def test_cli_index_build(self, sorts, small_protein_database, tmp_path, capsys):
        fasta = tmp_path / "db.fasta"
        write_fasta(small_protein_database, fasta)
        arguments = ["--database", str(fasta), "--output", str(tmp_path / "index"), "--shards", "2"]
        assert main(["index", "build", *arguments]) == 0
        assert len(sorts) == 1
        assert main(["index", "info", str(tmp_path / "index")]) == 0
        capsys.readouterr()


def test_build_memory_per_residue(tmp_path):
    database = SwissProtLikeGenerator(seed=3, family_count=70, singleton_count=70).generate()
    database.freeze()  # the database is the input, not part of the build
    residues = database.total_symbols
    assert residues > 100_000
    tracemalloc.start()
    try:
        build_disk_image(database, tmp_path / "image.oasis")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The object-tree build this replaced peaked at 354 B per residue.
    assert peak / residues <= 256, f"{peak / residues:.0f} B per residue"


class TestRefusals:
    def test_a_database_past_31_bit_pointers(self, monkeypatch, paper_database, tmp_path):
        monkeypatch.setattr(build_module, "VALUE_MASK", paper_database.total_symbols)
        with pytest.raises(ValueError, match="31-bit"):
            build_disk_image(paper_database, tmp_path / "image.oasis")

    def test_a_suffix_that_is_a_prefix_of_its_predecessor(self):
        # "AC$" after "ACG$" with an LCP of 3: only possible when the
        # terminals were not told apart, which the builder must not swallow.
        with pytest.raises(ValueError, match="prefix of its predecessor"):
            build_module._flat_tree(np.array([0, 4]), np.array([0, 3]), np.array([4, 7]))

    def test_a_first_suffix_with_a_nonzero_lcp(self):
        with pytest.raises(ValueError, match="LCP 0"):
            build_module._flat_tree(np.array([0]), np.array([1]), np.array([4]))
