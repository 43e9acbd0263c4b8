"""Unit tests for the partitioned (Hunt-et-al.-style) lexical partitions."""

import random

import numpy as np
import pytest

from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree, construction_codes
from repro.suffixtree.partitioned import PartitionedTreeBuilder
from repro.suffixtree.suffix_array import build_lcp_array, build_suffix_array

from repro.testing import random_dna, random_protein


def tree_shape(cursor):
    """A canonical description of a tree: sorted (path label, leaf position)."""
    shape = []
    stack = [(cursor.root, b"")]
    while stack:
        node, label = stack.pop()
        label += cursor.arc_symbols(node)
        if cursor.is_leaf(node):
            shape.append((label, cursor.suffix_start(node)))
        else:
            stack.extend((child, label) for child in cursor.children(node))
    return sorted(shape)


def partitioned_disk_tree(database, path, max_partition_size):
    """The tree the disk build writes from budget-sized lexical partitions."""
    build_disk_image(database, path, block_size=256, max_partition_size=max_partition_size)
    return DiskSuffixTree(path, database)


class TestPartitionedConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PartitionedTreeBuilder(max_partition_size=0)
        with pytest.raises(ValueError):
            PartitionedTreeBuilder(max_prefix_length=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_to_direct_construction(self, seed, tmp_path):
        rng = random.Random(seed)
        texts = [random_dna(rng, rng.randint(5, 50)) for _ in range(rng.randint(1, 5))]
        database_a = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        database_b = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        direct = GeneralizedSuffixTree.build(database_a)
        with partitioned_disk_tree(database_b, tmp_path / "tree.oasis", 9) as partitioned:
            assert tree_shape(partitioned) == tree_shape(direct)

    def test_partition_sizes_respect_budget(self):
        rng = random.Random(3)
        texts = [random_protein(rng, 80) for _ in range(6)]
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        builder = PartitionedTreeBuilder(max_partition_size=40)
        list(builder.sorted_partitions(database))
        summary = builder.partition_summary()
        assert summary["largest_partition"] <= 40
        assert summary["total_suffixes"] == database.total_symbols
        assert summary["partitions"] >= 2

    def test_a_terminal_group_over_budget_is_cut_in_sequence_order(self):
        # Nine sequences end in "A": the "A$" group cannot be extended past its
        # terminal, so it is sliced -- and still comes out in lexical order.
        database = SequenceDatabase.from_texts(["CA"] * 9, alphabet=DNA_ALPHABET)
        builder = PartitionedTreeBuilder(max_partition_size=4)
        positions = np.concatenate([p for p, _ in builder.sorted_partitions(database)])
        assert [p.prefix for p in builder.report.partitions][:3] == ["A$", "A$", "A$"]
        assert builder.report.largest_partition <= 4
        direct = GeneralizedSuffixTree.build(
            SequenceDatabase.from_texts(["CA"] * 9, alphabet=DNA_ALPHABET)
        )
        assert positions.tolist() == list(direct.leaf_positions(direct.root))

    @pytest.mark.parametrize("budget", [1, 5, 1000])
    def test_sorted_partitions_concatenate_to_the_suffix_and_lcp_arrays(self, budget):
        rng = random.Random(budget)
        texts = [random_dna(rng, rng.randint(1, 40)) for _ in range(5)] + ["ACGT", "ACGT"]
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        # The iterator the image builder reads: no tree is built from it here.
        # (A budget of 1 needs prefixes as long as the longest repeat.)
        builder = PartitionedTreeBuilder(max_partition_size=budget, max_prefix_length=64)
        parts = list(builder.sorted_partitions(database))
        assert max(len(p) for p, _ in parts) == builder.report.largest_partition <= budget
        positions = np.concatenate([p for p, _ in parts])
        lcps = np.concatenate([l for _, l in parts])
        text = construction_codes(database)
        suffix_array = build_suffix_array(text)
        keep = slice(0, database.total_symbols)  # terminal suffixes are the tail
        assert positions.tolist() == suffix_array[keep].tolist()
        assert lcps.tolist() == build_lcp_array(text, suffix_array)[keep].tolist()

    def test_queries_agree_with_direct_tree(self, tmp_path):
        rng = random.Random(9)
        texts = [random_dna(rng, rng.randint(10, 60)) for _ in range(4)]
        direct = GeneralizedSuffixTree.build(
            SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        )
        with partitioned_disk_tree(
            SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET),
            tmp_path / "tree.oasis",
            15,
        ) as partitioned:
            for _ in range(40):
                query = random_dna(rng, rng.randint(1, 6))
                assert partitioned.find_occurrences(query) == direct.find_occurrences(query)

    def test_single_partition_budget_larger_than_database(self):
        database = SequenceDatabase.from_texts(["ACGTACGT"], alphabet=DNA_ALPHABET)
        builder = PartitionedTreeBuilder(max_partition_size=1000)
        [(positions, _lcps)] = builder.sorted_partitions(database)
        assert len(positions) == database.total_symbols
        # Prefixes are extended only while a partition exceeds the budget.
        assert builder.partition_summary()["partitions"] == 1
        assert [p.prefix for p in builder.report.partitions] == [""]

    def test_report_prefixes_recorded(self):
        database = SequenceDatabase.from_texts(["ACGTACGTAC"], alphabet=DNA_ALPHABET)
        builder = PartitionedTreeBuilder(max_partition_size=3)
        list(builder.sorted_partitions(database))
        prefixes = [p.prefix for p in builder.report.partitions]
        assert all(prefixes)
        assert len(prefixes) == len(set(prefixes))
