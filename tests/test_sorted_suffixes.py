"""``sorted_suffixes``: the two arrays both trees are built from."""

import random

import numpy as np
import pytest

from cursor_lookups import find_occurrences
from image_oracle import naive_lcp, naive_suffix_array, object_tree_shape, tree_shape
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.build import construction_codes, sorted_suffixes
from repro.suffixtree.generalized import GeneralizedSuffixTree

from support import random_dna, random_protein


def disk_tree(database, path):
    """The tree the disk build writes from the sorted suffixes."""
    build_disk_image(database, path, block_size=256)
    return DiskSuffixTree(path, database)


def naive_sorted_suffixes(database):
    """The naive sort of the construction codes, less the suffixes at a terminal."""
    text = construction_codes(database)
    positions = naive_suffix_array(text)[: database.total_symbols]
    return positions, naive_lcp(text, positions)


class TestSortedSuffixes:
    @pytest.mark.parametrize("seed", range(5))
    def test_identical_to_direct_construction(self, seed, tmp_path):
        # The record arrays, in memory and on disk, hold the tree the
        # node-object conversion of the same sorted suffixes builds.
        rng = random.Random(seed)
        texts = [random_dna(rng, rng.randint(5, 50)) for _ in range(rng.randint(1, 5))]
        database_a = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        database_b = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        direct = object_tree_shape(database_a)
        assert tree_shape(GeneralizedSuffixTree.build(database_a)) == direct
        with disk_tree(database_b, tmp_path / "tree.oasis") as on_disk:
            assert tree_shape(on_disk) == direct

    def test_queries_agree_with_direct_tree(self, tmp_path):
        rng = random.Random(9)
        texts = [random_dna(rng, rng.randint(10, 60)) for _ in range(4)]
        direct = GeneralizedSuffixTree.build(
            SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        )
        with disk_tree(
            SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET), tmp_path / "tree.oasis"
        ) as on_disk:
            for _ in range(40):
                query = random_dna(rng, rng.randint(1, 6))
                assert find_occurrences(on_disk, query) == find_occurrences(direct, query)

    @pytest.mark.parametrize(
        "alphabet, random_text",
        [(DNA_ALPHABET, random_dna), (PROTEIN_ALPHABET, random_protein)],
        ids=["dna", "protein"],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_against_the_naive_sort(self, alphabet, random_text, seed):
        rng = random.Random(seed)
        texts = [random_text(rng, rng.randint(1, 40)) for _ in range(5)]
        texts += texts[:2]  # duplicated outright: only the terminals tell them apart
        database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
        positions, lcps = sorted_suffixes(database)
        assert (positions.tolist(), lcps.tolist()) == naive_sorted_suffixes(database)

    def test_identical_sequences_come_out_in_sequence_order(self):
        # Nine copies of "CA": each suffix ties with its copies up to the
        # terminal, and the terminals order them by sequence.
        database = SequenceDatabase.from_texts(["CA"] * 9, alphabet=DNA_ALPHABET)
        positions, lcps = sorted_suffixes(database)
        assert positions.tolist() == [1 + 3 * k for k in range(9)] + [3 * k for k in range(9)]
        assert lcps.tolist() == [0] + [1] * 8 + [0] + [2] * 8

    def test_no_suffix_begins_at_a_terminal(self):
        database = SequenceDatabase.from_texts(["ACGT", "GA", "T"], alphabet=DNA_ALPHABET)
        positions, lcps = sorted_suffixes(database)
        assert len(positions) == len(lcps) == database.total_symbols
        text = np.frombuffer(database.concatenated_codes, dtype=np.uint8)
        assert not (text[positions] == DNA_ALPHABET.terminal_code).any()

    def test_two_copies_of_a_long_sequence_build(self, tmp_path):
        # Quadratic for a sort whose work is the sum of the LCPs (~2 * 10**8
        # symbol comparisons here); one doubling sort does it in a few rounds.
        rng = random.Random(4)
        half = random_dna(rng, 20_000)
        database = SequenceDatabase.from_texts([half, half], alphabet=DNA_ALPHABET)
        positions, lcps = sorted_suffixes(database)
        assert np.sort(lcps)[-19_000:].tolist() == list(range(1_001, 20_001))
        with disk_tree(database, tmp_path / "twins.oasis") as on_disk:
            assert find_occurrences(on_disk, half[-30:]) == [(0, 19_970), (1, 19_970)]
