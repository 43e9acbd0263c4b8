"""Unit tests for the Ukkonen construction (and cross-validation vs the SA builder)."""

import random

import pytest

from cursor_lookups import find_occurrences
from repro.sequences.alphabet import DNA_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree
from repro.suffixtree.suffix_array import build_suffix_array

from support import PAPER_TARGET, random_dna
from ukkonen_oracle import UkkonenSuffixTree


def encode(text):
    return DNA_ALPHABET.encode(text)


class TestUkkonenBasics:
    def test_contains_substrings(self):
        tree = UkkonenSuffixTree(encode(PAPER_TARGET))
        assert tree.contains(encode("TACG"))
        assert tree.contains(encode("AGTACGCCTAG"))
        assert not tree.contains(encode("GGG"))

    def test_occurrences(self):
        tree = UkkonenSuffixTree(encode("ABABABA".replace("B", "C")))
        assert tree.occurrences(encode("ACA")) == [0, 2, 4]

    def test_empty_query_contained(self):
        tree = UkkonenSuffixTree(encode("ACGT"))
        assert tree.contains(encode(""))

    def test_text_length_excludes_sentinel(self):
        assert UkkonenSuffixTree(encode("ACGT")).text_length == 4

    def test_node_counts(self):
        counts = UkkonenSuffixTree(encode(PAPER_TARGET)).node_counts()
        # One leaf per suffix of text+sentinel.
        assert counts["leaves"] == len(PAPER_TARGET) + 1
        assert counts["total"] == counts["leaves"] + counts["internal"]

    def test_repetitive_input(self):
        tree = UkkonenSuffixTree(encode("AAAAAAAA"))
        assert tree.occurrences(encode("AAA")) == list(range(6))


class TestCrossValidation:
    """The Ukkonen tree and the suffix-array machinery must agree exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_suffix_array_agreement(self, seed):
        rng = random.Random(seed)
        text = random_dna(rng, rng.randint(2, 80))
        codes = encode(text)
        from_tree = UkkonenSuffixTree(codes).suffix_array()
        # The SA construction needs a unique final sentinel to mirror the tree.
        import numpy as np

        with_sentinel = np.array([*codes, 100], dtype=np.int64)
        from_doubling = [p for p in build_suffix_array(with_sentinel).tolist() if p < len(codes)]
        assert from_tree == from_doubling

    @pytest.mark.parametrize("seed", range(10))
    def test_occurrence_agreement_with_generalized_tree(self, seed):
        rng = random.Random(1000 + seed)
        text = random_dna(rng, rng.randint(5, 60))
        ukkonen = UkkonenSuffixTree(encode(text))
        generalized = GeneralizedSuffixTree.build(
            SequenceDatabase.from_texts([text], alphabet=DNA_ALPHABET)
        )
        for _ in range(20):
            query = random_dna(rng, rng.randint(1, 6))
            expected = [offset for _, offset in find_occurrences(generalized, query)]
            assert ukkonen.occurrences(encode(query)) == expected
