"""Unit tests for the heuristic vector of Section 3.1."""

import pytest

from repro.core.expand import ExpansionContext
from repro.core.frontier import EMPTY
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import available_kernels, get_kernel
from repro.core.search_node import VIABLE_AFTER
from repro.scoring.data import nucleotide_matrix, pam30, unit_matrix
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree


class TestHeuristicVector:
    def test_unit_matrix_counts_remaining_symbols(self):
        query = DNA_ALPHABET.encode("TACG")
        heuristic = compute_heuristic_vector(query, unit_matrix(DNA_ALPHABET))
        # Each remaining symbol can contribute at most +1.
        assert heuristic == [4, 3, 2, 1, 0]

    def test_last_entry_always_zero(self):
        query = PROTEIN_ALPHABET.encode("MKVLA")
        assert compute_heuristic_vector(query, pam30())[-1] == 0

    def test_monotonically_non_increasing(self):
        query = PROTEIN_ALPHABET.encode("WKDDGNGYISAAE")
        heuristic = compute_heuristic_vector(query, pam30())
        assert all(a >= b for a, b in zip(heuristic, heuristic[1:]))

    def test_entries_are_suffix_sums_of_row_maxima(self):
        query = PROTEIN_ALPHABET.encode("WAC")
        matrix = pam30()
        heuristic = compute_heuristic_vector(query, matrix)
        expected_tail = max(0, matrix.max_score_for("C"))
        assert heuristic[2] == expected_tail
        assert heuristic[1] == expected_tail + max(0, matrix.max_score_for("A"))
        assert heuristic[0] == heuristic[1] + max(0, matrix.max_score_for("W"))

    def test_admissibility_upper_bounds_any_alignment(self, brute_force, pam30_matrix):
        # h[0] must be >= the best local alignment score against any target.
        query = "WKDDGNGYISAAE"
        heuristic = compute_heuristic_vector(PROTEIN_ALPHABET.encode(query), pam30_matrix)
        for target in ["WKDDGNGYISAAE", "WKDDGNGYISAAEWKDDGNGYISAAE", "MKVLAADTG"]:
            assert heuristic[0] >= brute_force(query, target, pam30_matrix, -8)

    @pytest.mark.skipif(
        "compiled" not in available_kernels(), reason="the compiled step does not build here"
    )
    @pytest.mark.parametrize(
        "matrix, alphabet, texts, query",
        [
            (pam30(), PROTEIN_ALPHABET, ["MKVLAADTGLA", "GGWKDDGNGY"], "WKDDGNGYMKVLA"),
            (nucleotide_matrix(1, -3), DNA_ALPHABET, ["ACGTTGCA", "TTACG"], "ACGTACGTTTGCAN"),
        ],
        ids=["pam30", "nucleotide-1-3"],
    )
    @pytest.mark.parametrize("min_score", [1, 5, 12, 40])
    def test_the_c_frontier_seeds_the_root_from_the_same_heuristic(
        self, matrix, alphabet, texts, query, min_score
    ):
        # The C frontier builds h and the root column itself, from the
        # matrix's gains: its first pop is the root entry, bound h[0].
        tree = GeneralizedSuffixTree.build(SequenceDatabase.from_texts(texts, alphabet=alphabet))
        codes = alphabet.encode(query)
        context = ExpansionContext(codes, matrix.rows, -4, matrix.gains, min_score)
        heuristic = compute_heuristic_vector(codes, matrix)
        assert context.heuristic == heuristic
        popped = []
        frontier = get_kernel("compiled").node_frontier(
            tree.node_records, context, tree.root, None, popped
        )
        step = frontier.advance(None, 1)
        if heuristic[0] < min_score:
            # Nothing can reach the threshold: no root entry at all.
            assert (step, popped, len(frontier)) == (EMPTY, [], 0)
            return
        (root,) = popped
        assert root == (-heuristic[0], VIABLE_AFTER, 0, tree.root, context.make_root_cells(), 0, 0)
        assert context.make_root_cells() == [
            (row, 0) for row, bound in enumerate(heuristic) if bound >= min_score
        ]

    def test_empty_query(self):
        heuristic = compute_heuristic_vector(b"", pam30())
        assert heuristic == [0]
