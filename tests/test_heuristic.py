"""Unit tests for the heuristic vector of Section 3.1."""

from repro.core.heuristic import compute_heuristic_vector, maximum_possible_score
from repro.scoring.data import pam30, unit_matrix
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET


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

    def test_maximum_possible_score_matches_first_entry(self):
        query = PROTEIN_ALPHABET.encode("MKVLA")
        heuristic = compute_heuristic_vector(query, pam30())
        assert maximum_possible_score(query, pam30()) == heuristic[0]

    def test_empty_query(self):
        heuristic = compute_heuristic_vector(b"", pam30())
        assert heuristic == [0]
