"""Unit tests for repro.scoring.matrix and the built-in matrix data."""

import pytest

from repro.scoring.data import (
    available_matrices,
    blosum45,
    blosum62,
    load_matrix,
    nucleotide_matrix,
    pam30,
    pam70,
    unit_matrix,
)
from repro.scoring.matrix import MAX_SCORE_MAGNITUDE, SubstitutionMatrix
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET


class TestSubstitutionMatrix:
    def test_unit_matrix_matches_table1(self):
        matrix = unit_matrix(DNA_ALPHABET)
        assert matrix.score("A", "A") == 1
        assert matrix.score("A", "C") == -1
        assert matrix.score("G", "T") == -1

    def test_score_is_case_insensitive(self):
        assert blosum62().score("a", "r") == blosum62().score("A", "R")

    def test_score_codes_agrees_with_score(self):
        matrix = blosum62()
        a, r = PROTEIN_ALPHABET.code("A"), PROTEIN_ALPHABET.code("R")
        assert matrix.score_codes(a, r) == matrix.score("A", "R")

    def test_terminal_symbol_strongly_negative(self):
        matrix = unit_matrix(DNA_ALPHABET)
        terminal = DNA_ALPHABET.terminal_code
        assert matrix.score_codes(0, terminal) < -1000

    def test_symmetrisation_from_partial_scores(self):
        matrix = SubstitutionMatrix("toy", DNA_ALPHABET, {("A", "C"): 2}, default_mismatch=-1)
        assert matrix.score("C", "A") == 2

    def test_conflicting_scores_rejected(self):
        with pytest.raises(ValueError):
            SubstitutionMatrix("bad", DNA_ALPHABET, {("A", "C"): 2, ("C", "A"): 3})

    def test_a_score_past_the_bound_is_refused(self):
        edge = SubstitutionMatrix.from_match_mismatch(
            "edge", DNA_ALPHABET, MAX_SCORE_MAGNITUDE, -MAX_SCORE_MAGNITUDE
        )
        assert (edge.max_score, edge.min_score) == (MAX_SCORE_MAGNITUDE, -MAX_SCORE_MAGNITUDE)
        for match, mismatch in ((MAX_SCORE_MAGNITUDE + 1, -1), (1, -MAX_SCORE_MAGNITUDE - 1)):
            with pytest.raises(ValueError, match=f"within \\+-{MAX_SCORE_MAGNITUDE}"):
                SubstitutionMatrix.from_match_mismatch("past", DNA_ALPHABET, match, mismatch)
        with pytest.raises(ValueError, match="'wide'"):
            SubstitutionMatrix("wide", DNA_ALPHABET, {("A", "C"): 2**62})

    def test_from_rows_validates_length(self):
        with pytest.raises(ValueError):
            SubstitutionMatrix.from_rows("bad", DNA_ALPHABET, "AC", {"A": [1]})

    def test_max_and_min_score(self):
        matrix = blosum62()
        assert matrix.max_score == 11  # W-W
        assert matrix.min_score == -4

    def test_max_score_for_symbol(self):
        assert blosum62().max_score_for("W") == 11
        assert pam30().max_score_for("W") == 13

    def test_max_row_scores_shape(self):
        rows = blosum62().max_row_scores()
        assert len(rows) == PROTEIN_ALPHABET.size_with_terminal

    def test_expected_score_negative_uniform(self):
        for matrix in (pam30(), pam70(), blosum62(), blosum45()):
            assert matrix.expected_score() < 0

    def test_expected_score_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            blosum62().expected_score({"A": 0.0})

    def test_to_dict_roundtrip(self):
        matrix = unit_matrix(DNA_ALPHABET)
        exported = matrix.to_dict()
        assert exported[("A", "A")] == 1
        assert exported[("A", "C")] == -1

    def test_format_table_contains_symbols(self):
        text = unit_matrix(DNA_ALPHABET).format_table()
        assert "A" in text and "T" in text


class TestBuiltInMatrices:
    @pytest.mark.parametrize("factory", [pam30, pam70, blosum62, blosum45])
    def test_protein_matrices_are_symmetric(self, factory):
        assert factory().is_symmetric()

    @pytest.mark.parametrize("factory", [pam30, pam70, blosum62, blosum45])
    def test_protein_matrices_have_positive_diagonal(self, factory):
        matrix = factory()
        for symbol in "ARNDCQEGHILKMFPSTWYV":
            assert matrix.score(symbol, symbol) > 0

    def test_blosum62_spot_values(self):
        matrix = blosum62()
        assert matrix.score("A", "A") == 4
        assert matrix.score("W", "W") == 11
        assert matrix.score("E", "D") == 2
        assert matrix.score("I", "V") == 3
        assert matrix.score("G", "I") == -4

    def test_pam30_is_harsher_than_blosum62(self):
        # PAM30 punishes mismatches far more strongly (short-query matrix).
        assert pam30().min_score < blosum62().min_score
        assert pam30().expected_score() < blosum62().expected_score()

    def test_pam70_between_pam30_and_blosum62(self):
        assert pam30().expected_score() < pam70().expected_score() < blosum62().expected_score()

    def test_nucleotide_matrix_defaults(self):
        matrix = nucleotide_matrix()
        assert matrix.score("A", "A") == 1
        assert matrix.score("A", "G") == -3

    def test_registry_lookup(self):
        assert set(available_matrices()) == {"PAM30", "PAM70", "BLOSUM62", "BLOSUM45"}
        assert load_matrix("pam30") is pam30()

    def test_registry_unknown_name(self):
        with pytest.raises(KeyError):
            load_matrix("PAM250")

    def test_matrices_are_cached(self):
        assert blosum62() is blosum62()
