"""Tests for the BLAST-like heuristic baseline."""

import pytest

from repro.baselines.blast import BlastLikeSearch, BlastParameters
from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.scoring.data import nucleotide_matrix, pam30
from repro.scoring.gaps import AffineGapModel, FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET
from repro.sequences.database import SequenceDatabase


class TestParameters:
    def test_defaults_valid(self):
        BlastParameters().validate()

    def test_invalid_word_size(self):
        with pytest.raises(ValueError):
            BlastParameters(word_size=0).validate()

    def test_invalid_window_margin(self):
        with pytest.raises(ValueError):
            BlastParameters(window_margin=-1).validate()

    def test_band_width_is_not_a_parameter(self):
        # The gapped extension is a window around the seed, not a band.
        with pytest.raises(TypeError):
            BlastParameters(band_width=16)


class TestProteinSearch:
    @pytest.fixture
    def engine(self, small_protein_database, pam30_matrix, gap8):
        return BlastLikeSearch(small_protein_database, pam30_matrix, gap8)

    def test_finds_planted_homologs(self, engine):
        result = engine.search("WKDDGNGYISAAE", evalue=10.0)
        assert len(result) >= 3
        assert result.is_sorted_by_score()

    def test_requires_exactly_one_threshold(self, engine):
        with pytest.raises(ValueError):
            engine.search("WKDD")
        with pytest.raises(ValueError):
            engine.search("WKDD", evalue=1.0, min_score=10)

    def test_never_reports_above_smith_waterman(self, engine, small_protein_database, pam30_matrix, gap8):
        """Heuristic scores can never exceed the exact per-sequence optimum."""
        reference = SmithWatermanAligner(pam30_matrix, gap8).search(
            small_protein_database, "WKDDGNGYISAAE", min_score=1
        )
        exact = reference.scores_by_sequence()
        result = engine.search("WKDDGNGYISAAE", min_score=10)
        for hit in result:
            assert hit.score <= exact.get(hit.sequence_identifier, 0)

    def test_exact_copy_recovers_full_score(self, small_protein_database, pam30_matrix, gap8):
        engine = BlastLikeSearch(small_protein_database, pam30_matrix, gap8)
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        # A verbatim substring of a database sequence must be found with its
        # exact Smith-Waterman score (the seed/extension covers it fully).
        target = small_protein_database[0].text
        query = target[10:24]
        expected = aligner.best_score_pair(query, target)
        result = engine.search(query, min_score=1)
        hit = result.hit_for(small_protein_database[0].identifier)
        assert hit is not None
        assert hit.score == expected

    def test_evalues_attached_and_bounded(self, engine):
        result = engine.search("WKDDGNGYISAAE", evalue=5.0)
        assert all(hit.evalue is not None and hit.evalue <= 5.0 for hit in result)

    def test_columns_expanded_tracked(self, engine, small_protein_database):
        result = engine.search("WKDDGNGYISAAE", evalue=10.0)
        assert 0 < result.columns_expanded
        # The heuristic must examine far less than the whole database.
        assert result.columns_expanded < small_protein_database.total_symbols

    def test_compute_alignments(self, engine):
        result = engine.search("WKDDGNGYISAAE", evalue=10.0, compute_alignments=True)
        assert all(hit.alignment is not None for hit in result)

    def test_very_short_query_falls_back_to_single_symbol_seeds(self, engine):
        result = engine.search("WK", min_score=1)
        assert isinstance(result.hits, list)

    def test_affine_gaps_rejected(self, small_protein_database, pam30_matrix):
        with pytest.raises(NotImplementedError):
            BlastLikeSearch(small_protein_database, pam30_matrix, AffineGapModel(-5, -1))

    def test_heuristic_can_miss_matches_oasis_finds(self, small_protein_database, pam30_matrix, gap8):
        """The defining limitation: no word hit => no result (Figure 5's gap)."""
        strict = BlastParameters(word_size=3, neighborhood_threshold=30, gapped_trigger=100)
        blast = BlastLikeSearch(
            small_protein_database, pam30_matrix, gap8, parameters=strict
        )
        exact = SmithWatermanAligner(pam30_matrix, gap8).search(
            small_protein_database, "WKDDGNGYISAAE", min_score=25
        )
        heuristic = blast.search("WKDDGNGYISAAE", min_score=25)
        assert len(heuristic) <= len(exact)


class TestNucleotideSearch:
    def test_exact_word_seeding(self, small_dna_database):
        engine = BlastLikeSearch(
            small_dna_database,
            nucleotide_matrix(),
            FixedGapModel(-2),
            parameters=BlastParameters(word_size=5, gapped_trigger=5),
        )
        query = small_dna_database[0].text[2:14]
        result = engine.search(query, min_score=5)
        assert result.hit_for(small_dna_database[0].identifier) is not None
