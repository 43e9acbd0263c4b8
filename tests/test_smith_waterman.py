"""Tests for the Smith-Waterman baseline (scan, pairwise, affine extension)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.baselines.smith_waterman import SmithWatermanAligner, best_local_scores
from repro.core.engine import OasisEngine
from repro.scoring.data import blosum62, nucleotide_matrix, pam30, unit_matrix
from repro.scoring.gaps import AffineGapModel, FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence

from support import (
    AMINO_ACIDS,
    PAPER_QUERY,
    PAPER_TARGET,
    brute_force_local_score,
    random_protein,
)


class TestPaperExample:
    def test_table2_score(self, unit_dna_matrix):
        aligner = SmithWatermanAligner(unit_dna_matrix, FixedGapModel(-1))
        alignment = aligner.align_pair(PAPER_QUERY, PAPER_TARGET)
        assert alignment.score == 4
        assert alignment.aligned_query == "TACG"
        assert alignment.aligned_target == "TACG"
        assert alignment.target_start == 2
        assert alignment.target_end == 6

    def test_best_score_pair(self, unit_dna_matrix):
        aligner = SmithWatermanAligner(unit_dna_matrix, FixedGapModel(-1))
        assert aligner.best_score_pair(PAPER_QUERY, PAPER_TARGET) == 4


class TestDatabaseScan:
    def test_scan_matches_pairwise(self, pam30_matrix, gap8, brute_force):
        rng = random.Random(5)
        texts = [random_protein(rng, rng.randint(8, 60)) for _ in range(6)]
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        query = texts[2][4:16]
        result = aligner.search(database, query, min_score=1)
        for index, text in enumerate(texts):
            expected = brute_force(query, text, pam30_matrix, -8)
            hit = result.hit_for(f"seq{index}")
            if expected >= 1:
                assert hit is not None and hit.score == expected
            else:
                assert hit is None

    def test_results_sorted_and_threshold_respected(self, small_protein_database, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        result = aligner.search(small_protein_database, "WKDDGNGYISAAE", min_score=30)
        assert result.is_sorted_by_score()
        assert all(hit.score >= 30 for hit in result)

    def test_columns_expanded_equals_database_size(self, small_protein_database, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        result = aligner.search(small_protein_database, "WKDDGNGYISAAE", min_score=1)
        assert result.columns_expanded == small_protein_database.total_symbols

    def test_min_score_validation(self, small_protein_database, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        with pytest.raises(ValueError):
            aligner.search(small_protein_database, "WKDD", min_score=0)

    def test_evalue_annotation(self, small_protein_database, pam30_matrix, gap8):
        from repro.scoring.karlin_altschul import estimate_karlin_altschul

        statistics = estimate_karlin_altschul(pam30_matrix)
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        result = aligner.search(
            small_protein_database, "WKDDGNGYISAAE", min_score=30, statistics=statistics
        )
        assert all(hit.evalue is not None for hit in result)

    def test_alignments_computed_on_request(self, small_protein_database, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        result = aligner.search(
            small_protein_database, "WKDDGNGYISAAE", min_score=30, compute_alignments=True
        )
        assert all(hit.alignment is not None for hit in result)
        assert all(hit.alignment.score == hit.score for hit in result)

    def test_reset_counters(self, small_protein_database, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        aligner.search(small_protein_database, "WKDD", min_score=1)
        aligner.reset_counters()
        assert aligner.columns_expanded == 0

    def test_equal_scores_in_canonical_hit_order(self, pam30_matrix, gap8):
        # Twelve identical sequences tie on score: every engine then orders
        # them by identifier, so seq10 and seq11 come before seq2.
        database = SequenceDatabase.from_texts(["WKDDGNGYISAAE"] * 12, alphabet=PROTEIN_ALPHABET)
        result = SmithWatermanAligner(pam30_matrix, gap8).search(
            database, "WKDDGNGYISAAE", min_score=1
        )
        assert result.sequence_identifiers()[:4] == ["seq0", "seq1", "seq10", "seq11"]
        oasis = OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        expected = oasis.search("WKDDGNGYISAAE", min_score=1)
        assert [(hit.sequence_index, hit.score) for hit in result] == [
            (hit.sequence_index, hit.score) for hit in expected
        ]


def scan_matches_pairwise(texts, query, alphabet, matrix, gap_model):
    """The scan's per-sequence scores against one pairwise DP per sequence:
    the plain-list brute force for fixed gaps, the per-cell Gotoh DP for
    affine ones."""
    database = SequenceDatabase.from_texts(texts, alphabet=alphabet)
    scores = best_local_scores(
        Sequence(query, alphabet).codes, database.concatenated_codes, matrix, gap_model
    )
    if gap_model.is_affine:
        pairwise = SmithWatermanAligner(matrix, gap_model)
        expected = [pairwise.best_score_pair(query, text) for text in texts]
    else:
        expected = [
            brute_force_local_score(query, text, matrix, gap_model.per_symbol) for text in texts
        ]
    assert scores.tolist() == expected


#: (alphabet, its letters, matrix) of the scan's random databases.
SCORINGS = [
    (PROTEIN_ALPHABET, AMINO_ACIDS, pam30()),
    (PROTEIN_ALPHABET, AMINO_ACIDS, blosum62()),
    (DNA_ALPHABET, "ACGT", nucleotide_matrix(1, -3)),
    (DNA_ALPHABET, "ACGT", nucleotide_matrix(5, -4)),
]
gap_models = st.one_of(
    st.builds(FixedGapModel, st.integers(min_value=-8, max_value=-1)),
    st.builds(
        AffineGapModel,
        st.integers(min_value=-12, max_value=-1),
        st.integers(min_value=-4, max_value=-1),
    ),
)
TWELVE_PROTEINS = [random_protein(random.Random(index), 1 + index % 5) for index in range(12)]


class TestOneScan:
    """``best_local_scores`` over a whole database equals a pairwise DP per
    sequence, on random protein and DNA databases of up to 16 sequences."""

    @given(scoring=st.sampled_from(SCORINGS), gap_model=gap_models, data=st.data())
    def test_random_databases(self, scoring, gap_model, data):
        alphabet, letters, matrix = scoring
        texts = data.draw(
            st.lists(st.text(letters, min_size=1, max_size=12), min_size=1, max_size=16)
        )
        query = data.draw(st.text(letters, min_size=1, max_size=20))
        scan_matches_pairwise(texts, query, alphabet, matrix, gap_model)

    @pytest.mark.parametrize(
        "texts, query, scoring, gap_model",
        [
            (["W", "K", "D"], "WKD", SCORINGS[0], FixedGapModel(-8)),
            (["MKV", "LA"], "MKVLAADTGLAV", SCORINGS[1], AffineGapModel(-10, -1)),
            (TWELVE_PROTEINS, "WKDDGNGYISAAE", SCORINGS[0], FixedGapModel(-2)),
            (TWELVE_PROTEINS, "MKVLAAW", SCORINGS[0], AffineGapModel(-3, -1)),
            (["A", "C", "G", "T"], "ACGTACGTACGTACG", SCORINGS[2], AffineGapModel(-2, -1)),
            (["ACGTT"] * 11, "ACGTTTACGTT", SCORINGS[3], FixedGapModel(-1)),
            (["ACGTACGCATGCAC"], "ACGTACGTTTTCATGCAC", SCORINGS[2], AffineGapModel(-2, -1)),
            (["ACGTACGTTTTCATGCAC"], "ACGTACGCATGCAC", SCORINGS[2], AffineGapModel(-2, -1)),
        ],
        ids=[
            "length-1",
            "query-longer-than-all",
            "twelve",
            "twelve-affine",
            "dna-length-1-affine",
            "dna-eleven",
            "affine-gap-in-target",
            "affine-gap-in-query",
        ],
    )
    def test_pinned_shapes(self, texts, query, scoring, gap_model):
        # Length-1 sequences, queries longer than every sequence, ten or more
        # sequences, and a 4-symbol gap on either side that only an extended
        # (not a reopened) affine gap bridges.
        alphabet, _, matrix = scoring
        scan_matches_pairwise(texts, query, alphabet, matrix, gap_model)

    def test_no_alignment_crosses_a_terminal(self):
        # "WW" only occurs across the boundary of the two sequences.
        database = SequenceDatabase.from_texts(["AAW", "WAA"], alphabet=PROTEIN_ALPHABET)
        scores = best_local_scores(
            PROTEIN_ALPHABET.encode("WW"), database.concatenated_codes, pam30(), FixedGapModel(-8)
        )
        assert scores.tolist() == [13, 13]


class TestTraceback:
    def test_gapped_alignment(self):
        aligner = SmithWatermanAligner(unit_dna_matrix := unit_matrix(DNA_ALPHABET), FixedGapModel(-1))
        # Query has an extra symbol relative to the target region.
        alignment = aligner.align_pair("ACGTTT", "AACGTTTT")
        assert alignment.score >= 5
        assert len(alignment.aligned_query) == len(alignment.aligned_target)

    def test_alignment_score_consistent_with_operations(self, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        alignment = aligner.align_pair("WKDDGNGYISAAE", "AAWKDDGAGYISAAEPP")
        total = 0
        for a, b in zip(alignment.aligned_query, alignment.aligned_target):
            if a == "-" or b == "-":
                total += gap8.per_symbol
            else:
                total += pam30_matrix.score(a, b)
        assert total == alignment.score

    def test_local_alignment_never_negative(self, pam30_matrix, gap8):
        aligner = SmithWatermanAligner(pam30_matrix, gap8)
        assert aligner.align_pair("WWW", "DDD").score == 0


class TestAffineExtension:
    def test_affine_prefers_single_long_gap(self):
        # +1/-3 scoring makes mismatches expensive, so bridging the insertion
        # really requires a gap.  Bridging costs 8 under the fixed model (the
        # best fixed-gap alignment is then a single flank, score 7) but only
        # 6 under the affine model (bridged score 8).
        matrix = nucleotide_matrix(match=1, mismatch=-3)
        fixed = SmithWatermanAligner(matrix, FixedGapModel(-2))
        affine = SmithWatermanAligner(matrix, AffineGapModel(open_penalty=-2, extend_penalty=-1))
        flank_a, flank_b = "ACGTACG", "CATGCAC"
        query = flank_a + flank_b
        target = flank_a + "TTTT" + flank_b
        assert fixed.best_score_pair(query, target) == 7
        assert affine.best_score_pair(query, target) == 8

    def test_affine_pairwise_traceback_consistent(self):
        matrix = blosum62()
        aligner = SmithWatermanAligner(matrix, AffineGapModel(-10, -1))
        alignment = aligner.align_pair("MKVLAADTG", "MKVLAAAAADTG")
        assert alignment.score > 0
        assert len(alignment.aligned_query) == len(alignment.aligned_target)

    def test_affine_database_scan(self, pam30_matrix):
        database = SequenceDatabase.from_texts(
            ["MKVLAADTG", "WWWWWW"], alphabet=PROTEIN_ALPHABET
        )
        aligner = SmithWatermanAligner(pam30_matrix, AffineGapModel(-11, -1))
        result = aligner.search(database, "MKVLAADTG", min_score=10)
        assert result.hit_for("seq0") is not None

