"""Tests for the OASIS search driver: exactness, ordering, online behaviour."""

import random

import pytest

from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.oasis import OasisSearch
from repro.scoring.data import pam30, unit_matrix
from repro.scoring.gaps import AffineGapModel, FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree

from repro.testing import PAPER_QUERY, PAPER_TARGET, random_protein


class TestPaperExample:
    """The worked example of Section 3.3: TACG vs AGTACGCCTAG, minScore 1."""

    @pytest.fixture
    def search(self, paper_tree, unit_dna_matrix):
        return OasisSearch(paper_tree, unit_dna_matrix, FixedGapModel(-1))

    def test_best_alignment_score_is_four(self, search):
        result = search.search(PAPER_QUERY, min_score=1)
        assert len(result) == 1
        assert result.best_score == 4

    def test_expands_fewer_columns_than_smith_waterman(self, search):
        result = search.search(PAPER_QUERY, min_score=1)
        assert 0 < result.columns_expanded < len(PAPER_TARGET)

    def test_statistics_populated(self, search):
        stats = search.search(PAPER_QUERY, min_score=1).statistics
        assert stats.nodes_expanded > 0
        assert stats.nodes_accepted >= 1
        assert stats.columns_expanded > 0
        assert stats.elapsed_seconds >= 0

    def test_threshold_above_maximum_returns_nothing(self, search):
        result = search.search(PAPER_QUERY, min_score=5)
        assert len(result) == 0

    def test_impossible_threshold_short_circuits(self, search):
        result = search.search(PAPER_QUERY, min_score=100)
        assert len(result) == 0
        assert result.statistics.nodes_expanded == 0

    def test_empty_query_rejected(self, search):
        with pytest.raises(ValueError):
            search.search("", min_score=1)

    def test_affine_gaps_not_supported(self, paper_tree, unit_dna_matrix):
        with pytest.raises(NotImplementedError):
            OasisSearch(paper_tree, unit_dna_matrix, AffineGapModel(-5, -1))

    def test_alignment_tracing(self, search):
        result = search.search(PAPER_QUERY, min_score=1, compute_alignments=True)
        alignment = result[0].alignment
        assert alignment is not None
        assert alignment.score == 4
        assert alignment.aligned_query == "TACG"
        assert alignment.aligned_target == "TACG"


class TestExactness:
    """OASIS must report exactly the per-sequence best scores of Smith-Waterman."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_smith_waterman_on_random_proteins(self, seed, pam30_matrix, gap8):
        rng = random.Random(seed)
        texts = [random_protein(rng, rng.randint(10, 90)) for _ in range(rng.randint(3, 7))]
        # Plant a homologous region so strong alignments exist.
        planted = random_protein(rng, 12)
        texts[0] = texts[0][:5] + planted + texts[0][5:]
        texts[-1] = planted + texts[-1]
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        engine = OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        smith_waterman = SmithWatermanAligner(pam30_matrix, gap8)

        for min_score in (1, 12, 30, 55):
            oasis_result = engine.search(planted, min_score=min_score)
            reference = smith_waterman.search(database, planted, min_score=min_score)
            assert oasis_result.scores_by_sequence() == reference.scores_by_sequence()

    def test_exactness_with_pruning_rules_disabled(self, pam30_matrix, gap8):
        rng = random.Random(99)
        texts = [random_protein(rng, 40) for _ in range(4)]
        query = texts[1][10:22]
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        reference = OasisSearch(tree, pam30_matrix, gap8).search(query, min_score=10)
        for flags in (
            {"prune_dominated": False},
            {"prune_threshold": False},
            {"prune_non_positive": True, "prune_dominated": False, "prune_threshold": False},
        ):
            relaxed = OasisSearch(tree, pam30_matrix, gap8, **flags).search(query, min_score=10)
            assert relaxed.scores_by_sequence() == reference.scores_by_sequence()

    def test_exactness_on_dna_with_unit_matrix(self, small_dna_database, unit_dna_matrix):
        engine = OasisEngine.build(
            small_dna_database, matrix=unit_dna_matrix, gap_model=FixedGapModel(-1)
        )
        smith_waterman = SmithWatermanAligner(unit_dna_matrix, FixedGapModel(-1))
        query = small_dna_database[0].text[3:11]
        for min_score in (1, 4, 7):
            oasis_result = engine.search(query, min_score=min_score)
            reference = smith_waterman.search(small_dna_database, query, min_score=min_score)
            assert oasis_result.scores_by_sequence() == reference.scores_by_sequence()


class TestOnlineBehaviour:
    @pytest.fixture
    def engine(self, small_protein_database, pam30_matrix, gap8):
        return OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)

    def test_results_in_decreasing_score_order(self, engine):
        result = engine.search("WKDDGNGYISAAE", min_score=10)
        assert len(result) >= 3
        assert result.is_sorted_by_score()

    def test_streaming_matches_batch(self, engine):
        streamed = list(engine.search_online("WKDDGNGYISAAE", min_score=10))
        batch = engine.search("WKDDGNGYISAAE", min_score=10)
        assert [h.sequence_identifier for h in streamed] == batch.sequence_identifiers()
        assert [h.score for h in streamed] == [h.score for h in batch]

    def test_emitted_at_is_monotonic(self, engine):
        times = [h.emitted_at for h in engine.search_online("WKDDGNGYISAAE", min_score=10)]
        assert all(t is not None for t in times)
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_max_results_stops_early(self, engine):
        full = engine.search("WKDDGNGYISAAE", min_score=10)
        top2 = engine.search("WKDDGNGYISAAE", min_score=10, max_results=2)
        assert len(top2) == 2
        assert [h.score for h in top2] == [h.score for h in full][:2]

    def test_set_deadline_overrides_time_budget(self, engine):
        import time as time_module

        execution = engine.execute("WKDDGNGYISAAE", min_score=10, time_budget=60.0)
        execution.set_deadline(time_module.perf_counter() - 1.0)
        result = execution.result()
        assert execution.timed_out
        assert result.parameters.get("timed_out") is True
        assert len(result) == 0

    def test_abandoning_the_generator_is_safe(self, engine):
        stream = engine.search_online("WKDDGNGYISAAE", min_score=10)
        first = next(stream)
        stream.close()
        assert first.score >= 10

    def test_each_sequence_reported_at_most_once(self, engine):
        result = engine.search("WKDDGNGYISAAE", min_score=1)
        identifiers = result.sequence_identifiers()
        assert len(identifiers) == len(set(identifiers))

    def test_online_log_recorded(self, engine):
        result = engine.search("WKDDGNGYISAAE", min_score=10)
        log = result.parameters["online_log"]
        assert len(log) == len(result)
        assert log.first_result_seconds <= log.last_result_seconds


class TestMoreColumnsThanResiduesWarning:
    """A query that expands several times more DP columns than the database
    has residues did more work than a Smith-Waterman scan: it is logged, not
    refused."""

    LONG_QUERY = "GCGGTGTTAAGTGTCGAGCTACATCACTTCTCATGTAGCCAGAAGGCTGCAACTCATCGA"

    @staticmethod
    def database():
        rng = random.Random(1)
        texts = ["".join(rng.choice("ACGT") for _ in range(30)) for _ in range(4)]
        return SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)

    @staticmethod
    def warnings(caplog):
        return [
            r for r in caplog.records if r.name == "repro.core.oasis" and r.levelname == "WARNING"
        ]

    def test_fires_once_when_the_columns_pass_the_database_size(self, caplog):
        from repro.scoring.data import nucleotide_matrix

        database = self.database()
        engine = OasisEngine.build(database, nucleotide_matrix(1, -1), FixedGapModel(-1))
        with caplog.at_level("WARNING", logger="repro"):
            result = engine.search(self.LONG_QUERY, min_score=6)
        assert result.columns_expanded > 4 * database.total_symbols
        assert len(result) > 0  # a warning, not a refusal
        (record,) = self.warnings(caplog)
        assert f"expanded {result.columns_expanded} DP columns" in record.getMessage()
        assert f"over 4 times the {database.total_symbols} a Smith-Waterman" in record.getMessage()

    def test_silent_when_the_pruning_pays(self, caplog):
        from repro.scoring.data import nucleotide_matrix

        database = self.database()
        engine = OasisEngine.build(database, nucleotide_matrix(1, -1), FixedGapModel(-4))
        with caplog.at_level("WARNING", logger="repro"):
            result = engine.search("ACGTACGTACGTACGTACGTACGT", min_score=4)
        assert result.columns_expanded <= 4 * database.total_symbols
        assert not self.warnings(caplog)

    def test_the_benchmark_queries_never_trigger_it(self, caplog):
        import os
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        if root not in sys.path:
            sys.path.insert(0, root)
        from bench_e2e import data
        from repro.scoring.data import nucleotide_matrix
        from repro.sequences.fasta import parse_fasta_text
        from repro.sharding import ShardedEngine

        protein = data.protein_inputs(7)
        dna = data.dna_inputs(7)
        protein_db = parse_fasta_text(protein.fasta, alphabet=PROTEIN_ALPHABET)
        dna_db = parse_fasta_text(dna.fasta, alphabet=DNA_ALPHABET)
        evalue = 20_000.0 * protein.residues / 40_000_000
        protein_gap, dna_gap = FixedGapModel(-8), FixedGapModel(-4)
        sharded = ShardedEngine.build(protein_db, pam30(), protein_gap, shard_count=4)
        cases = [
            (OasisEngine.build(protein_db, pam30(), protein_gap), protein.queries, None),
            (sharded, protein.queries, None),
            (OasisEngine.build(dna_db, nucleotide_matrix(1, -3), dna_gap), dna.queries, 0.45),
        ]
        with caplog.at_level("WARNING", logger="repro"):
            for engine, queries, dna_fraction in cases:
                for query in queries:
                    if dna_fraction is None:
                        engine.search(query, evalue=evalue)
                    else:
                        engine.search(query, min_score=max(16, int(dna_fraction * len(query))))
        assert not self.warnings(caplog)
