"""Unit tests for the shared result types."""

import pytest

from repro.core.results import Alignment, SearchHit, SearchResult, hit_order_key


def make_hit(index, score, identifier=None):
    return SearchHit(
        sequence_index=index,
        sequence_identifier=identifier or f"seq{index}",
        score=score,
    )


class TestAlignment:
    def test_spans(self):
        alignment = Alignment(10, 2, 6, 5, 9, "ACGT", "ACGT")
        assert alignment.query_span == 4
        assert alignment.target_span == 4
        assert alignment.length == 4

    def test_identity(self):
        alignment = Alignment(5, 0, 4, 0, 4, "ACGT", "ACCT")
        assert alignment.identity() == pytest.approx(0.75)

    def test_identity_ignores_gaps(self):
        alignment = Alignment(5, 0, 4, 0, 3, "AC-GT", "ACXGT")
        assert alignment.identity() == pytest.approx(4 / 5)

    def test_identity_empty(self):
        assert Alignment(5, 0, 4, 0, 4).identity() == 0.0

    def test_pretty_renders_rows(self):
        rendered = Alignment(5, 0, 4, 0, 4, "ACGT", "ACCT").pretty()
        assert "query" in rendered and "target" in rendered and "|" in rendered

    def test_pretty_without_operations(self):
        assert "score=5" in Alignment(5, 0, 4, 0, 4).pretty()


class TestSearchResult:
    def test_iteration_and_indexing(self):
        result = SearchResult("Q", "oasis", hits=[make_hit(0, 5), make_hit(1, 3)])
        assert len(result) == 2
        assert result[0].score == 5
        assert [h.score for h in result] == [5, 3]

    def test_best_hit(self):
        result = SearchResult("Q", "oasis", hits=[make_hit(0, 5), make_hit(1, 3)])
        assert result.best_hit.score == 5
        assert result.best_score == 5
        assert SearchResult("Q", "oasis").best_hit is None
        assert SearchResult("Q", "oasis").best_score == 0

    def test_hit_lookup(self):
        result = SearchResult("Q", "oasis", hits=[make_hit(0, 5)])
        assert result.hit_for("seq0").score == 5
        assert result.hit_for("missing") is None

    def test_scores_by_sequence(self):
        result = SearchResult("Q", "oasis", hits=[make_hit(0, 5), make_hit(2, 9)])
        assert result.scores_by_sequence() == {"seq0": 5, "seq2": 9}

    def test_sorting(self):
        result = SearchResult("Q", "oasis", hits=[make_hit(0, 3), make_hit(1, 9)])
        assert not result.is_sorted_by_score()
        result.sort_by_score()
        assert result.is_sorted_by_score()
        assert result[0].score == 9

    def test_sorting_breaks_ties_by_identifier(self):
        result = SearchResult(
            "Q",
            "oasis",
            hits=[
                make_hit(0, 5, identifier="zulu"),
                make_hit(1, 5, identifier="alpha"),
                make_hit(2, 9, identifier="mike"),
            ],
        )
        result.sort_by_score()
        assert [h.sequence_identifier for h in result] == ["mike", "alpha", "zulu"]

    def test_sorting_breaks_identifier_ties_by_alignment_start(self):
        early = make_hit(0, 5, identifier="same")
        early.alignment = Alignment(5, 0, 4, 2, 6)
        late = make_hit(1, 5, identifier="same")
        late.alignment = Alignment(5, 0, 4, 9, 13)
        result = SearchResult("Q", "oasis", hits=[late, early])
        result.sort_by_score()
        assert [h.alignment.target_start for h in result] == [2, 9]


class TestHitOrderKey:
    """The one canonical hit order every engine and the sharded merge sort by."""

    def test_orders_by_decreasing_score(self):
        hits = [make_hit(0, 2), make_hit(1, 8), make_hit(2, 5)]
        assert [h.score for h in sorted(hits, key=hit_order_key)] == [8, 5, 2]

    def test_equal_scores_order_by_identifier_not_index(self):
        hits = [make_hit(0, 5, identifier="zulu"), make_hit(1, 5, identifier="alpha")]
        assert [h.sequence_identifier for h in sorted(hits, key=hit_order_key)] == [
            "alpha",
            "zulu",
        ]

    def test_equal_identifiers_order_by_alignment_start(self):
        late = SearchHit(0, "seq", 7, alignment=Alignment(7, 0, 3, 40, 43))
        early = SearchHit(0, "seq", 7, alignment=Alignment(7, 0, 3, 12, 15))
        untraced = make_hit(0, 7, identifier="seq")
        assert sorted([late, early, untraced], key=hit_order_key) == [untraced, early, late]
