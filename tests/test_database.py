"""Unit tests for repro.sequences.database."""

import pytest

from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence, SequenceRecord


class TestConstruction:
    def test_from_texts_assigns_identifiers(self):
        db = SequenceDatabase.from_texts(["ACG", "TTT"], alphabet=DNA_ALPHABET)
        assert [r.identifier for r in db] == ["seq0", "seq1"]

    def test_add_sequence_convenience(self):
        db = SequenceDatabase(alphabet=DNA_ALPHABET)
        record = db.add_sequence("x", "ACG", family="F")
        assert db.get("x") is record

    def test_duplicate_identifier_rejected(self):
        db = SequenceDatabase.from_texts(["ACG"], alphabet=DNA_ALPHABET)
        with pytest.raises(ValueError):
            db.add(SequenceRecord("seq0", Sequence("TTT", DNA_ALPHABET)))

    def test_empty_sequence_rejected(self):
        db = SequenceDatabase(alphabet=DNA_ALPHABET)
        with pytest.raises(ValueError):
            db.add_sequence("x", "")

    def test_alphabet_mismatch_rejected(self):
        db = SequenceDatabase(alphabet=DNA_ALPHABET)
        with pytest.raises(ValueError):
            db.add(SequenceRecord("x", Sequence("MKV", PROTEIN_ALPHABET)))

    def test_add_after_freeze_rejected(self):
        db = SequenceDatabase.from_texts(["ACG"], alphabet=DNA_ALPHABET)
        db.freeze()
        with pytest.raises(ValueError):
            db.add_sequence("y", "TTT")

    def test_freeze_empty_rejected(self):
        with pytest.raises(ValueError):
            SequenceDatabase(alphabet=DNA_ALPHABET).freeze()

    def test_lookup_helpers(self):
        db = SequenceDatabase.from_texts(["ACG", "TTT"], alphabet=DNA_ALPHABET)
        assert "seq1" in db
        assert db.index_of("seq1") == 1
        with pytest.raises(KeyError):
            db.get("missing")
        with pytest.raises(KeyError):
            db.index_of("missing")


class TestStatistics:
    def test_total_symbols(self):
        db = SequenceDatabase.from_texts(["ACG", "TTTT"], alphabet=DNA_ALPHABET)
        assert db.total_symbols == 7
        assert db.total_symbols_with_terminals == 9

    def test_total_symbols_follows_adds_made_after_a_read(self):
        """The count is kept, not re-summed per read -- so a read must not
        pin it: both ``add`` routes move it, and the E-value threshold that
        is computed from it moves with it."""
        from repro.core.engine import OasisEngine
        from repro.core.evalue import SelectivityConverter
        from repro.scoring.data import nucleotide_matrix
        from repro.scoring.gaps import FixedGapModel

        matrix = nucleotide_matrix()
        db = SequenceDatabase.from_texts(["ACGTACGT", "TTGACCA"], alphabet=DNA_ALPHABET)
        converter = SelectivityConverter(matrix, db)
        assert (db.total_symbols, db.total_symbols_with_terminals) == (15, 17)
        before = converter.min_score_for_evalue(1e-3, 12)

        db.add_sequence("long", "ACGT" * 5000)
        assert (db.total_symbols, db.total_symbols_with_terminals) == (20015, 20018)
        db.add(SequenceRecord("extra", Sequence("GGCA", DNA_ALPHABET)))
        assert (db.total_symbols, db.total_symbols_with_terminals) == (20019, 20023)
        assert db.total_symbols == sum(len(record) for record in db)
        assert converter.database_size == 20019
        assert converter.min_score_for_evalue(1e-3, 12) > before

        engine = OasisEngine.build(db, matrix, FixedGapModel(-2))
        assert engine.min_score_for("ACGTACGTACGT", 1e-3) == engine.converter.parameters.min_score(
            1e-3, 12, 20019
        )

    def test_length_histogram(self):
        db = SequenceDatabase.from_texts(["A" * 5, "A" * 150], alphabet=DNA_ALPHABET)
        histogram = db.length_histogram(bin_size=100)
        assert histogram == {0: 1, 100: 1}

    def test_residue_frequencies_sum_to_one(self):
        db = SequenceDatabase.from_texts(["ACGT", "AAAA"], alphabet=DNA_ALPHABET)
        frequencies = db.residue_frequencies()
        assert sum(frequencies.values()) == pytest.approx(1.0)
        assert frequencies["A"] == pytest.approx(5 / 8)


class TestConcatenatedView:
    def test_concatenation_layout(self):
        db = SequenceDatabase.from_texts(["ACG", "TT"], alphabet=DNA_ALPHABET)
        assert db.concatenated_text == "ACG$TT$"
        assert db.sequence_starts == [0, 4]

    def test_frozen_flag(self):
        db = SequenceDatabase.from_texts(["ACG"], alphabet=DNA_ALPHABET)
        assert not db.frozen
        db.freeze()
        assert db.frozen

    def test_locate_maps_positions(self):
        db = SequenceDatabase.from_texts(["ACG", "TT"], alphabet=DNA_ALPHABET)
        assert db.locate(0) == (0, 0)
        assert db.locate(2) == (0, 2)
        assert db.locate(3) == (0, 3)  # terminal of seq0
        assert db.locate(4) == (1, 0)
        assert db.locate(6) == (1, 2)  # terminal of seq1

    def test_locate_out_of_range(self):
        db = SequenceDatabase.from_texts(["ACG"], alphabet=DNA_ALPHABET)
        with pytest.raises(IndexError):
            db.locate(10)

    def test_global_position_roundtrip(self):
        db = SequenceDatabase.from_texts(["ACG", "TTAA"], alphabet=DNA_ALPHABET)
        for global_position in range(db.total_symbols_with_terminals):
            sequence_index, offset = db.locate(global_position)
            assert db.global_position(sequence_index, offset) == global_position

    def test_global_position_out_of_range(self):
        db = SequenceDatabase.from_texts(["ACG"], alphabet=DNA_ALPHABET)
        with pytest.raises(IndexError):
            db.global_position(0, 9)

    def test_substring(self):
        db = SequenceDatabase.from_texts(["ACGT"], alphabet=DNA_ALPHABET)
        assert db.substring(1, 3) == "CGT"
