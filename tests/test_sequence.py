"""Unit tests for repro.sequences.sequence."""

import pytest

from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET, AlphabetError
from repro.sequences.sequence import Sequence, SequenceRecord


class TestSequence:
    def test_text_uppercased(self):
        assert Sequence("acgt", DNA_ALPHABET).text == "ACGT"

    def test_length(self):
        assert len(Sequence("MKVLA")) == 5

    def test_default_alphabet_is_protein(self):
        assert Sequence("MKVLA").alphabet is PROTEIN_ALPHABET

    def test_codes_match_alphabet(self):
        sequence = Sequence("ACGT", DNA_ALPHABET)
        assert list(sequence.codes) == [0, 1, 2, 3]

    def test_invalid_symbol_raises(self):
        with pytest.raises(AlphabetError):
            Sequence("ACGJ", DNA_ALPHABET)

    def test_lenient_mode_uses_wildcard(self):
        sequence = Sequence("ACGJ", DNA_ALPHABET, strict=False)
        assert sequence.text == "ACGJ"
        assert sequence.codes[-1] == DNA_ALPHABET.code("N")

    def test_equality_with_sequence_and_str(self):
        assert Sequence("ACGT", DNA_ALPHABET) == Sequence("ACGT", DNA_ALPHABET)
        assert Sequence("ACGT", DNA_ALPHABET) == "acgt"

    def test_inequality_across_alphabets(self):
        assert Sequence("ACGT", DNA_ALPHABET) != Sequence("ACGT", PROTEIN_ALPHABET)

    def test_hashable(self):
        assert len({Sequence("ACGT", DNA_ALPHABET), Sequence("ACGT", DNA_ALPHABET)}) == 1

    def test_iteration_and_indexing(self):
        sequence = Sequence("ACGT", DNA_ALPHABET)
        assert list(sequence) == ["A", "C", "G", "T"]
        assert sequence[1] == "C"

    def test_slicing_returns_sequence(self):
        sliced = Sequence("ACGTAC", DNA_ALPHABET)[1:4]
        assert isinstance(sliced, Sequence)
        assert sliced.text == "CGT"

    def test_reverse(self):
        assert Sequence("ACGT", DNA_ALPHABET).reverse().text == "TGCA"

    def test_subsequence(self):
        assert Sequence("ACGTAC", DNA_ALPHABET).subsequence(2, 5).text == "GTA"

    def test_subsequence_out_of_range(self):
        with pytest.raises(IndexError):
            Sequence("ACGT", DNA_ALPHABET).subsequence(2, 9)

    def test_count(self):
        assert Sequence("ACGTAAC", DNA_ALPHABET).count("a") == 3


class TestSequenceRecord:
    def test_basic_fields(self):
        record = SequenceRecord("SP|1", Sequence("MKVLA"), description="test", family="FAM1")
        assert record.identifier == "SP|1"
        assert record.text == "MKVLA"
        assert len(record) == 5
        assert record.family == "FAM1"

    def test_codes_passthrough(self):
        record = SequenceRecord("x", Sequence("ACGT", DNA_ALPHABET))
        assert list(record.codes) == [0, 1, 2, 3]

    def test_metadata_defaults_to_empty_dict(self):
        record = SequenceRecord("x", Sequence("MK"))
        assert record.metadata == {}

    def test_repr_contains_identifier(self):
        assert "SP|1" in repr(SequenceRecord("SP|1", Sequence("MK")))
