"""Unit tests for repro.sequences.alphabet."""

import numpy as np
import pytest

from repro.sequences.alphabet import (
    Alphabet,
    AlphabetError,
    DNA_ALPHABET,
    PROTEIN_ALPHABET,
    TERMINAL_SYMBOL,
)


class TestAlphabetConstruction:
    def test_dna_alphabet_size(self):
        assert len(DNA_ALPHABET) == 5  # ACGTN

    def test_protein_alphabet_size(self):
        assert len(PROTEIN_ALPHABET) == 24  # 20 + BZXU

    def test_size_with_terminal(self):
        assert DNA_ALPHABET.size_with_terminal == len(DNA_ALPHABET) + 1

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("bad", "AAC")

    def test_multi_character_symbols_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("bad", ["AB", "C"])

    def test_terminal_symbol_reserved(self):
        with pytest.raises(ValueError):
            Alphabet("bad", "AC$")

    def test_wildcard_must_be_member(self):
        with pytest.raises(ValueError):
            Alphabet("bad", "ACGT", wildcard="N")

    def test_codes_must_fit_one_byte(self):
        # Arcs and the disk image carry one code per byte, terminal included.
        symbols = [chr(0x100 + index) for index in range(256)]
        largest = Alphabet("wide", symbols[:255])
        assert largest.terminal_code == 255
        with pytest.raises(ValueError, match="255 symbols"):
            Alphabet("too-wide", symbols)

    def test_equality_and_hash(self):
        a = Alphabet("x", "ACGT")
        b = Alphabet("x", "ACGT")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_symbols(self):
        assert Alphabet("x", "ACGT") != Alphabet("x", "ACGU")


class TestEncodingDecoding:
    def test_codes_are_positional(self):
        for index, symbol in enumerate(DNA_ALPHABET.symbols):
            assert DNA_ALPHABET.code(symbol) == index

    def test_terminal_code_is_last(self):
        assert DNA_ALPHABET.code(TERMINAL_SYMBOL) == len(DNA_ALPHABET)

    def test_char_roundtrip(self):
        for symbol in PROTEIN_ALPHABET.symbols:
            assert PROTEIN_ALPHABET.char(PROTEIN_ALPHABET.code(symbol)) == symbol

    def test_encode_returns_int16(self):
        codes = DNA_ALPHABET.encode("ACGT")
        assert codes.dtype == np.int16
        assert codes.tolist() == [0, 1, 2, 3]

    def test_encode_lowercase(self):
        assert DNA_ALPHABET.encode("acgt").tolist() == DNA_ALPHABET.encode("ACGT").tolist()

    def test_encode_unknown_strict_raises(self):
        with pytest.raises(AlphabetError):
            DNA_ALPHABET.encode("ACGJ")

    def test_encode_unknown_lenient_maps_to_wildcard(self):
        codes = DNA_ALPHABET.encode("ACGJ", strict=False)
        assert codes[-1] == DNA_ALPHABET.code("N")

    def test_encode_terminal_symbol(self):
        codes = DNA_ALPHABET.encode("AC$")
        assert codes[-1] == DNA_ALPHABET.terminal_code

    def test_decode_roundtrip(self):
        text = "MKVLAADTG"
        assert PROTEIN_ALPHABET.decode(PROTEIN_ALPHABET.encode(text)) == text

    def test_decode_out_of_range(self):
        with pytest.raises(AlphabetError):
            DNA_ALPHABET.char(100)

    def test_validate_accepts_good_text(self):
        PROTEIN_ALPHABET.validate("ACDEFGHIKLMNPQRSTVWY")

    def test_validate_rejects_bad_text(self):
        with pytest.raises(AlphabetError):
            PROTEIN_ALPHABET.validate("ACDEO")

    def test_contains(self):
        assert "A" in DNA_ALPHABET
        assert "J" not in DNA_ALPHABET

    def test_empty_string_encodes_to_empty_array(self):
        assert len(DNA_ALPHABET.encode("")) == 0
