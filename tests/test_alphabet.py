"""Unit tests for repro.sequences.alphabet."""

import pytest
from hypothesis import given, strategies as st

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

    def test_encode_returns_bytes(self):
        codes = DNA_ALPHABET.encode("ACGT")
        assert isinstance(codes, bytes)
        assert list(codes) == [0, 1, 2, 3]

    def test_encode_lowercase(self):
        assert DNA_ALPHABET.encode("acgt") == DNA_ALPHABET.encode("ACGT")

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


def per_character_encode(alphabet, text, strict=True):
    """The encoder as it was, one character at a time: the oracle."""
    codes = []
    for position, character in enumerate(text.upper()):
        if character in alphabet:
            codes.append(alphabet.code(character))
        elif character == TERMINAL_SYMBOL:
            codes.append(alphabet.terminal_code)
        elif not strict and alphabet.wildcard is not None:
            codes.append(alphabet.code(alphabet.wildcard))
        else:
            raise AlphabetError(
                f"symbol {character!r} at position {position} is not part of the "
                f"{alphabet.name} alphabet"
            )
    return bytes(codes)


NO_WILDCARD = Alphabet("no-wildcard", "ACGT")
#: Symbols a regular expression treats specially, and non-ASCII ones.
AWKWARD = Alphabet("awkward", ["]", "^", "-", "\\", ".", "é", "Ж"], wildcard="-")


def outcome(encode, *args, **kwargs):
    try:
        return encode(*args, **kwargs)
    except AlphabetError as error:
        return ("AlphabetError", str(error))


class TestEncodeAgainstPerCharacterOracle:
    @given(
        alphabet=st.sampled_from([DNA_ALPHABET, PROTEIN_ALPHABET, NO_WILDCARD, AWKWARD]),
        text=st.text(
            alphabet=st.one_of(
                st.sampled_from("ACGTNacgtnMKVLXxJjOo$éÉЖжß "),
                st.sampled_from("]^-\\.[*"),
                st.characters(),
            ),
            max_size=40,
        ),
        strict=st.booleans(),
    )
    def test_same_codes_or_same_error(self, alphabet, text, strict):
        assert outcome(alphabet.encode, text, strict=strict) == outcome(
            per_character_encode, alphabet, text, strict=strict
        )

    def test_error_names_the_first_foreign_symbol_and_its_position(self):
        with pytest.raises(AlphabetError, match=r"symbol 'J' at position 3 "):
            DNA_ALPHABET.encode("acgjoz")

    def test_lowercase_terminal_and_wildcard(self):
        assert DNA_ALPHABET.encode("ac$gt") == bytes([0, 1, 5, 2, 3])
        assert DNA_ALPHABET.encode("aJc$", strict=False) == bytes([0, 4, 1, 5])
        with pytest.raises(AlphabetError):
            NO_WILDCARD.encode("AJC", strict=False)

    @pytest.mark.parametrize("text", ["MKVÜL", "MKV\u00a0L", "MKV\U0001f9ecL", "MKV\udc80L"])
    def test_non_ascii_text_is_an_alphabet_error(self, text):
        with pytest.raises(AlphabetError, match="at position 3 "):
            PROTEIN_ALPHABET.encode(text)

    def test_non_ascii_text_maps_to_the_wildcard_when_lenient(self):
        assert PROTEIN_ALPHABET.encode("MÜ", strict=False) == PROTEIN_ALPHABET.encode("MX")
