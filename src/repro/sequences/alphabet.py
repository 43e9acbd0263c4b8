"""Alphabets for biological sequences.

An :class:`Alphabet` defines the set of symbols a sequence may contain and a
stable mapping between characters and small integer codes.  The integer codes
are what the dynamic-programming kernels, the substitution matrices and the
suffix tree operate on; the characters are what users see.

Two standard alphabets are provided:

* :data:`DNA_ALPHABET` -- the four nucleotides ``A C G T`` plus the ambiguity
  code ``N``.
* :data:`PROTEIN_ALPHABET` -- the twenty standard amino acids plus the
  ambiguity/selenocysteine codes ``B Z X U`` commonly found in SWISS-PROT.

Every alphabet reserves one extra code for the *terminal symbol* ``$`` used by
the generalized suffix tree to mark the end of each database sequence (see
Section 2.3 of the paper).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Sequence as TypingSequence, Tuple

#: The terminal symbol appended to each database sequence inside the
#: generalized suffix tree.  It never appears inside user-provided sequences.
TERMINAL_SYMBOL = "$"


class AlphabetError(ValueError):
    """Raised when a sequence contains symbols outside its alphabet."""


class Alphabet:
    """A finite symbol alphabet with a character <-> integer code mapping.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"protein"``.
    symbols:
        The ordered symbols of the alphabet (single characters).  Order
        defines the integer code of each symbol: ``symbols[i]`` gets code
        ``i``.  The terminal symbol must not be included; it is always
        assigned the final code automatically.
    wildcard:
        Optional symbol to which unknown characters are mapped when encoding
        with ``strict=False``.  Must be a member of ``symbols``.
    """

    def __init__(self, name: str, symbols: TypingSequence[str], wildcard: str | None = None):
        symbols = list(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be unique")
        if TERMINAL_SYMBOL in symbols:
            raise ValueError(
                f"the terminal symbol {TERMINAL_SYMBOL!r} is reserved and cannot "
                "be part of an alphabet"
            )
        for symbol in symbols:
            if len(symbol) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {symbol!r}")
        if wildcard is not None and wildcard not in symbols:
            raise ValueError(f"wildcard {wildcard!r} is not a member of the alphabet")
        if len(symbols) + 1 > 256:
            # Suffix-tree arcs and the disk image store one code per byte.
            raise ValueError(
                f"an alphabet holds at most 255 symbols plus the terminal, got {len(symbols)}"
            )

        self.name = name
        self.symbols: Tuple[str, ...] = tuple(symbols)
        self.wildcard = wildcard
        self._code_of: Dict[str, int] = {s: i for i, s in enumerate(self.symbols)}
        #: Integer code of the terminal symbol (one past the last real symbol).
        self.terminal_code = len(self.symbols)
        self._decode_table = self.symbols + (TERMINAL_SYMBOL,)
        #: Symbol -> the character whose ordinal is its code: once a text is
        #: known to be valid, ``translate`` + ``latin-1`` turn it into codes.
        self._code_chars = {
            ord(symbol): chr(code) for code, symbol in enumerate(self._decode_table)
        }
        #: Matches one character outside the alphabet (terminal included).
        self._foreign = re.compile("[^" + re.escape("".join(self._decode_table)) + "]")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of real (non-terminal) symbols."""
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._code_of

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Alphabet(name={self.name!r}, size={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.name == other.name and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash((self.name, self.symbols))

    @property
    def size_with_terminal(self) -> int:
        """Number of symbols including the terminal symbol."""
        return len(self.symbols) + 1

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def code(self, symbol: str) -> int:
        """Return the integer code for a single character.

        The terminal symbol is accepted and maps to :attr:`terminal_code`.
        """
        if symbol == TERMINAL_SYMBOL:
            return self.terminal_code
        try:
            return self._code_of[symbol]
        except KeyError:
            raise AlphabetError(
                f"symbol {symbol!r} is not part of the {self.name} alphabet"
            ) from None

    def char(self, code: int) -> str:
        """Return the character for an integer code (including the terminal)."""
        if 0 <= code < len(self._decode_table):
            return self._decode_table[code]
        raise AlphabetError(f"code {code} is out of range for the {self.name} alphabet")

    def encode(self, text: str, strict: bool = True) -> bytes:
        """Encode a character string into ``bytes``, one code per byte.

        Two C-level passes, no per-character Python loop: one scan finds the
        first character outside the alphabet, then a precomputed table
        translates the text (every code, terminal included, fits a byte).
        Non-ASCII text is foreign like any other unknown character.

        Parameters
        ----------
        text:
            The sequence text.  Lower-case characters are upper-cased first.
            The terminal symbol ``$`` encodes to :attr:`terminal_code`.
        strict:
            When ``True`` (the default), unknown characters raise
            :class:`AlphabetError` naming the first one and its position in
            the upper-cased text.  When ``False``, unknown characters are
            replaced by the alphabet's wildcard (if one is defined) or
            rejected if no wildcard exists.
        """
        upper = text.upper()
        foreign = self._foreign.search(upper)
        if foreign is not None:
            if strict or self.wildcard is None:
                raise AlphabetError(
                    f"symbol {foreign.group()!r} at position {foreign.start()} is not "
                    f"part of the {self.name} alphabet"
                )
            wildcard = self.wildcard
            upper = self._foreign.sub(lambda _: wildcard, upper)
        return upper.translate(self._code_chars).encode("latin-1")

    def decode(self, codes: Iterable[int]) -> str:
        """Decode an iterable of integer codes back into a character string."""
        return "".join(self.char(int(c)) for c in codes)

    def validate(self, text: str) -> None:
        """Raise :class:`AlphabetError` if ``text`` contains invalid symbols."""
        self.encode(text, strict=True)


#: Nucleotide alphabet: the four bases plus the ambiguity code ``N``.
DNA_ALPHABET = Alphabet("dna", "ACGTN", wildcard="N")

#: Protein alphabet: the 20 standard amino acids plus ``B Z X U`` (ambiguity /
#: selenocysteine codes found in curated databases such as SWISS-PROT).
PROTEIN_ALPHABET = Alphabet("protein", "ARNDCQEGHILKMFPSTWYVBZXU", wildcard="X")
