"""Sequence and SequenceRecord: the basic units stored in a database.

A :class:`Sequence` couples a character string with its :class:`Alphabet` and
caches the encoded integer representation.  A :class:`SequenceRecord` adds the
metadata that a curated database such as SWISS-PROT carries: an identifier,
and a free-text description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.sequences.alphabet import Alphabet, PROTEIN_ALPHABET


class Sequence:
    """An immutable biological sequence over a fixed alphabet.

    Parameters
    ----------
    text:
        The sequence characters (e.g. ``"MKVLA"``).  Upper-cased on input.
    alphabet:
        The :class:`Alphabet` the sequence is drawn from.  Defaults to the
        protein alphabet.
    strict:
        Passed through to :meth:`Alphabet.encode`; when ``False`` unknown
        symbols are replaced by the alphabet wildcard.
    """

    __slots__ = ("text", "alphabet", "_codes")

    def __init__(self, text: str, alphabet: Alphabet = PROTEIN_ALPHABET, strict: bool = True):
        self.text = text.upper()
        self.alphabet = alphabet
        self._codes = alphabet.encode(self.text, strict=strict)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[str]:
        return iter(self.text)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sequence(self.text[index], self.alphabet)
        return self.text[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return self.text == other.text and self.alphabet == other.alphabet
        if isinstance(other, str):
            return self.text == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.text, self.alphabet))

    def __repr__(self) -> str:
        shown = self.text if len(self.text) <= 24 else self.text[:21] + "..."
        return f"Sequence({shown!r}, alphabet={self.alphabet.name!r})"

    def __str__(self) -> str:
        return self.text

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def codes(self) -> bytes:
        """The encoded representation: ``bytes``, one code per byte."""
        return self._codes

    def reverse(self) -> "Sequence":
        """Return the reversed sequence."""
        return Sequence(self.text[::-1], self.alphabet)

    def subsequence(self, start: int, end: int) -> "Sequence":
        """Return the subsequence ``[start, end)`` (0-based, end exclusive)."""
        if not 0 <= start <= end <= len(self):
            raise IndexError(
                f"subsequence [{start}, {end}) out of range for length {len(self)}"
            )
        return Sequence(self.text[start:end], self.alphabet)

    def count(self, symbol: str) -> int:
        """Count occurrences of a single symbol."""
        return self.text.count(symbol.upper())


@dataclass
class SequenceRecord:
    """A named sequence entry, as stored in a sequence database.

    Attributes
    ----------
    identifier:
        A unique accession/identifier, e.g. ``"SP|P12345"``.
    sequence:
        The :class:`Sequence` payload.
    description:
        Optional free-text annotation line.
    family:
        Optional family/class label.  The synthetic data generators use this
        to record which protein family a sequence was derived from, which the
        test-suite exploits to check that homology searches find relatives.
    """

    identifier: str
    sequence: Sequence
    description: str = ""
    family: Optional[str] = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def text(self) -> str:
        """The raw sequence characters."""
        return self.sequence.text

    @property
    def codes(self) -> bytes:
        """The encoded representation of the sequence (one code per byte)."""
        return self.sequence.codes

    def __repr__(self) -> str:
        return (
            f"SequenceRecord(identifier={self.identifier!r}, "
            f"length={len(self)}, family={self.family!r})"
        )
