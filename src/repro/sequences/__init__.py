"""Sequence data model: alphabets, sequences, multi-sequence databases, FASTA I/O.

This package provides the substrate that every other part of the library is
built on.  Sequences are stored both as Python strings (for presentation) and
as NumPy integer arrays (for the dynamic-programming kernels and the suffix
tree), with the mapping between the two defined by an :class:`Alphabet`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sequences.alphabet import (
        Alphabet,
        DNA_ALPHABET,
        PROTEIN_ALPHABET,
        TERMINAL_SYMBOL,
    )
    from repro.sequences.sequence import Sequence, SequenceRecord
    from repro.sequences.database import SequenceDatabase
    from repro.sequences.fasta import read_fasta, write_fasta, parse_fasta_text
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.sequences.alphabet": (
                "Alphabet",
                "DNA_ALPHABET",
                "PROTEIN_ALPHABET",
                "TERMINAL_SYMBOL",
            ),
            "repro.sequences.sequence": ("Sequence", "SequenceRecord"),
            "repro.sequences.database": ("SequenceDatabase",),
            "repro.sequences.fasta": ("read_fasta", "write_fasta", "parse_fasta_text"),
        },
    )

__all__ = [
    "Alphabet",
    "DNA_ALPHABET",
    "PROTEIN_ALPHABET",
    "TERMINAL_SYMBOL",
    "Sequence",
    "SequenceRecord",
    "SequenceDatabase",
    "read_fasta",
    "write_fasta",
    "parse_fasta_text",
]
