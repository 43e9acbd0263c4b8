"""SequenceDatabase: a multi-sequence collection with global addressing.

The generalized suffix tree (Section 2.3 of the paper) indexes *all* database
sequences at once by concatenating them, each followed by a terminal symbol.
The :class:`SequenceDatabase` owns that concatenated view and the mapping
between *global* positions (offsets into the concatenation) and *local*
positions (``(sequence index, offset within the sequence)``), which the search
algorithms use to report which sequence an alignment falls in.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Optional, Sequence as TypingSequence, Tuple

from repro.sequences.alphabet import Alphabet, PROTEIN_ALPHABET
from repro.sequences.sequence import Sequence, SequenceRecord


class SequenceDatabase:
    """An ordered collection of :class:`SequenceRecord` over one alphabet.

    Parameters
    ----------
    records:
        Initial records.  More can be added with :meth:`add` until the
        database is frozen by the first call that requires the concatenated
        view (building an index freezes the database implicitly).
    alphabet:
        Shared alphabet; every record must use it.
    name:
        Optional human-readable name used in reports, e.g.
        ``"swissprot-like"``.
    """

    def __init__(
        self,
        records: Optional[Iterable[SequenceRecord]] = None,
        alphabet: Alphabet = PROTEIN_ALPHABET,
        name: str = "database",
    ):
        self.alphabet = alphabet
        self.name = name
        self._records: List[SequenceRecord] = []
        self._by_identifier: Dict[str, int] = {}
        #: Running residue count, kept by :meth:`add`: ``total_symbols`` is
        #: read once per query (E-value conversion), so it must not re-sum.
        self._total_symbols = 0
        self._concatenated: Optional[bytes] = None
        self._starts: Optional[List[int]] = None
        if records is not None:
            for record in records:
                self.add(record)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, record: SequenceRecord) -> None:
        """Append a record to the database.

        Raises
        ------
        ValueError
            If the database has already been frozen (concatenated), if the
            record's alphabet differs, or if the identifier is a duplicate.
        """
        if self._concatenated is not None:
            raise ValueError("cannot add records to a frozen SequenceDatabase")
        if record.sequence.alphabet != self.alphabet:
            raise ValueError(
                f"record {record.identifier!r} uses alphabet "
                f"{record.sequence.alphabet.name!r}, expected {self.alphabet.name!r}"
            )
        if record.identifier in self._by_identifier:
            raise ValueError(f"duplicate identifier {record.identifier!r}")
        if len(record) == 0:
            raise ValueError(f"record {record.identifier!r} is empty")
        self._by_identifier[record.identifier] = len(self._records)
        self._records.append(record)
        self._total_symbols += len(record)

    def add_sequence(
        self,
        identifier: str,
        text: str,
        description: str = "",
        family: Optional[str] = None,
    ) -> SequenceRecord:
        """Convenience wrapper: build a record from raw text and add it."""
        record = SequenceRecord(
            identifier=identifier,
            sequence=Sequence(text, self.alphabet),
            description=description,
            family=family,
        )
        self.add(record)
        return record

    @classmethod
    def from_texts(
        cls,
        texts: TypingSequence[str],
        alphabet: Alphabet = PROTEIN_ALPHABET,
        name: str = "database",
    ) -> "SequenceDatabase":
        """Build a database from plain strings, naming them ``seq0..seqN``."""
        db = cls(alphabet=alphabet, name=name)
        for i, text in enumerate(texts):
            db.add_sequence(f"seq{i}", text)
        return db

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SequenceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> SequenceRecord:
        return self._records[index]

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._by_identifier

    def get(self, identifier: str) -> SequenceRecord:
        """Look up a record by identifier."""
        try:
            return self._records[self._by_identifier[identifier]]
        except KeyError:
            raise KeyError(f"no record with identifier {identifier!r}") from None

    def index_of(self, identifier: str) -> int:
        """Return the positional index of a record by identifier."""
        try:
            return self._by_identifier[identifier]
        except KeyError:
            raise KeyError(f"no record with identifier {identifier!r}") from None

    @property
    def records(self) -> Tuple[SequenceRecord, ...]:
        """The records in insertion order."""
        return tuple(self._records)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def total_symbols(self) -> int:
        """Total number of residues/bases across all sequences (no terminals)."""
        return self._total_symbols

    @property
    def total_symbols_with_terminals(self) -> int:
        """Length of the concatenated representation, terminals included."""
        return self.total_symbols + len(self._records)

    def length_histogram(self, bin_size: int = 100) -> Dict[int, int]:
        """Histogram of sequence lengths, keyed by bin lower bound."""
        histogram: Dict[int, int] = {}
        for record in self._records:
            bucket = (len(record) // bin_size) * bin_size
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return dict(sorted(histogram.items()))

    def residue_frequencies(self) -> Dict[str, float]:
        """Background frequency of each alphabet symbol across the database."""
        codes = b"".join(record.codes for record in self._records)
        counts = [codes.count(code) for code in range(len(self.alphabet))]
        total = sum(counts)
        if total == 0:
            return {s: 0.0 for s in self.alphabet.symbols}
        return {symbol: count / total for symbol, count in zip(self.alphabet.symbols, counts)}

    # ------------------------------------------------------------------ #
    # Concatenated (suffix-tree) view
    # ------------------------------------------------------------------ #
    def freeze(self) -> None:
        """Build the concatenated view; no further records can be added."""
        if self._concatenated is not None:
            return
        if not self._records:
            raise ValueError("cannot freeze an empty SequenceDatabase")
        starts: List[int] = []
        position = 0
        for record in self._records:
            starts.append(position)
            position += len(record) + 1
        terminal = bytes((self.alphabet.terminal_code,))
        self._concatenated = terminal.join(record.codes for record in self._records) + terminal
        self._starts = starts

    @property
    def frozen(self) -> bool:
        """Whether the concatenated view has been built."""
        return self._concatenated is not None

    @property
    def concatenated_codes(self) -> bytes:
        """The concatenation ``seq0 $ seq1 $ ... seqN $``, one code per byte."""
        self.freeze()
        assert self._concatenated is not None
        return self._concatenated

    @property
    def concatenated_text(self) -> str:
        """The concatenation as characters (terminals shown as ``$``)."""
        self.freeze()
        return self.alphabet.decode(self.concatenated_codes)

    @property
    def sequence_starts(self) -> List[int]:
        """Global start offset of each sequence in the concatenation."""
        self.freeze()
        assert self._starts is not None
        return list(self._starts)

    def locate(self, global_position: int) -> Tuple[int, int]:
        """Map a global concatenation offset to ``(sequence index, local offset)``.

        The position may point at a sequence's terminal symbol, in which case
        the local offset equals the sequence length.
        """
        self.freeze()
        assert self._starts is not None and self._concatenated is not None
        if not 0 <= global_position < len(self._concatenated):
            raise IndexError(
                f"global position {global_position} out of range "
                f"[0, {len(self._concatenated)})"
            )
        sequence_index = bisect.bisect_right(self._starts, global_position) - 1
        local_offset = global_position - self._starts[sequence_index]
        return sequence_index, local_offset

    def global_position(self, sequence_index: int, local_offset: int) -> int:
        """Map ``(sequence index, local offset)`` to a global offset."""
        self.freeze()
        assert self._starts is not None
        record = self._records[sequence_index]
        if not 0 <= local_offset <= len(record):
            raise IndexError(
                f"local offset {local_offset} out of range for sequence "
                f"{record.identifier!r} of length {len(record)}"
            )
        return self._starts[sequence_index] + local_offset

    def substring(self, global_start: int, length: int) -> str:
        """Return ``length`` characters of the concatenation from a global offset."""
        codes = self.concatenated_codes[global_start : global_start + length]
        return self.alphabet.decode(codes)

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase(name={self.name!r}, sequences={len(self)}, "
            f"symbols={self.total_symbols})"
        )
