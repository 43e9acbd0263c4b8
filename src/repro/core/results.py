"""Result types shared by OASIS and the baseline search engines.

All three engines (OASIS, Smith-Waterman, the BLAST-like baseline) report
their results as :class:`SearchResult` objects containing one
:class:`SearchHit` per matching database sequence -- mirroring the paper's
reporting convention of "the single strongest alignment for each sequence in
the database".  OASIS additionally records *when* each hit was emitted
relative to the start of the query (:attr:`SearchHit.emitted_at`), which is
the quantity plotted in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Alignment:
    """A concrete local alignment between the query and one target sequence.

    Coordinates are 0-based, end-exclusive, and local to the target sequence.
    ``aligned_query``/``aligned_target`` are the padded alignment strings with
    ``-`` marking gaps, as in Figure 1 of the paper.
    """

    score: int
    query_start: int
    query_end: int
    target_start: int
    target_end: int
    aligned_query: str = ""
    aligned_target: str = ""

    @property
    def query_span(self) -> int:
        return self.query_end - self.query_start

    @property
    def target_span(self) -> int:
        return self.target_end - self.target_start

    @property
    def length(self) -> int:
        """Number of alignment columns (0 when the operations were not traced)."""
        return len(self.aligned_query)

    def identity(self) -> float:
        """Fraction of alignment columns that are exact matches."""
        if not self.aligned_query:
            return 0.0
        matches = sum(
            1
            for a, b in zip(self.aligned_query, self.aligned_target)
            if a == b and a != "-"
        )
        return matches / len(self.aligned_query)

    def pretty(self, width: int = 60) -> str:
        """A two-row textual rendering of the alignment."""
        if not self.aligned_query:
            return f"<alignment score={self.score} (operations not traced)>"
        lines: List[str] = []
        for start in range(0, len(self.aligned_query), width):
            q = self.aligned_query[start : start + width]
            t = self.aligned_target[start : start + width]
            marks = "".join("|" if a == b and a != "-" else " " for a, b in zip(q, t))
            lines.extend([f"query  {q}", f"       {marks}", f"target {t}", ""])
        return "\n".join(lines).rstrip()


def hit_order_key(hit: "SearchHit") -> Tuple[int, str, int]:
    """Canonical total order over hits: decreasing score, then identifier/start.

    Every engine sorts (and every merger of partial results re-sorts) with this
    key, so a result assembled from index shards is byte-for-byte comparable to
    the result of one monolithic search: equal scores are broken by the target
    sequence identifier and, when an alignment was traced, by its start offset
    in the target.  The key deliberately avoids ``sequence_index`` -- shard
    results carry shard-local indices until they are remapped, and identifiers
    are the stable cross-representation name of a sequence.
    """
    start = hit.alignment.target_start if hit.alignment is not None else 0
    return (-hit.score, hit.sequence_identifier, start)


@dataclass
class SearchHit:
    """The strongest alignment found for one database sequence."""

    sequence_index: int
    sequence_identifier: str
    score: int
    evalue: Optional[float] = None
    alignment: Optional[Alignment] = None
    #: Seconds since the start of the query at which this hit was emitted
    #: (only meaningful for the online engine; None otherwise).
    emitted_at: Optional[float] = None

    def __repr__(self) -> str:
        evalue = f", evalue={self.evalue:.3g}" if self.evalue is not None else ""
        return (
            f"SearchHit({self.sequence_identifier!r}, score={self.score}{evalue})"
        )


@dataclass
class SearchResult:
    """The full outcome of one query against one database."""

    query: str
    engine: str
    hits: List[SearchHit] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Number of dynamic-programming columns the engine expanded -- the
    #: filtering-efficiency metric of Figure 4.
    columns_expanded: int = 0
    parameters: Dict[str, object] = field(default_factory=dict)
    #: The statistics object of the execution that produced this result
    #: (an :class:`~repro.core.oasis.OasisSearchStatistics` for OASIS; other
    #: engines may leave it unset).  Attached per result so concurrent
    #: executions never clobber each other's counters.
    statistics: Optional[object] = None

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[SearchHit]:
        return iter(self.hits)

    def __getitem__(self, index: int) -> SearchHit:
        return self.hits[index]

    @property
    def best_hit(self) -> Optional[SearchHit]:
        return self.hits[0] if self.hits else None

    @property
    def best_score(self) -> int:
        return self.hits[0].score if self.hits else 0

    def hit_for(self, sequence_identifier: str) -> Optional[SearchHit]:
        """Look up the hit for one sequence, if any."""
        for hit in self.hits:
            if hit.sequence_identifier == sequence_identifier:
                return hit
        return None

    def sequence_identifiers(self) -> List[str]:
        return [hit.sequence_identifier for hit in self.hits]

    def scores_by_sequence(self) -> Dict[str, int]:
        return {hit.sequence_identifier: hit.score for hit in self.hits}

    def sort_by_score(self) -> None:
        """Order hits canonically: decreasing score, ties by (identifier, start)."""
        self.hits.sort(key=hit_order_key)

    def is_sorted_by_score(self) -> bool:
        scores = [hit.score for hit in self.hits]
        return all(a >= b for a, b in zip(scores, scores[1:]))

