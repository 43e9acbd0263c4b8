"""SearchRequest: one query's options as one checked, picklable value.

Everything a caller can say about a search is a field here, ``__post_init__``
is the only place the values are checked, and the same object travels from
the CLI through the engines into a worker process.  The run-time wiring of
one execution (its ``tracer``, and ``abort()`` on the execution itself) is
not part of it: those are live objects of the process that runs the search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.evalue import SelectivityConverter
    from repro.scoring.karlin_altschul import KarlinAltschulParameters


@dataclass(frozen=True)
class SearchRequest:
    """What to search for and how much of the answer is wanted.

    Exactly one of ``min_score`` (a raw alignment score) and ``evalue`` (the
    paper's selectivity; Equation 3 turns it into a score) sets the
    threshold.  ``max_results`` stops the online stream after that many
    hits, ``compute_alignments`` attaches the alignment operations to every
    hit, and ``time_budget`` is a wall-clock budget in seconds after which
    the search stops with the (still correct) hits found so far.

    ``statistics_model`` / ``database_size`` are Equation 2's inputs for the
    hits' E-values.  A caller leaves them unset; an engine fills them in
    (:meth:`resolved`) against the *global* database, so every shard, here
    or in a worker, prunes against one threshold and gives a hit the E-value
    the monolithic engine would have computed.
    """

    query: str
    min_score: Optional[int] = None
    evalue: Optional[float] = None
    max_results: Optional[int] = None
    compute_alignments: bool = False
    time_budget: Optional[float] = None
    statistics_model: Optional["KarlinAltschulParameters"] = None
    database_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.query:
            raise ValueError("the query must not be empty")
        if (self.min_score is None) == (self.evalue is None):
            raise ValueError("specify exactly one of min_score or evalue")
        if self.min_score is not None and self.min_score < 1:
            raise ValueError("min_score must be at least 1")
        if self.evalue is not None and not self.evalue > 0:
            raise ValueError("evalue must be positive")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be at least 1")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive")

    @classmethod
    def template(cls, **options) -> "SearchRequest":
        """A checked option set for a batch: ``replace(template, query=q)`` per query."""
        return cls(query="?", **options)

    def resolved(self, converter: "SelectivityConverter") -> "SearchRequest":
        """The request a shard runs: a score threshold and Equation 2's inputs.

        A request that already carries a ``database_size`` was resolved by a
        coordinator against the whole database and is returned as it is.
        """
        if self.database_size is not None:
            return self
        min_score = self.min_score
        if min_score is None:
            min_score = converter.min_score_for_evalue(self.evalue, len(self.query))
        return replace(
            self,
            min_score=min_score,
            evalue=None,
            statistics_model=converter.parameters,
            database_size=converter.database_size,
        )
