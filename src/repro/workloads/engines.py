"""Uniform adapters over the three search engines.

Every engine exposes the same call -- "run this query, give me a
:class:`~repro.core.results.SearchResult`" -- so the workload runner and the
experiment drivers never need to know which engine they are timing.  The
adapters also centralise the selectivity convention: experiments are specified
with an E-value (as in the paper), and each adapter converts it consistently
through the shared :class:`~repro.core.evalue.SelectivityConverter`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sharding.engine import ShardedEngine

from repro.baselines.blast import BlastLikeSearch, BlastParameters
from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.request import SearchRequest
from repro.core.results import SearchResult
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase


class EngineAdapter(ABC):
    """The uniform "run one query" interface used by the workload runner."""

    #: Short name used in result tables (e.g. ``"OASIS"``).
    name: str = "engine"

    @abstractmethod
    def run(self, query: str) -> SearchResult:
        """Execute one query and return its result."""

    def run_with_budget(
        self,
        query: str,
        time_budget: Optional[float] = None,
        cancel_event: Optional[threading.Event] = None,
    ) -> SearchResult:
        """Execute one query under an optional cooperative time budget.

        The default implementation ignores the budget and cancellation event
        (baseline engines run each query to completion and can only stop
        *between* queries); adapters over cooperative engines override this
        to stop mid-query.  The batch executor always calls this entry point.
        """
        return self.run(query)

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name


class OasisAdapter(EngineAdapter):
    """OASIS with a fixed E-value cutoff (converted per query via Equation 3).

    ``engine`` may be a monolithic :class:`~repro.core.engine.OasisEngine` or
    a :class:`~repro.sharding.ShardedEngine` -- both expose the same
    ``execute`` surface, and their results are hit-for-hit identical, so the
    workload runner can time either behind one adapter.
    """

    def __init__(
        self, engine: "Union[OasisEngine, ShardedEngine]", name: str = "OASIS", **options
    ):
        # ``options`` are SearchRequest fields; the paper's default selectivity
        # applies unless the caller named a threshold of either kind.
        if "min_score" not in options:
            options.setdefault("evalue", 20_000.0)
        self.engine = engine
        self.template = SearchRequest.template(**options)
        self.name = name

    def run(self, query: str) -> SearchResult:
        return self.run_with_budget(query)

    def run_with_budget(
        self,
        query: str,
        time_budget: Optional[float] = None,
        cancel_event: Optional[threading.Event] = None,
    ) -> SearchResult:
        # OASIS is the online engine: each query runs as its own reentrant
        # execution, so budgets and batch-wide cancellation stop it mid-query.
        request = replace(self.template, query=query, time_budget=time_budget)
        return self.engine.execute(request, cancel_event=cancel_event).result()

    def describe(self) -> str:
        options = self.template
        threshold = (
            f"E={options.evalue}" if options.evalue is not None else f"minScore={options.min_score}"
        )
        return f"{self.name} ({threshold}, index={type(self.engine.cursor).__name__})"


class SmithWatermanAdapter(EngineAdapter):
    """Full-database Smith-Waterman with the same selectivity convention."""

    def __init__(
        self,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        evalue: Optional[float] = 20_000.0,
        min_score: Optional[int] = None,
        converter: Optional[SelectivityConverter] = None,
        name: str = "S-W",
    ):
        if (evalue is None) == (min_score is None):
            raise ValueError("specify exactly one of evalue or min_score")
        self.database = database
        self.aligner = SmithWatermanAligner(matrix, gap_model)
        self.converter = converter or SelectivityConverter(matrix, database)
        self.evalue = evalue
        self.min_score = min_score
        self.name = name

    def run(self, query: str) -> SearchResult:
        if self.min_score is not None:
            threshold = self.min_score
        else:
            assert self.evalue is not None
            threshold = self.converter.min_score_for_evalue(self.evalue, len(query))
        return self.aligner.search(
            self.database,
            query,
            min_score=threshold,
            statistics=self.converter.parameters,
        )

    def describe(self) -> str:
        threshold = f"E={self.evalue}" if self.evalue is not None else f"minScore={self.min_score}"
        return f"{self.name} ({threshold})"


class BlastAdapter(EngineAdapter):
    """The BLAST-like heuristic baseline."""

    def __init__(
        self,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        evalue: float = 20_000.0,
        parameters: BlastParameters = BlastParameters(),
        converter: Optional[SelectivityConverter] = None,
        name: str = "BLAST",
    ):
        converter = converter or SelectivityConverter(matrix, database)
        self.search_engine = BlastLikeSearch(
            database,
            matrix,
            gap_model,
            parameters=parameters,
            statistics=converter.parameters,
        )
        self.evalue = evalue
        self.name = name

    def run(self, query: str) -> SearchResult:
        return self.search_engine.search(query, evalue=self.evalue)

    def describe(self) -> str:
        return (
            f"{self.name} (E={self.evalue}, word={self.search_engine.parameters.word_size}, "
            f"T={self.search_engine.parameters.neighborhood_threshold})"
        )
