"""Running workloads through engines and aggregating the measurements.

The paper's figures plot per-query-length means (Figures 3-6) or per-query
series (Figure 9); :class:`WorkloadRunner` produces the raw per-query
measurements and :func:`aggregate_by_length` folds them into the per-length
rows the experiment drivers print.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.results import SearchResult
from repro.datagen.motifs import MotifQuery
from repro.workloads.engines import EngineAdapter


@dataclass
class QueryMeasurement:
    """All metrics collected for one (engine, query) execution."""

    engine: str
    query: str
    query_length: int
    elapsed_seconds: float
    columns_expanded: int
    hit_count: int
    best_score: int

    @classmethod
    def from_result(cls, engine_name: str, query: str, result: SearchResult) -> "QueryMeasurement":
        return cls(
            engine=engine_name,
            query=query,
            query_length=len(query),
            elapsed_seconds=result.elapsed_seconds,
            columns_expanded=result.columns_expanded,
            hit_count=len(result),
            best_score=result.best_score,
        )


@dataclass
class LengthAggregate:
    """Per-query-length mean metrics for one engine."""

    engine: str
    query_length: int
    query_count: int
    mean_seconds: float
    mean_columns: float
    mean_hits: float

    def as_row(self) -> List[float]:
        return [
            self.query_length,
            self.query_count,
            self.mean_seconds,
            self.mean_columns,
            self.mean_hits,
        ]


@dataclass
class WorkloadRunSummary:
    """Everything a run produced: raw measurements plus total wall time."""

    measurements: List[QueryMeasurement] = field(default_factory=list)
    total_seconds: float = 0.0

    def for_engine(self, engine_name: str) -> List[QueryMeasurement]:
        return [m for m in self.measurements if m.engine == engine_name]

    def engines(self) -> List[str]:
        seen: List[str] = []
        for measurement in self.measurements:
            if measurement.engine not in seen:
                seen.append(measurement.engine)
        return seen

    def mean_seconds(self, engine_name: str) -> float:
        rows = self.for_engine(engine_name)
        if not rows:
            return 0.0
        return sum(m.elapsed_seconds for m in rows) / len(rows)


class WorkloadRunner:
    """Run a workload of queries through a set of engine adapters.

    A plain loop, one query at a time on the calling thread -- the clean
    timings the paper's per-figure experiments need.  Measurements come out
    query-major: every engine's row for the first query, then the second.
    """

    def __init__(self, engines: Sequence[EngineAdapter]):
        if not engines:
            raise ValueError("at least one engine adapter is required")
        names = [engine.name for engine in engines]
        if len(set(names)) != len(names):
            raise ValueError("engine adapters must have distinct names")
        self.engines = list(engines)

    def run(self, workload: Iterable) -> WorkloadRunSummary:
        """Execute every query of the workload on every engine."""
        summary = WorkloadRunSummary()
        start = time.perf_counter()
        for query in workload:
            text = query.text if isinstance(query, MotifQuery) else str(query)
            for engine in self.engines:
                summary.measurements.append(
                    QueryMeasurement.from_result(engine.name, text, engine.run(text))
                )
        summary.total_seconds = time.perf_counter() - start
        return summary


def aggregate_by_length(
    measurements: Iterable[QueryMeasurement], engine_name: Optional[str] = None
) -> List[LengthAggregate]:
    """Fold measurements into per-query-length means (one row per length)."""
    grouped: Dict[tuple, List[QueryMeasurement]] = {}
    for measurement in measurements:
        if engine_name is not None and measurement.engine != engine_name:
            continue
        grouped.setdefault((measurement.engine, measurement.query_length), []).append(measurement)

    aggregates: List[LengthAggregate] = []
    for (engine, length), rows in sorted(grouped.items()):
        aggregates.append(
            LengthAggregate(
                engine=engine,
                query_length=length,
                query_count=len(rows),
                mean_seconds=sum(r.elapsed_seconds for r in rows) / len(rows),
                mean_columns=sum(r.columns_expanded for r in rows) / len(rows),
                mean_hits=sum(r.hit_count for r in rows) / len(rows),
            )
        )
    return aggregates
