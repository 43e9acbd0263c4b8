"""Figure 6: effect of selectivity (E = 1 vs E = 20 000) on OASIS query time.

A low E-value (high selectivity) raises OASIS's ``min_score`` threshold, which
prunes the search harder.  The paper observes that the benefit is dramatic for
the shortest queries (where a selective search behaves almost like exact
suffix-tree lookup) and shrinks as queries get longer, because uncovering the
strong matches already forces OASIS over most of the ground needed for the
weak ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    ExperimentConfig,
    build_protein_dataset,
    default_config,
    effective_evalue,
    means_by_length,
    searches,
)
from repro.experiments.report import format_table

#: The two extremes the paper plots.
EVALUES = (1.0, 20_000.0)


@dataclass
class Figure6Row:
    query_length: int
    query_count: int
    #: Mean seconds per E-value, keyed by the E-value.
    seconds: Dict[float, float] = field(default_factory=dict)
    columns: Dict[float, float] = field(default_factory=dict)
    hits: Dict[float, float] = field(default_factory=dict)


@dataclass
class Figure6Result:
    config: ExperimentConfig
    evalues: Sequence[float] = EVALUES
    rows: List[Figure6Row] = field(default_factory=list)

    def format_table(self) -> str:
        low, high = min(self.evalues), max(self.evalues)
        header = [
            "query_len",
            "queries",
            f"E={low:g} s",
            f"E={high:g} s",
            f"E={low:g} hits",
            f"E={high:g} hits",
            "relaxed/selective",
        ]
        table_rows = []
        for row in self.rows:
            selective = row.seconds.get(low, 0.0)
            relaxed = row.seconds.get(high, 0.0)
            table_rows.append(
                [
                    row.query_length,
                    row.query_count,
                    selective,
                    relaxed,
                    row.hits.get(low, 0.0),
                    row.hits.get(high, 0.0),
                    relaxed / selective if selective else None,
                ]
            )
        return format_table(
            header, table_rows, title="Figure 6: effect of selectivity on OASIS query time"
        )


def run(config: Optional[ExperimentConfig] = None) -> Figure6Result:
    """Reproduce Figure 6 on the synthetic dataset."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    texts = dataset.workload.texts()

    means = {}
    for evalue in EVALUES:
        oasis = searches(dataset, effective_evalue(dataset.database_symbols, evalue))["OASIS"]
        means[evalue] = means_by_length(oasis(query) for query in texts)

    result = Figure6Result(config=config)
    for length, first in means[EVALUES[0]].items():
        row = Figure6Row(query_length=length, query_count=first.query_count)
        for evalue in EVALUES:
            row.seconds[evalue] = means[evalue][length].seconds
            row.columns[evalue] = means[evalue][length].columns
            row.hits[evalue] = means[evalue][length].hits
        result.rows.append(row)
    return result
