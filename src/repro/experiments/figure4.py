"""Figure 4: filtering efficiency -- DP columns expanded, OASIS vs S-W.

The paper measures, per query length, how many column-wise dynamic-programming
expansions each algorithm performs.  S-W always expands one column per
database symbol, so its column is the database size and is not measured
here (the S-W tests check that the aligner expands exactly that many);
OASIS only expands columns for the suffix-tree arcs it visits.  The paper
reports that OASIS expands at most 18.5% and on average 3.9% of the columns
S-W does; the reproduced numbers should stay in the same "a few percent on
average" regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    build_protein_dataset,
    default_config,
    effective_evalue,
    means_by_length,
    searches,
)
from repro.experiments.report import format_table


@dataclass
class Figure4Row:
    query_length: int
    query_count: int
    oasis_columns: float
    smith_waterman_columns: float

    @property
    def fraction(self) -> float:
        """OASIS columns as a fraction of S-W columns (the Figure 4 gap)."""
        if self.smith_waterman_columns == 0:
            return 0.0
        return self.oasis_columns / self.smith_waterman_columns


@dataclass
class Figure4Result:
    config: ExperimentConfig
    rows: List[Figure4Row] = field(default_factory=list)

    @property
    def mean_fraction(self) -> float:
        fractions = [row.fraction for row in self.rows if row.smith_waterman_columns > 0]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def worst_fraction(self) -> float:
        fractions = [row.fraction for row in self.rows if row.smith_waterman_columns > 0]
        return max(fractions) if fractions else 0.0

    def format_table(self) -> str:
        header = ["query_len", "queries", "oasis_cols", "sw_cols", "oasis/sw %"]
        table_rows = [
            [
                row.query_length,
                row.query_count,
                row.oasis_columns,
                row.smith_waterman_columns,
                100.0 * row.fraction,
            ]
            for row in self.rows
        ]
        summary = (
            f"mean fraction: {100.0 * self.mean_fraction:.1f}%   "
            f"worst fraction: {100.0 * self.worst_fraction:.1f}%   "
            f"(paper: 3.9% mean, 18.5% worst)"
        )
        return (
            format_table(header, table_rows, title="Figure 4: columns expanded, OASIS vs S-W")
            + "\n"
            + summary
        )


def run(config: Optional[ExperimentConfig] = None) -> Figure4Result:
    """Reproduce Figure 4 on the synthetic dataset."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    oasis = searches(dataset, effective_evalue(dataset.database_symbols))["OASIS"]
    means = means_by_length(oasis(query) for query in dataset.workload.texts())

    result = Figure4Result(config=config)
    for length, row in means.items():
        result.rows.append(
            Figure4Row(
                query_length=length,
                query_count=row.query_count,
                oasis_columns=row.columns,
                smith_waterman_columns=float(dataset.database.total_symbols),
            )
        )
    return result
