"""Scaling experiment: why OASIS's advantage grows with the database.

The paper evaluates a 40 M-residue database; a pure-Python reproduction runs
on databases two to three orders of magnitude smaller, which compresses the
wall-clock gap between OASIS and S-W.  This experiment
makes the underlying scaling law visible: S-W's work is exactly one DP column
per database symbol (linear), while the OASIS search frontier is governed by
the number of *distinct* tree paths that keep a viable alignment alive and
therefore grows sub-linearly.  Sweeping the database size and plotting the
fraction of columns OASIS expands shows the fraction falling as the database
grows -- the trend that produces the paper's order-of-magnitude speed-ups at
SWISS-PROT scale.

This experiment is an extension of the paper (it has no corresponding figure);
it exists to connect our scaled-down measurements to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.engine import OasisEngine
from repro.datagen.motifs import MotifWorkloadGenerator
from repro.datagen.protein import SwissProtLikeGenerator
from repro.experiments.common import (
    GAP_PENALTY,
    MATRIX_NAME,
    SEED,
    ExperimentConfig,
    default_config,
    effective_evalue,
)
from repro.experiments.report import format_table
from repro.scoring.data import load_matrix
from repro.scoring.gaps import FixedGapModel

#: Number of protein families per sweep point (database size grows with it).
FAMILY_COUNTS = (8, 16, 32, 64)
QUERY_LIMIT = 8


@dataclass
class ScalingRow:
    family_count: int
    database_symbols: int
    smith_waterman_columns: int
    oasis_columns: float
    oasis_seconds: float

    @property
    def fraction(self) -> float:
        return self.oasis_columns / self.smith_waterman_columns if self.smith_waterman_columns else 0.0


@dataclass
class ScalingResult:
    config: ExperimentConfig
    rows: List[ScalingRow] = field(default_factory=list)

    def fraction_shrinks(self) -> bool:
        """Whether the OASIS/S-W work ratio falls as the database grows."""
        if len(self.rows) < 2:
            return False
        return self.rows[-1].fraction < self.rows[0].fraction

    def format_table(self) -> str:
        header = ["families", "db_symbols", "sw_cols", "oasis_cols", "oasis/sw %", "oasis_s"]
        table_rows = [
            [
                row.family_count,
                row.database_symbols,
                row.smith_waterman_columns,
                row.oasis_columns,
                100.0 * row.fraction,
                row.oasis_seconds,
            ]
            for row in self.rows
        ]
        summary = (
            "the OASIS work fraction must shrink as the database grows: "
            f"{self.fraction_shrinks()}"
        )
        return (
            format_table(
                header, table_rows, title="Scaling: OASIS work relative to S-W vs database size"
            )
            + "\n"
            + summary
        )


def run(config: Optional[ExperimentConfig] = None) -> ScalingResult:
    """Sweep the database size and measure the OASIS work fraction."""
    config = config or default_config()
    matrix = load_matrix(MATRIX_NAME)
    gap_model = FixedGapModel(GAP_PENALTY)
    result = ScalingResult(config=config)

    # One fixed query workload drawn from the smallest database's families so
    # that every sweep point answers the same queries.
    base_generator = SwissProtLikeGenerator(
        seed=SEED, family_count=min(FAMILY_COUNTS), singleton_count=10
    )
    base_generator.generate()
    queries = [
        q.text
        for q in MotifWorkloadGenerator(
            base_generator, seed=SEED + 1, query_count=QUERY_LIMIT
        ).generate()
    ]

    for family_count in FAMILY_COUNTS:
        generator = SwissProtLikeGenerator(
            seed=SEED,
            family_count=family_count,
            singleton_count=10 + family_count,
        )
        database = generator.generate()
        engine = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
        evalue = effective_evalue(database.total_symbols)

        total_columns = 0.0
        total_seconds = 0.0
        for query in queries:
            search_result = engine.search(query, evalue=evalue)
            total_columns += search_result.columns_expanded
            total_seconds += search_result.elapsed_seconds

        result.rows.append(
            ScalingRow(
                family_count=family_count,
                database_symbols=database.total_symbols,
                smith_waterman_columns=database.total_symbols * len(queries),
                oasis_columns=total_columns,
                oasis_seconds=total_seconds,
            )
        )
    return result
