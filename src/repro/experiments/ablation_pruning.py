"""Ablation: how much work does each OASIS pruning rule save?

Section 3.2 introduces three alignment-pruning rules (non-positive scores,
dominated-by-path-maximum, threshold-unreachable).  Disabling any of them
never changes the result set -- only the amount of work -- so this experiment
runs the same query slice with different rule subsets and reports the DP
columns expanded and the wall-clock time of each configuration, together with
a verification that all configurations returned identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.oasis import OasisSearch
from repro.experiments.common import (
    ExperimentConfig,
    build_protein_dataset,
    default_config,
    effective_evalue,
)
from repro.experiments.report import format_table

#: The rule subsets examined (name -> OasisSearch keyword arguments).
VARIANTS: Dict[str, Dict[str, bool]] = {
    "all rules (paper)": {},
    "no dominated-pruning": {"prune_dominated": False},
    "no threshold-pruning": {"prune_threshold": False},
    "non-positive only": {"prune_dominated": False, "prune_threshold": False},
    "no pruning at all": {
        "prune_non_positive": False,
        "prune_dominated": False,
        "prune_threshold": False,
    },
}

DEFAULT_QUERY_LIMIT = 6


@dataclass
class AblationRow:
    variant: str
    columns_expanded: int
    nodes_expanded: int
    elapsed_seconds: float

    def relative_columns(self, baseline_columns: int) -> float:
        return self.columns_expanded / baseline_columns if baseline_columns else 0.0


@dataclass
class AblationResult:
    config: ExperimentConfig
    rows: List[AblationRow] = field(default_factory=list)
    results_identical: bool = True

    def format_table(self) -> str:
        baseline = self.rows[0].columns_expanded if self.rows else 0
        header = ["variant", "columns", "nodes", "seconds", "columns vs paper"]
        table_rows = [
            [
                row.variant,
                row.columns_expanded,
                row.nodes_expanded,
                row.elapsed_seconds,
                row.relative_columns(baseline),
            ]
            for row in self.rows
        ]
        summary = f"all variants returned identical results: {self.results_identical}"
        return (
            format_table(header, table_rows, title="Ablation: OASIS pruning rules (Section 3.2)")
            + "\n"
            + summary
        )


def run(
    config: Optional[ExperimentConfig] = None,
    query_limit: int = DEFAULT_QUERY_LIMIT,
) -> AblationResult:
    """Run the pruning-rule ablation on a slice of the workload."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    queries: Sequence[str] = dataset.workload.texts()[:query_limit]
    evalue = effective_evalue(dataset.database_symbols)

    result = AblationResult(config=config)
    reference_scores = None
    for variant_name, flags in VARIANTS.items():
        search = OasisSearch(dataset.engine.cursor, dataset.matrix, dataset.gap_model, **flags)
        columns = 0
        nodes = 0
        started = time.perf_counter()
        collected: List[Dict[str, int]] = []
        for query in queries:
            min_score = dataset.converter.min_score_for_evalue(evalue, len(query))
            search_result = search.search(query, min_score=min_score)
            columns += search_result.columns_expanded
            nodes += search_result.statistics.nodes_expanded
            collected.append(search_result.scores_by_sequence())
        elapsed = time.perf_counter() - started

        if reference_scores is None:
            reference_scores = collected
        elif collected != reference_scores:
            result.results_identical = False

        result.rows.append(
            AblationRow(
                variant=variant_name,
                columns_expanded=columns,
                nodes_expanded=nodes,
                elapsed_seconds=elapsed,
            )
        )
    return result
