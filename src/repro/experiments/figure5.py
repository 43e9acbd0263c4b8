"""Figure 5: accuracy -- additional matches returned by OASIS over BLAST.

OASIS is exact, BLAST is a heuristic, so for the same E-value cutoff OASIS may
return matches BLAST misses (the paper reports about 60% more on average,
varying strongly with query length).  ``run`` executes both engines on the
workload and reports, per query length, the mean percentage of additional
matches; it also verifies the accuracy relationship itself (OASIS must find a
superset of the sequences BLAST scores above the threshold -- any BLAST-only
hit would indicate a scoring inconsistency, and the count of such hits is
reported so the benchmark can assert it is zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    build_protein_dataset,
    default_config,
    effective_evalue,
    searches,
)
from repro.experiments.report import format_table


@dataclass
class Figure5Row:
    query_length: int
    query_count: int
    mean_oasis_matches: float
    mean_blast_matches: float
    mean_additional_percent: float


@dataclass
class Figure5Result:
    config: ExperimentConfig
    rows: List[Figure5Row] = field(default_factory=list)
    #: Sequences reported by BLAST but not by OASIS (must be zero: OASIS is exact).
    blast_only_hits: int = 0
    mean_additional_percent: float = 0.0

    def format_table(self) -> str:
        header = ["query_len", "queries", "oasis_matches", "blast_matches", "additional %"]
        table_rows = [
            [
                row.query_length,
                row.query_count,
                row.mean_oasis_matches,
                row.mean_blast_matches,
                row.mean_additional_percent,
            ]
            for row in self.rows
        ]
        summary = (
            f"mean additional matches: {self.mean_additional_percent:.1f}%   "
            f"BLAST-only hits (must be 0): {self.blast_only_hits}   "
            f"(paper: ~60% additional matches on average)"
        )
        return (
            format_table(header, table_rows, title="Figure 5: additional matches of OASIS over BLAST")
            + "\n"
            + summary
        )


def run(config: Optional[ExperimentConfig] = None) -> Figure5Result:
    """Reproduce Figure 5 on the synthetic dataset."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    engines = searches(dataset, effective_evalue(dataset.database_symbols))
    oasis, blast = engines["OASIS"], engines["BLAST"]

    per_length: Dict[int, List[Dict[str, float]]] = {}
    blast_only = 0
    additional_percentages: List[float] = []

    for query in dataset.workload:
        oasis_result = oasis(query.text)
        blast_result = blast(query.text)

        oasis_sequences = set(oasis_result.sequence_identifiers())
        blast_sequences = set(blast_result.sequence_identifiers())
        blast_only += len(blast_sequences - oasis_sequences)

        if blast_sequences:
            additional = 100.0 * len(oasis_sequences - blast_sequences) / len(blast_sequences)
        elif oasis_sequences:
            additional = 100.0
        else:
            additional = 0.0
        additional_percentages.append(additional)

        per_length.setdefault(query.length, []).append(
            {
                "oasis": float(len(oasis_sequences)),
                "blast": float(len(blast_sequences)),
                "additional": additional,
            }
        )

    result = Figure5Result(config=config, blast_only_hits=blast_only)
    for length in sorted(per_length):
        samples = per_length[length]
        count = len(samples)
        result.rows.append(
            Figure5Row(
                query_length=length,
                query_count=count,
                mean_oasis_matches=sum(s["oasis"] for s in samples) / count,
                mean_blast_matches=sum(s["blast"] for s in samples) / count,
                mean_additional_percent=sum(s["additional"] for s in samples) / count,
            )
        )
    if additional_percentages:
        result.mean_additional_percent = sum(additional_percentages) / len(additional_percentages)
    return result

