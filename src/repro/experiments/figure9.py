"""Figure 9: online behaviour -- when does each result arrive?

The paper runs a single 13-residue motif (DKDGDGCITTKEL) with E = 20 000 and
plots the time at which OASIS returns each of its ~5 900 results; the first 40
arrive within 4/100ths of a second, long before S-W or BLAST would have
produced anything (both must finish the whole query first).

The reproduction picks a representative motif from the synthetic workload
(the one closest to the paper's 13 residues), streams OASIS's results
through the online interface and records the emission timeline; the total
times of S-W and the BLAST-like baseline are reported alongside for the same
comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.experiments.common import (
    ExperimentConfig,
    build_protein_dataset,
    default_config,
    effective_evalue,
    searches,
)
from repro.experiments.report import format_table

#: Cumulative-result checkpoints reported in the table.
DEFAULT_CHECKPOINTS = (1, 5, 10, 20, 40, 100, 500)

#: The length of the paper's query (DKDGDGCITTKEL).
QUERY_LENGTH = 13


@dataclass
class Figure9Result:
    config: ExperimentConfig
    query: str = ""
    #: (seconds since query start, cumulative results emitted)
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    total_results: int = 0
    oasis_total_seconds: float = 0.0
    smith_waterman_total_seconds: float = 0.0
    blast_total_seconds: float = 0.0
    checkpoints: Tuple[int, ...] = DEFAULT_CHECKPOINTS

    def time_for_first(self, count: int) -> Optional[float]:
        for elapsed, cumulative in self.timeline:
            if cumulative >= count:
                return elapsed
        return None

    def format_table(self) -> str:
        header = ["results returned", "seconds"]
        rows = []
        for checkpoint in self.checkpoints:
            elapsed = self.time_for_first(checkpoint)
            if elapsed is not None:
                rows.append([checkpoint, elapsed])
        rows.append([f"all {self.total_results} (OASIS)", self.oasis_total_seconds])
        rows.append(["S-W (first and only output)", self.smith_waterman_total_seconds])
        rows.append(["BLAST (first and only output)", self.blast_total_seconds])
        summary = (
            f"query: {self.query} (length {len(self.query)})   "
            f"results: {self.total_results}   "
            "(paper: first 40 results in under 0.04 s, full S-W/BLAST must finish first)"
        )
        return (
            format_table(header, rows, title="Figure 9: online behaviour of OASIS")
            + "\n"
            + summary
        )


def select_query(dataset) -> str:
    """Pick the workload motif closest to the paper's 13-residue query."""
    best = min(dataset.workload.queries, key=lambda q: abs(q.length - QUERY_LENGTH))
    return best.text


def run(config: Optional[ExperimentConfig] = None) -> Figure9Result:
    """Reproduce Figure 9 on the synthetic dataset."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    query = select_query(dataset)

    result = Figure9Result(config=config, query=query)
    evalue = effective_evalue(dataset.database_symbols)

    # OASIS: stream hits and log their emission times.
    timeline: List[Tuple[float, int]] = []
    count = 0
    for hit in dataset.engine.search_online(query, evalue=evalue):
        count += 1
        timeline.append((hit.emitted_at or 0.0, count))
    result.timeline = timeline
    result.total_results = count
    result.oasis_total_seconds = timeline[-1][0] if timeline else 0.0

    # The baselines can only answer after completing the whole query.
    engines = searches(dataset, evalue)
    result.smith_waterman_total_seconds = engines["S-W"](query).elapsed_seconds
    result.blast_total_seconds = engines["BLAST"](query).elapsed_seconds
    return result
