"""Figure 3: mean query time vs query length for OASIS, BLAST and S-W.

The paper runs the 100-motif ProClass workload against SWISS-PROT with
E = 20 000 (the BLAST-recommended value for short protein queries) and plots
the mean execution time per query length on a log scale.  The paper's
headline shapes, measured on its own implementations at 40 M residues:

* OASIS is an order of magnitude (or more) faster than S-W at every length;
* OASIS is comparable to -- often faster than -- BLAST.

This reproduction measures something narrower.  Its S-W is
``baselines.smith_waterman.best_local_scores``, a NumPy scan that fills one
query row over the whole database in a few vectorised passes; its OASIS is a
pure-Python best-first tree search.  The wall-clock ratio of the two says how
these implementations compare on one machine, not whether the paper's claim
holds: on a 2-core x86 host at 1.1 M protein residues (8 motif queries,
PAM30, gap -8) the scan takes ~0.21 s per query and OASIS ~0.24 s, while
OASIS expands 0.18 columns per residue.  That column count (Figure 4) is the
machine-independent form of the claim.

``run`` reproduces the sweep on the synthetic dataset and reports, per query
length: the mean time of each engine and the ratio of S-W's time to OASIS's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.results import SearchResult
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
class Figure3Row:
    """One per-query-length row of the Figure 3 series."""

    query_length: int
    query_count: int
    oasis_seconds: float
    blast_seconds: float
    smith_waterman_seconds: float

    @property
    def speedup_over_smith_waterman(self) -> float:
        if self.oasis_seconds == 0:
            return 0.0
        return self.smith_waterman_seconds / self.oasis_seconds


@dataclass
class Figure3Result:
    """The full Figure 3 reproduction."""

    config: ExperimentConfig
    rows: List[Figure3Row] = field(default_factory=list)
    mean_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def overall_speedup_over_smith_waterman(self) -> float:
        oasis = self.mean_seconds.get("OASIS", 0.0)
        smith_waterman = self.mean_seconds.get("S-W", 0.0)
        return smith_waterman / oasis if oasis else 0.0

    def format_table(self) -> str:
        header = [
            "query_len",
            "queries",
            "oasis_s",
            "blast_s",
            "sw_s",
            "sw/oasis",
        ]
        table_rows = [
            [
                row.query_length,
                row.query_count,
                row.oasis_seconds,
                row.blast_seconds,
                row.smith_waterman_seconds,
                row.speedup_over_smith_waterman,
            ]
            for row in self.rows
        ]
        summary = (
            f"overall mean (s): OASIS={self.mean_seconds.get('OASIS', 0):.4f} "
            f"BLAST={self.mean_seconds.get('BLAST', 0):.4f} "
            f"S-W={self.mean_seconds.get('S-W', 0):.4f} "
            f"| OASIS speed-up over S-W: {self.overall_speedup_over_smith_waterman:.1f}x"
        )
        return (
            format_table(header, table_rows, title="Figure 3: mean query time vs query length")
            + "\n"
            + summary
        )


def run(config: Optional[ExperimentConfig] = None) -> Figure3Result:
    """Reproduce Figure 3 on the synthetic dataset."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    engines = searches(dataset, effective_evalue(dataset.database_symbols))

    # Query-major: every engine answers one query before the next query.
    results: Dict[str, List[SearchResult]] = {name: [] for name in engines}
    for query in dataset.workload.texts():
        for name, search in engines.items():
            results[name].append(search(query))
    means = {name: means_by_length(rows) for name, rows in results.items()}

    result = Figure3Result(config=config)
    for length, oasis in means["OASIS"].items():
        result.rows.append(
            Figure3Row(
                query_length=length,
                query_count=oasis.query_count,
                oasis_seconds=oasis.seconds,
                blast_seconds=means["BLAST"][length].seconds,
                smith_waterman_seconds=means["S-W"][length].seconds,
            )
        )
    for name, rows in results.items():
        result.mean_seconds[name] = sum(row.elapsed_seconds for row in rows) / len(rows)
    return result
