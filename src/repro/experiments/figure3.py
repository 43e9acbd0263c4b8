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

from repro.experiments.common import ExperimentConfig, build_protein_dataset, default_config
from repro.experiments.report import format_table
from repro.workloads.engines import BlastAdapter, OasisAdapter, SmithWatermanAdapter
from repro.workloads.runner import WorkloadRunner, aggregate_by_length


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
    evalue = config.effective_evalue(dataset.database_symbols)

    adapters = [
        OasisAdapter(dataset.engine, evalue=evalue),
        BlastAdapter(
            dataset.database,
            dataset.matrix,
            dataset.gap_model,
            evalue=evalue,
            converter=dataset.converter,
        ),
        SmithWatermanAdapter(
            dataset.database,
            dataset.matrix,
            dataset.gap_model,
            evalue=evalue,
            converter=dataset.converter,
        ),
    ]
    summary = WorkloadRunner(adapters).run(dataset.workload)

    per_engine = {
        adapter.name: {
            aggregate.query_length: aggregate
            for aggregate in aggregate_by_length(summary.measurements, adapter.name)
        }
        for adapter in adapters
    }
    lengths = sorted(per_engine["OASIS"].keys())

    result = Figure3Result(config=config)
    for length in lengths:
        oasis = per_engine["OASIS"][length]
        blast = per_engine["BLAST"].get(length)
        smith_waterman = per_engine["S-W"].get(length)
        result.rows.append(
            Figure3Row(
                query_length=length,
                query_count=oasis.query_count,
                oasis_seconds=oasis.mean_seconds,
                blast_seconds=blast.mean_seconds if blast else 0.0,
                smith_waterman_seconds=smith_waterman.mean_seconds if smith_waterman else 0.0,
            )
        )
    for adapter in adapters:
        result.mean_seconds[adapter.name] = summary.mean_seconds(adapter.name)
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run().format_table())
