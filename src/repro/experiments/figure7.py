"""Figure 7: effect of the buffer pool size on mean query time.

The paper varies the buffer pool from 32 MB to 512 MB against a ~500 MB index
and observes that performance degrades sharply once the pool is much smaller
than the index (57.5% slower when only a quarter of the tree fits) and
flattens once the whole structure fits in memory.

The reproduction builds the Section-3.4 disk image for the synthetic database,
then runs a slice of the workload through a :class:`DiskSuffixTree` whose pool
capacity sweeps a range of fractions of the index size.  Because a modern OS
page cache hides true read latency, the reported per-query time is the
measured compute time plus a simulated I/O time, charged apart from the CPU
as EMBANKS does for its disk-resident search: the buffer pool's physical
reads (``misses``) times ``config.simulated_miss_latency`` (5 ms by default
-- a 2003-era disk seek).  Nothing sleeps.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.engine import OasisEngine
from repro.experiments.common import ExperimentConfig, build_protein_dataset, default_config
from repro.experiments.report import format_table
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree

#: Pool capacities examined, as fractions of the index size.
DEFAULT_POOL_FRACTIONS = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0)

#: How many workload queries the sweep uses (disk-cursor traversal is slower
#: than the in-memory tree, and the shape emerges after a handful of queries).
DEFAULT_QUERY_LIMIT = 15


@dataclass
class Figure7Row:
    pool_bytes: int
    pool_fraction_of_index: float
    mean_compute_seconds: float
    mean_simulated_io_seconds: float
    hit_ratio: float

    @property
    def mean_total_seconds(self) -> float:
        return self.mean_compute_seconds + self.mean_simulated_io_seconds


@dataclass
class Figure7Result:
    config: ExperimentConfig
    index_size_bytes: int = 0
    rows: List[Figure7Row] = field(default_factory=list)

    def degradation(self) -> float:
        """Slow-down of the smallest pool relative to the largest."""
        if len(self.rows) < 2:
            return 0.0
        smallest = self.rows[0].mean_total_seconds
        largest = self.rows[-1].mean_total_seconds
        return smallest / largest if largest else 0.0

    def format_table(self) -> str:
        header = [
            "pool_MB",
            "pool/index",
            "compute_s",
            "sim_io_s",
            "total_s",
            "hit_ratio",
        ]
        table_rows = [
            [
                row.pool_bytes / (1024 * 1024),
                row.pool_fraction_of_index,
                row.mean_compute_seconds,
                row.mean_simulated_io_seconds,
                row.mean_total_seconds,
                row.hit_ratio,
            ]
            for row in self.rows
        ]
        summary = (
            f"index size: {self.index_size_bytes / (1024 * 1024):.1f} MB   "
            f"smallest-pool slow-down vs largest: {self.degradation():.1f}x   "
            f"(paper: sharp degradation below ~1/4 of the index, flat once it fits)"
        )
        return (
            format_table(header, table_rows, title="Figure 7: effect of buffer pool size")
            + "\n"
            + summary
        )


def run(
    config: Optional[ExperimentConfig] = None,
    pool_fractions: Sequence[float] = DEFAULT_POOL_FRACTIONS,
    query_limit: int = DEFAULT_QUERY_LIMIT,
    image_path: Optional[str] = None,
) -> Figure7Result:
    """Reproduce Figure 7 on the synthetic dataset."""
    config = config or default_config()
    dataset = build_protein_dataset(config)
    queries = dataset.workload.texts()[:query_limit]

    owns_image = image_path is None
    if image_path is None:
        handle = tempfile.NamedTemporaryFile(suffix=".oasis", delete=False)
        handle.close()
        image_path = handle.name

    try:
        layout = build_disk_image(dataset.database, image_path, block_size=config.block_size)
        result = Figure7Result(config=config, index_size_bytes=layout.index_size_bytes)

        for fraction in sorted(pool_fractions):
            pool_bytes = max(config.block_size, int(layout.index_size_bytes * fraction))
            disk_tree = DiskSuffixTree(image_path, dataset.database, buffer_pool_bytes=pool_bytes)
            engine = OasisEngine(
                disk_tree, dataset.matrix, dataset.gap_model, converter=dataset.converter
            )
            compute_seconds = 0.0
            evalue = config.effective_evalue(dataset.database_symbols)
            for query in queries:
                search_result = engine.search(query, evalue=evalue)
                compute_seconds += search_result.elapsed_seconds
            statistics = disk_tree.statistics
            simulated_io_seconds = statistics.misses * config.simulated_miss_latency
            result.rows.append(
                Figure7Row(
                    pool_bytes=pool_bytes,
                    pool_fraction_of_index=fraction,
                    mean_compute_seconds=compute_seconds / len(queries),
                    mean_simulated_io_seconds=simulated_io_seconds / len(queries),
                    hit_ratio=statistics.hit_ratio,
                )
            )
            disk_tree.close()
        return result
    finally:
        if owns_image and os.path.exists(image_path):
            os.unlink(image_path)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run().format_table())
