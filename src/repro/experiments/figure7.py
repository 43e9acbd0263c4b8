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

:func:`sweep` is the one pass over the pool sizes: Figure 8 reads its
per-region hit ratios off the same pool statistics.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import OasisEngine
from repro.experiments.common import (
    BLOCK_SIZE,
    ExperimentConfig,
    build_protein_dataset,
    default_config,
    effective_evalue,
)
from repro.experiments.report import format_table
from repro.storage.buffer_pool import BufferPoolStatistics
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree

#: Pool capacities examined, as fractions of the index size.
DEFAULT_POOL_FRACTIONS = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0)

#: How many workload queries the sweep uses (disk-cursor traversal is slower
#: than the in-memory tree, and the shape emerges after a handful of queries).
DEFAULT_QUERY_LIMIT = 15


@dataclass
class PoolPass:
    """One pool size's pass over the sweep's queries."""

    pool_bytes: int
    pool_fraction_of_index: float
    query_count: int
    compute_seconds: float
    statistics: BufferPoolStatistics


def sweep(
    config: ExperimentConfig, pool_fractions: Sequence[float], query_limit: int
) -> Tuple[int, List[PoolPass]]:
    """Run the first ``query_limit`` queries through each pool size, smallest first.

    The image is built once, into a temporary directory; each pool size opens
    its own :class:`DiskSuffixTree` on it, so every pass starts cold.  Returns
    the index size in bytes and one pass per fraction.
    """
    dataset = build_protein_dataset(config)
    queries = dataset.workload.texts()[:query_limit]
    evalue = effective_evalue(dataset.database_symbols)
    passes: List[PoolPass] = []
    with tempfile.TemporaryDirectory() as directory:
        image_path = os.path.join(directory, "tree.oasis")
        layout = build_disk_image(dataset.database, image_path, block_size=BLOCK_SIZE)
        for fraction in sorted(pool_fractions):
            pool_bytes = max(BLOCK_SIZE, int(layout.index_size_bytes * fraction))
            disk_tree = DiskSuffixTree(image_path, dataset.database, buffer_pool_bytes=pool_bytes)
            engine = OasisEngine(
                disk_tree, dataset.matrix, dataset.gap_model, converter=dataset.converter
            )
            try:
                seconds = sum(
                    engine.search(query, evalue=evalue).elapsed_seconds for query in queries
                )
            finally:
                disk_tree.close()
            passes.append(
                PoolPass(pool_bytes, fraction, len(queries), seconds, disk_tree.statistics)
            )
    return layout.index_size_bytes, passes


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
) -> Figure7Result:
    """Reproduce Figure 7 on the synthetic dataset."""
    config = config or default_config()
    index_size_bytes, passes = sweep(config, pool_fractions, query_limit)
    result = Figure7Result(config=config, index_size_bytes=index_size_bytes)
    for pool_pass in passes:
        simulated_io_seconds = pool_pass.statistics.misses * config.simulated_miss_latency
        result.rows.append(
            Figure7Row(
                pool_bytes=pool_pass.pool_bytes,
                pool_fraction_of_index=pool_pass.pool_fraction_of_index,
                mean_compute_seconds=pool_pass.compute_seconds / pool_pass.query_count,
                mean_simulated_io_seconds=simulated_io_seconds / pool_pass.query_count,
                hit_ratio=pool_pass.statistics.hit_ratio,
            )
        )
    return result
