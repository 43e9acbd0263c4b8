"""The space-utilisation table (Section 4.2).

The paper reports that the 40 M-symbol SWISS-PROT index occupies 500 MB,
i.e. 12.5 bytes per symbol -- on par with the most compact suffix-tree
representations known at the time (Kurtz).  This experiment builds the
Section-3.4 disk image for the synthetic database (optionally at several
scales) and reports the same columns: data set size, index size, and bytes per
symbol.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.common import ExperimentConfig, build_protein_dataset, default_config
from repro.experiments.report import format_table
from repro.storage.builder import build_disk_image
from repro.storage.layout import FORMAT_VERSION, INTERNAL_STRUCT, LEAF_STRUCT

#: The paper's reported space utilisation, for side-by-side display.
PAPER_BYTES_PER_SYMBOL = 12.5


@dataclass
class SpaceRow:
    database_name: str
    database_symbols: int
    sequence_count: int
    internal_nodes: int
    index_size_bytes: int
    bytes_per_symbol: float


@dataclass
class SpaceResult:
    config: ExperimentConfig
    rows: List[SpaceRow] = field(default_factory=list)

    def format_table(self) -> str:
        header = [
            "database",
            "symbols",
            "sequences",
            "internal_nodes",
            "index_MB",
            "bytes/symbol",
        ]
        table_rows = [
            [
                row.database_name,
                row.database_symbols,
                row.sequence_count,
                row.internal_nodes,
                row.index_size_bytes / (1024 * 1024),
                row.bytes_per_symbol,
            ]
            for row in self.rows
        ]
        summary = (
            f"record sizes (image format v{FORMAT_VERSION}): internal={INTERNAL_STRUCT.size} B, "
            f"leaf={LEAF_STRUCT.size} B per leaf (the paper: per symbol position), "
            f"symbols=1 B   paper: {PAPER_BYTES_PER_SYMBOL} bytes/symbol"
        )
        return (
            format_table(header, table_rows, title="Space utilisation of the suffix-tree index")
            + "\n"
            + summary
        )


def run(
    config: Optional[ExperimentConfig] = None,
    extra_configs: Sequence[ExperimentConfig] = (),
) -> SpaceResult:
    """Measure the index space utilisation for one or more dataset scales."""
    config = config or default_config()
    result = SpaceResult(config=config)
    for current in [config, *extra_configs]:
        dataset = build_protein_dataset(current)
        handle = tempfile.NamedTemporaryFile(suffix=".oasis", delete=False)
        handle.close()
        try:
            layout = build_disk_image(
                dataset.database, handle.name, block_size=current.block_size
            )
            result.rows.append(
                SpaceRow(
                    database_name=f"{dataset.database.name} ({current.scale})",
                    database_symbols=dataset.database.total_symbols,
                    sequence_count=len(dataset.database),
                    internal_nodes=layout.internal_count,
                    index_size_bytes=layout.index_size_bytes,
                    bytes_per_symbol=layout.index_size_bytes / dataset.database.total_symbols,
                )
            )
        finally:
            os.unlink(handle.name)
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(run().format_table())
